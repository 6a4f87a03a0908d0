"""The namespace tree: directories, files, and per-file access state.

Directories are dense integer ids (0 is the root). Files are implicit —
``(dir_id, file_index)`` pairs — which keeps memory at one int32 per file
(its last-access epoch) instead of a Python object per inode. File counts
can grow at runtime (MDtest-style create streams).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["NamespaceTree", "NEVER_ACCESSED"]

NEVER_ACCESSED = -1


class NamespaceTree:
    """A mutable directory tree with implicit file inodes.

    The tree intentionally has no notion of which MDS owns what; that lives
    in :class:`repro.namespace.subtree.AuthorityMap`. The tree does own the
    per-file *last accessed epoch* state because both the vanilla balancer's
    heat and Lunule's pattern analyzer are derived from it.
    """

    def __init__(self) -> None:
        self.parent: list[int] = [-1]
        self.children: list[list[int]] = [[]]
        self.names: list[str] = ["/"]
        self.n_files: list[int] = [0]
        self.depth: list[int] = [0]
        # Lazily allocated per-dir int32 arrays of last-access epoch.
        self._file_last_access: dict[int, np.ndarray] = {}
        # Number of files in each dir never accessed yet (for Lunule's beta).
        self._unvisited: list[int] = [0]
        # Per touched dir, a histogram of last-access epochs: entry ``i`` of
        # ``_access_counts[d]`` is the number of files whose last access was
        # epoch ``_access_base[d] + i``. Maintained incrementally by the
        # touch methods so sliding-window queries (how many files were
        # accessed at epoch >= cutoff?) read a few trailing entries instead
        # of rescanning every access array each epoch.
        self._access_base: dict[int, int] = {}
        self._access_counts: dict[int, list[int]] = {}
        # Incrementally maintained float64 mirror of ``n_files`` (capacity
        # doubled on growth; first ``n_dirs`` entries valid). Epoch-level
        # consumers read whole-namespace file counts every epoch — at
        # million-directory scale the list→array conversion would dominate.
        self._n_files_arr: np.ndarray = np.zeros(1)

    # ------------------------------------------------------------------ build
    def add_dir(self, parent: int, name: str) -> int:
        """Create a directory under ``parent`` and return its id."""
        self._check_dir(parent)
        dir_id = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.names.append(name)
        self.n_files.append(0)
        self.depth.append(self.depth[parent] + 1)
        self._unvisited.append(0)
        self.children[parent].append(dir_id)
        if dir_id >= self._n_files_arr.size:
            grown = np.zeros(2 * self._n_files_arr.size)
            grown[: self._n_files_arr.size] = self._n_files_arr
            self._n_files_arr = grown
        return dir_id

    def add_files(self, dir_id: int, count: int) -> int:
        """Add ``count`` files to ``dir_id``; returns the first new index."""
        self._check_dir(dir_id)
        if count < 0:
            raise ValueError("cannot add a negative number of files")
        first = self.n_files[dir_id]
        self.n_files[dir_id] = first + count
        self._n_files_arr[dir_id] = first + count
        self._unvisited[dir_id] += count
        arr = self._file_last_access.get(dir_id)
        if arr is not None and self.n_files[dir_id] > arr.size:
            grown = np.full(max(self.n_files[dir_id], 2 * arr.size), NEVER_ACCESSED,
                            dtype=np.int32)
            grown[: arr.size] = arr
            self._file_last_access[dir_id] = grown
        return first

    # ------------------------------------------------------------ access state
    def _bump_epoch_count(self, dir_id: int, epoch: int, delta: int) -> None:
        counts = self._access_counts.get(dir_id)
        if counts is None:
            self._access_base[dir_id] = epoch
            self._access_counts[dir_id] = [delta]
            return
        i = epoch - self._access_base[dir_id]
        if i < 0:
            counts[:0] = [0] * -i
            self._access_base[dir_id] = epoch
            i = 0
        elif i >= len(counts):
            counts.extend([0] * (i - len(counts) + 1))
        counts[i] += delta

    def recently_accessed(self, cutoff: int) -> Iterator[tuple[int, int]]:
        """Yield ``(dir_id, count)`` of files last accessed at epoch >= cutoff.

        Reads the incremental epoch histograms, so the cost is proportional
        to the number of *touched* directories times the window width — not
        to the total file population.
        """
        for d, counts in self._access_counts.items():
            lo = cutoff - self._access_base[d]
            if lo < 0:
                lo = 0
            if lo < len(counts):
                c = sum(counts[lo:])
                if c:
                    yield d, c

    def _access_array(self, dir_id: int) -> np.ndarray:
        arr = self._file_last_access.get(dir_id)
        if arr is None or arr.size < self.n_files[dir_id]:
            arr = np.full(max(self.n_files[dir_id], 1), NEVER_ACCESSED, dtype=np.int32)
            old = self._file_last_access.get(dir_id)
            if old is not None:
                arr[: old.size] = old
            self._file_last_access[dir_id] = arr
        return arr

    def touch_file(self, dir_id: int, file_idx: int, epoch: int) -> int:
        """Record an access; returns the previous last-access epoch.

        A return of :data:`NEVER_ACCESSED` means this is a first visit.
        """
        if not 0 <= file_idx < self.n_files[dir_id]:
            raise IndexError(f"file {file_idx} out of range in dir {dir_id}")
        arr = self._access_array(dir_id)
        prev = int(arr[file_idx])
        arr[file_idx] = epoch
        if prev == NEVER_ACCESSED:
            self._unvisited[dir_id] -= 1
        else:
            self._bump_epoch_count(dir_id, prev, -1)
        self._bump_epoch_count(dir_id, epoch, 1)
        return prev

    def touch_file_range(self, dir_id: int, start: int, count: int,
                         epoch: int) -> None:
        """Batched first-touch of files ``start .. start+count-1``.

        Equivalent to ``count`` :meth:`touch_file` calls on freshly created
        indices (all previous epochs are ``NEVER_ACCESSED``); used by the
        turbo create tick.
        """
        if count <= 0:
            return
        if start < 0 or start + count > self.n_files[dir_id]:
            raise IndexError(f"file range out of range in dir {dir_id}")
        arr = self._access_array(dir_id)
        arr[start:start + count] = epoch
        self._unvisited[dir_id] -= count
        self._bump_epoch_count(dir_id, epoch, count)

    def touch_file_batch(self, dir_id: int, idxs: np.ndarray,
                         epoch: int) -> np.ndarray:
        """Batched access of *unique* file indices; returns previous epochs.

        The unvisited stock drops by the number of never-before-accessed
        indices, exactly as the equivalent :meth:`touch_file` sequence
        would (duplicates must be deduplicated by the caller: a repeat
        within one batch reads ``epoch`` back as its previous value).
        """
        if idxs.size == 0:
            return idxs
        if int(idxs.min()) < 0 or int(idxs.max()) >= self.n_files[dir_id]:
            raise IndexError(f"file index out of range in dir {dir_id}")
        arr = self._access_array(dir_id)
        prevs = arr[idxs].copy()
        arr[idxs] = epoch
        self._unvisited[dir_id] -= int((prevs == NEVER_ACCESSED).sum())
        touched = prevs[prevs != NEVER_ACCESSED]
        if touched.size:
            for e, c in zip(*np.unique(touched, return_counts=True)):
                self._bump_epoch_count(dir_id, int(e), -int(c))
        self._bump_epoch_count(dir_id, epoch, int(idxs.size))
        return prevs

    def n_files_array(self) -> np.ndarray:
        """Fresh float64 array of per-directory file counts (a copy)."""
        return self._n_files_arr[: len(self.n_files)].copy()

    def unvisited_files(self, dir_id: int) -> int:
        """Number of files in ``dir_id`` that have never been accessed."""
        self._check_dir(dir_id)
        return self._unvisited[dir_id]

    # ------------------------------------------------------------------ queries
    @property
    def n_dirs(self) -> int:
        return len(self.parent)

    def total_files(self) -> int:
        return sum(self.n_files)

    def path(self, dir_id: int) -> str:
        """Human-readable absolute path of a directory (for reports)."""
        self._check_dir(dir_id)
        parts: list[str] = []
        d = dir_id
        while d != 0:
            parts.append(self.names[d])
            d = self.parent[d]
        return "/" + "/".join(reversed(parts))

    def ancestors(self, dir_id: int) -> Iterator[int]:
        """Yield ``dir_id`` then each ancestor up to and including the root."""
        self._check_dir(dir_id)
        d = dir_id
        while True:
            yield d
            if d == 0:
                return
            d = self.parent[d]

    def walk(self, dir_id: int = 0) -> Iterator[int]:
        """Pre-order iteration over ``dir_id`` and all descendants."""
        self._check_dir(dir_id)
        stack = [dir_id]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(reversed(self.children[d]))

    def subtree_extent(self, root: int, stop: frozenset[int] | set[int] = frozenset()) -> list[int]:
        """Dirs in the subtree rooted at ``root``, not descending into ``stop``.

        ``stop`` is the set of *other* subtree roots nested below ``root``;
        those belong to a different authority and are excluded (but ``root``
        itself is always included even if listed in ``stop``).
        """
        self._check_dir(root)
        out: list[int] = []
        stack = [root]
        while stack:
            d = stack.pop()
            out.append(d)
            for c in self.children[d]:
                if c not in stop:
                    stack.append(c)
        return out

    def inode_count(self, dirs: list[int]) -> int:
        """Inodes covered by a set of directories (1 per dir + its files)."""
        return sum(1 + self.n_files[d] for d in dirs)

    def _check_dir(self, dir_id: int) -> None:
        if not 0 <= dir_id < len(self.parent):
            raise IndexError(f"unknown directory id {dir_id}")
