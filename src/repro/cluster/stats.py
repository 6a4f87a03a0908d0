"""Per-directory access statistics feeding the balancers.

Two statistic families live here, updated from the same access stream:

- **Heat** — CephFS-Vanilla's decayed popularity counter per directory.
  Accumulates on access, decays multiplicatively per epoch. The balancer
  that selects by heat selects the *past*; the paper's §2.2 shows why that
  invalidates migration for scan workloads.
- **Pattern stats** — Lunule's cutting-window counters per directory:
  visits, recurrent visits (same file re-touched within the recurrence
  window), first visits (file never touched before), plus the sibling
  spatial-correlation bonus. These produce ``alpha``, ``beta``, ``l_t``,
  ``l_s`` of paper Eq. 4.

Hot-path updates use plain Python lists (faster than NumPy scalar
indexing); epoch-end aggregation converts to arrays for vectorized math.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree
from repro.util.rng import substream

__all__ = ["AccessStats"]


class AccessStats:
    """Records accesses and maintains heat + Lunule pattern windows."""

    def __init__(
        self,
        tree: NamespaceTree,
        *,
        heat_decay: float = 0.8,
        recurrence_window: int = 3,
        pattern_windows: int = 3,
        sibling_probability: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 < heat_decay <= 1.0:
            raise ValueError("heat_decay must be in (0, 1]")
        if recurrence_window < 1 or pattern_windows < 1:
            raise ValueError("windows must be >= 1")
        if not 0.0 <= sibling_probability <= 1.0:
            raise ValueError("sibling_probability must be a probability")
        self.tree = tree
        self.heat_decay = heat_decay
        self.recurrence_window = recurrence_window
        self.pattern_windows = pattern_windows
        self.sibling_probability = sibling_probability
        self._rng = substream(seed, "access-stats")

        n = tree.n_dirs
        self.heat: list[float] = [0.0] * n
        # Current-epoch counters (reset every epoch).
        self._visits: list[int] = [0] * n
        self._recurrent: list[int] = [0] * n
        self._first: list[int] = [0] * n
        self._created: list[int] = [0] * n
        # Rolling window of the last `pattern_windows` epochs, plus running sums.
        self._win: deque[tuple[np.ndarray, ...]] = deque()
        self.win_visits = np.zeros(n)
        self.win_recurrent = np.zeros(n)
        self.win_first = np.zeros(n)
        self.win_ls = np.zeros(n)
        self.win_created = np.zeros(n)
        self._dir_last_access: list[int] = [NEVER_ACCESSED] * n
        # Sparse bookkeeping: dirs with any counter bump this epoch, and
        # dirs whose heat is nonzero (monotone — decay never reaches 0.0).
        # Epoch-boundary aggregation fills zero arrays from these sets, so
        # the cost scales with the touched population, not the namespace.
        self._touched_epoch: set[int] = set()
        self._heat_live: set[int] = set()
        self.epoch = 0
        # Cluster-wide op-mix sums of the epoch just closed (filled by
        # ``end_epoch``); feeds the workload characterization stream.
        self.last_epoch_mix: dict[str, int] = {
            "visits": 0, "recurrent": 0, "first": 0, "created": 0}

    # ------------------------------------------------------------- recording
    def _grow(self) -> None:
        n = self.tree.n_dirs
        grow = n - len(self.heat)
        if grow <= 0:
            return
        self.heat.extend([0.0] * grow)
        self._visits.extend([0] * grow)
        self._recurrent.extend([0] * grow)
        self._first.extend([0] * grow)
        self._created.extend([0] * grow)
        self._dir_last_access.extend([NEVER_ACCESSED] * grow)
        for name in ("win_visits", "win_recurrent", "win_first", "win_ls", "win_created"):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros(grow)]))

    def record_file_access(self, dir_id: int, file_idx: int, *, created: bool = False) -> None:
        """A metadata op touched file ``file_idx`` of ``dir_id``.

        ``created`` marks a freshly created inode: it counts as a first
        visit (the inode was unvisited until this instant) and feeds the
        created-in-window tally so that create streams keep a high spatial
        inclination (beta) even though they leave no unvisited stock behind.
        """
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        prev = self.tree.touch_file(dir_id, file_idx, self.epoch)
        self.heat[dir_id] += 1.0
        self._visits[dir_id] += 1
        # "Visited" is a sliding notion: each inode carries a boolean queue
        # of the last n epochs (paper §4.1), so an inode untouched for
        # longer than the recurrence window counts as unvisited again.
        if prev == NEVER_ACCESSED or self.epoch - prev > self.recurrence_window:
            self._first[dir_id] += 1
            if created:
                self._created[dir_id] += 1
        else:
            self._recurrent[dir_id] += 1

    def record_dir_access(self, dir_id: int) -> None:
        """A metadata op touched the directory itself (readdir, mkdir...)."""
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        self.heat[dir_id] += 1.0
        self._visits[dir_id] += 1
        prev = self._dir_last_access[dir_id]
        if prev != NEVER_ACCESSED and self.epoch - prev <= self.recurrence_window:
            self._recurrent[dir_id] += 1
        self._dir_last_access[dir_id] = self.epoch

    # ------------------------------------------------------------ batched path
    # The turbo create tick records a client's whole tick of creates at
    # once. Each method is op-for-op equivalent to the scalar calls it replaces:
    # integer tallies are commutative, and heat accumulates by repeated
    # ``+= 1.0`` (never ``+= n`` — adding an integer to an arbitrary float
    # in one step can round differently than n unit steps, and heat feeds
    # golden-traced decisions).

    def _bump_heat(self, dir_id: int, count: int) -> None:
        h = self.heat[dir_id]
        for _ in range(count):
            h += 1.0
        self.heat[dir_id] = h

    def record_create_batch(self, dir_id: int, first_idx: int, count: int) -> None:
        """``count`` files created (and first-touched) in ``dir_id``.

        The caller has already grown the tree via ``add_files``; indices
        ``first_idx .. first_idx+count-1`` are fresh, so every access is a
        first visit and a created-in-window tally.
        """
        if count <= 0:
            return
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        self.tree.touch_file_range(dir_id, first_idx, count, self.epoch)
        self._bump_heat(dir_id, count)
        self._visits[dir_id] += count
        self._first[dir_id] += count
        self._created[dir_id] += count

    def record_file_batch(self, dir_id: int, idxs: np.ndarray) -> None:
        """A run of metadata ops touched existing files ``idxs`` of ``dir_id``.

        Duplicates within the run are recurrent visits by construction
        (their first occurrence stamped the current epoch); each unique
        index classifies by its pre-run last-access epoch, exactly as the
        scalar per-op sequence would.
        """
        if idxs.size == 0:
            return
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        unique = np.unique(idxs)
        prevs = self.tree.touch_file_batch(dir_id, unique, self.epoch)
        n_first = int(((prevs == NEVER_ACCESSED)
                       | (self.epoch - prevs > self.recurrence_window)).sum())
        n = int(idxs.size)
        self._bump_heat(dir_id, n)
        self._visits[dir_id] += n
        self._first[dir_id] += n_first
        self._recurrent[dir_id] += n - n_first

    def record_dir_batch(self, dir_id: int, count: int) -> None:
        """A run of ``count`` directory-level ops on ``dir_id``.

        The first op classifies against the stored last access; the rest
        see the epoch just stamped and are recurrent.
        """
        if count <= 0:
            return
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        self._bump_heat(dir_id, count)
        self._visits[dir_id] += count
        prev = self._dir_last_access[dir_id]
        recurrent = count - 1
        if prev != NEVER_ACCESSED and self.epoch - prev <= self.recurrence_window:
            recurrent += 1
        self._recurrent[dir_id] += recurrent
        self._dir_last_access[dir_id] = self.epoch

    # ------------------------------------------------------------- epoch roll
    def end_epoch(self) -> None:
        """Close the current cutting window and roll the pattern stats."""
        self._grow()
        n = self.tree.n_dirs
        # Only touched dirs carry nonzero counters: fill zero arrays from
        # the touched set instead of converting the full per-dir lists.
        touched = sorted(self._touched_epoch)
        visits = np.zeros(n)
        recurrent = np.zeros(n)
        first = np.zeros(n)
        created = np.zeros(n)
        if touched:
            idx = np.array(touched, dtype=np.intp)
            visits[idx] = [self._visits[d] for d in touched]
            recurrent[idx] = [self._recurrent[d] for d in touched]
            first[idx] = [self._first[d] for d in touched]
            created[idx] = [self._created[d] for d in touched]
        self.last_epoch_mix = {
            "visits": int(visits.sum()),
            "recurrent": int(recurrent.sum()),
            "first": int(first.sum()),
            "created": int(created.sum()),
        }

        # Spatial correlation: a directory whose files are being visited for
        # the first time predicts first visits on a sibling too (paper §3.3:
        # "select one of its sibling subtrees with a certain probability and
        # increment its l_s").
        ls = first.copy()
        if self.sibling_probability > 0.0:
            active = np.nonzero(first)[0]
            stock = self.unvisited_array() if active.size else None
            for d in active:
                if self._rng.random() >= self.sibling_probability:
                    continue
                parent = self.tree.parent[d]
                if parent < 0:
                    continue
                siblings = self.tree.children[parent]
                if len(siblings) < 2:
                    continue
                # Spatial locality says the scan will reach a sibling that
                # still holds unvisited stock — prefer those.
                unvisited = [s for s in siblings if s != d and stock[s] > 0]
                pool = unvisited if unvisited else [s for s in siblings if s != d]
                if not pool:
                    continue
                pick = int(pool[self._rng.integers(len(pool))])
                # A sibling cannot receive more first visits than it has
                # unvisited stock: cap the bonus so small directories are
                # not predicted to carry a huge folder's load.
                ls[pick] += min(first[d], stock[pick])

        self._win.append((visits, recurrent, first, ls, created))
        self.win_visits += visits
        self.win_recurrent += recurrent
        self.win_first += first
        self.win_ls += ls
        self.win_created += created
        if len(self._win) > self.pattern_windows:
            old = self._win.popleft()
            # A grow() may have enlarged the running sums since `old` was
            # recorded; subtract over the old prefix only.
            for arr, name in zip(old, ("win_visits", "win_recurrent", "win_first",
                                       "win_ls", "win_created")):
                getattr(self, name)[: arr.size] -= arr

        for d in touched:
            self._visits[d] = 0
            self._recurrent[d] = 0
            self._first[d] = 0
            self._created[d] = 0
        # Decay only live heat entries; exact zeros stay exactly zero
        # either way, and a decayed positive value never reaches 0.0, so
        # the live set is monotone.
        self._heat_live.update(self._touched_epoch)
        self._touched_epoch.clear()
        heat = self.heat
        decay = self.heat_decay
        for d in self._heat_live:
            heat[d] = heat[d] * decay
        self.epoch += 1

    # -------------------------------------------------------------- snapshots
    def live_heat(self) -> tuple[list[float], int]:
        """Nonzero heat values (dir-id order) plus the total dir count.

        The sparse view the workload profiler wants: Gini / entropy /
        top-k over the heat distribution need the nonzero values and the
        population size, never a dense array. Iterates the live set in
        sorted order so downstream math is deterministic.
        """
        heat = self.heat
        values = [heat[d] for d in sorted(self._heat_live | self._touched_epoch)
                  if d < len(heat) and heat[d] > 0.0]
        return values, self.tree.n_dirs

    def heat_array(self) -> np.ndarray:
        """Decayed heat per directory (accesses add to it immediately)."""
        self._grow()
        heat = self.heat
        out = np.zeros(len(heat))
        for d in self._heat_live:
            out[d] = heat[d]
        for d in self._touched_epoch:
            out[d] = heat[d]
        return out

    def unvisited_array(self) -> np.ndarray:
        """Files per directory NOT accessed within the recurrence window.

        This is the sliding "unvisited stock" behind beta: a directory
        scanned long ago regains unvisited stock as its inodes' boolean
        queues drain, making it a spatial-locality candidate again.
        """
        tree = self.tree
        cutoff = self.epoch - self.recurrence_window
        # Never-touched directories contribute their full file count; for
        # touched directories the tree's incremental epoch histograms give
        # the recently-accessed tally in O(window) per dir, instead of
        # rescanning every file's last-access stamp each epoch.
        out = tree.n_files_array()
        for d, recent in tree.recently_accessed(cutoff):
            out[d] -= recent
        return out

    def pattern_arrays(self) -> dict[str, np.ndarray]:
        """Window sums for mIndex computation (copies, per-dir)."""
        self._grow()
        return {
            "visits": self.win_visits.copy(),
            "recurrent": self.win_recurrent.copy(),
            "first": self.win_first.copy(),
            "ls": self.win_ls.copy(),
            "created": self.win_created.copy(),
            "unvisited": self.unvisited_array(),
        }
