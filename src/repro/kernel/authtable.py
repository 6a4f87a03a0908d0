"""Fragment-owner tables for the turbo create tick, keyed to the map version.

Directory authority itself comes from
:meth:`~repro.namespace.subtree.AuthorityMap.resolve_dir`, whose
per-version cache :class:`~repro.cluster.router.Router` already fills on
every request. What the turbo tick needs on top is, per *fragmented*
directory, the owner of every fragment in create order — so capacity
emulation can walk whole same-owner segments instead of routing op by
op. :meth:`AuthTable.refresh` rebuilds those tables when the authority
map's version counter moves (migration commits, splits, pins, merges);
during a serve phase authority is constant by construction (the
migrator and the balancer both run outside ``_serve_tick``).

The table deliberately holds nothing per directory: a refresh follows
every subtree-root change, so its cost must scale with the fragmented
dirs, not with the namespace (``docs/PERFORMANCE.md`` measures a dense
dir→auth variant on a wide namespace).
"""

from __future__ import annotations

from repro.namespace.subtree import AuthorityMap

__all__ = ["AuthTable"]

#: per-directory fragment info: ``(bits, owners, uniform_owner_or_None)``
FragInfo = dict[int, tuple[int, dict[int, int], int | None]]


class AuthTable:
    """Per-fragmented-dir owner tables, rebuilt when authority changes."""

    def __init__(self, authmap: AuthorityMap) -> None:
        self.authmap = authmap
        self._version = -1
        #: fragmented dirs with their live owner maps and, when every frag
        #: shares one owner, that owner (the uniform fast-path predicate)
        self.frag_info: FragInfo = {}
        #: dir -> dense owner-per-frag_no list (``len == 2**bits``, holes
        #: filled with the dir authority). The tick-level fast path walks
        #: this cyclically — create streams visit frag_no ``(n_files + i)
        #: & mask`` — instead of two dict gets per op.
        self.frag_seq: dict[int, list[int]] = {}
        #: dir -> run-length encoding of :attr:`frag_seq`:
        #: ``(starts, lens, owners)`` parallel lists over the cycle.
        #: Exported fragments cluster, so capacity emulation walks a few
        #: same-owner segments per quantum slice instead of every op.
        self.frag_rle: dict[int, tuple[list[int], list[int], list[int]]] = {}
        #: dir -> owner -> fragments owned per full cycle (column sums of
        #: :attr:`frag_seq`; lets per-tick demand accounting charge whole
        #: cycles at once)
        self.frag_tot: dict[int, dict[int, int]] = {}
        #: dir -> generation counter, bumped only when the dir's fragment
        #: ownership (or its defaulting authority) actually changes — the
        #: authority-map version moves on every migration commit, which
        #: would needlessly invalidate warm-cache stamps for every dir
        self.frag_gen: dict[int, int] = {}
        #: dir -> (bits, owners snapshot, base) the tables were built from
        self._frag_src: dict[int, tuple[int, dict[int, int], int]] = {}

    def refresh(self) -> None:
        """Bring the fragment tables up to the authority map's version."""
        authmap = self.authmap
        if authmap.version == self._version:
            return
        frag_src = self._frag_src
        seen: set[int] = set()
        for d in authmap.fragmented_dirs():
            seen.add(d)
            frag = authmap.frag_owners(d)
            assert frag is not None
            bits, owners = frag
            base = authmap.resolve_dir(d)[0]
            prev = frag_src.get(d)
            if (prev is not None and prev[0] == bits and prev[2] == base
                    and prev[1] == owners):
                continue  # ownership content unchanged: keep the tables
            frag_src[d] = (bits, dict(owners), base)
            self.frag_gen[d] = self.frag_gen.get(d, 0) + 1
            distinct = set(owners.values())
            if len(owners) < (1 << bits):
                distinct.add(base)  # absent frags default to the dir auth
            uniform = distinct.pop() if len(distinct) == 1 else None
            self.frag_info[d] = (bits, owners, uniform)
            seq = [owners.get(fn, base) for fn in range(1 << bits)]
            self.frag_seq[d] = seq
            starts: list[int] = [0]
            lens: list[int] = []
            rle_owners: list[int] = [seq[0]]
            run = 1
            for fn in range(1, len(seq)):
                if seq[fn] == rle_owners[-1]:
                    run += 1
                else:
                    lens.append(run)
                    starts.append(fn)
                    rle_owners.append(seq[fn])
                    run = 1
            lens.append(run)
            self.frag_rle[d] = (starts, lens, rle_owners)
            tot: dict[int, int] = {}
            for owner, fcount in zip(rle_owners, lens):
                tot[owner] = tot.get(owner, 0) + fcount
            self.frag_tot[d] = tot
        if len(seen) != len(self.frag_info):
            for d in [x for x in self.frag_info if x not in seen]:
                del self.frag_info[d], self.frag_seq[d]
                del self.frag_rle[d], self.frag_tot[d], frag_src[d]
                self.frag_gen[d] = self.frag_gen.get(d, 0) + 1
        self._version = authmap.version
