"""The serve engine: one per-op client turn plus the turbo create tick.

A tick drains the ready clients round-robin against per-MDS capacity
credits. Each client's turn (:meth:`ColumnarEngine._serve_turn`) serves
up to ``serve_quantum`` ops one at a time — route, capacity check,
forward charges, MDS credit, stats, data path, client advance — and this
one turn is the serve semantics of both ``SimConfig.engine`` settings.

``engine="columnar"`` (the default) adds a single fast path, the turbo
tick (:meth:`ColumnarEngine._turbo_tick`), for the homogeneous regime:
every active client a create stream into its own directory (an
mdtest-style create storm, the serve path's worst case). For warm-cache
clients the tick collapses to integer arithmetic: client cuts come from the
pre-scanned stall queue, round-robin capacity contention is emulated
over per-directory fragment-owner cycles without touching an op, and
each client gets exactly one batched apply (MDS credits, stats, stream
skip) per tick. Clients whose cache is cold or stale take their turns
through the per-op turn in the same round-robin sequence until those
turns have warmed it, and are emulated from then on. Any client
that breaks the regime — a data op, a rate limit, a shared or non-stream
directory — sends the tick down the plain round-robin loop.
``engine="scalar"`` is the same engine with the turbo tick off: the
reference the differential tests compare against.

An earlier design also batched same-directory op runs inside the round
loop. It paid on no shape: on the create benchmarks turbo ticks carry
almost every op (mdtest: 592,672 of 600,000), and on the read workloads
its runs averaged under four ops, which made it 3.7-7.6x slower than
the per-op turn on web, mixed and cnn (docs/PERFORMANCE.md has the
measurements).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cluster.mds import MDS
from repro.cluster.osd import OsdPool
from repro.cluster.router import Router
from repro.cluster.stats import AccessStats
from repro.kernel.authtable import AuthTable
from repro.namespace.tree import NamespaceTree
from repro.workloads.base import OP_CREATE, OP_READDIR, Client

__all__ = ["ColumnarEngine"]

#: a multi-owner dir's fragment-owner cycle ``(P, starts, lens, owners)``:
#: the run-length encoding of its ``P`` frag owners in create order
_Cycle = tuple[int, list[int], list[int], list[int]]


class ColumnarEngine:
    """The body of ``Simulator._serve_tick``."""

    def __init__(self, *, clients: list[Client], mdss: list[MDS],
                 router: Router, tree: NamespaceTree, stats: AccessStats,
                 osd: OsdPool | None, data_busy: set[int],
                 serve_quantum: int, forward_charge: float,
                 data_window: float, turbo: bool) -> None:
        # live references — the simulator mutates these lists/sets in place
        self.clients = clients
        self.mdss = mdss
        self.router = router
        self.tree = tree
        self.stats = stats
        self.osd = osd
        self.data_busy = data_busy
        self.serve_quantum = serve_quantum
        self.forward_charge = forward_charge
        self.data_window = data_window
        #: try the turbo create tick before the round-robin loop
        self.turbo = turbo
        self.table = AuthTable(router.authmap)
        self._wait = 0
        # cid -> ((dir, frag generation, lease expiry), lo, hi): fragment
        # keys for create indices in [lo, hi) verified warm; lets the fast
        # path probe each key once instead of re-probing every tick
        self._warm: dict[int, tuple[tuple[int, int, int], int, int]] = {}

    # ------------------------------------------------------------------ tick
    def serve_tick(self, now: int) -> int:
        """Serve one tick; returns the tick's queueing-delay count."""
        data_busy = self.data_busy
        active = [
            c for c in self.clients
            if c.done_at is None and c.ready_at <= now and c.cid not in data_busy
        ]
        self._wait = 0
        if self.turbo and active and self._turbo_tick(active, now):
            return self._wait
        quantum = self.serve_quantum
        while active:
            survivors: list[Client] = []
            for c in active:
                if c.rate is not None:
                    if c.rate_tick != now:
                        c.rate_tick = now
                        c.rate_served = 0
                    elif c.rate_served >= c.rate:
                        # rate-exhausted for this tick: skip the client AND
                        # leave it out of survivors, so the drain loop never
                        # rescans it in later quantum rounds of this tick
                        continue
                if self._serve_turn(c, now, quantum):
                    survivors.append(c)
            active = survivors
        return self._wait

    # ------------------------------------------------------------- turbo tick
    def _turbo_tick(self, active: list[Client], now: int) -> bool:
        """Serve a homogeneous pure tick without materializing any op.

        Eligible when every active client is an unlimited-rate create
        stream (:class:`~repro.workloads.base.RepeatOps`) into its own
        directory, with no data path in play. Warm-cache clients — dir
        cache current, every touched fragment key cached at its live
        owner — have a proven no-op ``route`` for every op of the tick,
        so their only cross-client coupling is MDS capacity: their turns
        are emulated in exact round-robin order against the live credit
        columns, and every per-client side effect is applied once, in a
        single batched step after the race. Clients whose cache is cold
        or stale (the first post-migration tick) take their turns through
        :meth:`_serve_turn` in the same round-robin sequence — credits
        stay live precisely so both kinds of turn observe each other —
        until those turns' ``route`` calls have warmed the cache for the
        rest of the tick; from then on they are emulated too.
        Returns False — with no simulation state touched — if any client
        breaks the regime (rate limits, data ops, shared or non-stream
        directories).
        """
        if self.osd is not None:
            return False
        k = len(active)
        ds = [0] * k  # target directory per client
        dirs: set[int] = set()
        for i, c in enumerate(active):
            if c.rate is not None or c.stream_left() is None:
                return False
            kind, d, _idx, nb = c.current  # type: ignore[misc]
            if kind != OP_CREATE or nb != 0 or d in dirs:
                return False
            dirs.add(d)
            ds[i] = d
        table = self.table
        table.refresh()
        router = self.router
        if router.lease_ttl > 0:
            # route() expires leases inside every client's first op of the
            # tick; checking them up front (idempotent within a tick, and
            # per-client state only) is what lets warm clients skip route()
            for c in active:
                router.check_lease(c.routing, now)
        nfs = [0] * k  # file count when emulation starts (first create index)
        n_cs = [0] * k  # tick cut: ops until stall / stream end
        cycles: list[_Cycle | None] = [None] * k  # multi-owner dirs only
        owners1 = [0] * k  # the single owner when cycles[i] is None
        slow = [False] * k  # cold/stale cache: served by the per-op turn
        for i, c in enumerate(active):
            plan = self._warm_plan(c, ds[i])
            if plan is None:
                slow[i] = True
            else:
                nfs[i], n_cs[i], owners1[i], cycles[i] = plan
        # -- the round-robin capacity race against live credit columns ------
        # Emulated turns debit MDS.remaining in place (exact: stepwise and
        # batched subtraction of integer credits agree in IEEE-754), so
        # interleaved slow-client turns — which route, forward-charge and
        # serve against the same columns — observe them and vice versa.
        mdss = self.mdss
        cnt = [0] * len(mdss)
        served = [0] * k
        wait = 0
        order = list(range(k))
        if not any(slow):
            # capacity pre-check: when every MDS can absorb this tick's
            # whole demand (remaining >= demand, i.e. no op ever finds its
            # owner below one credit), no client blocks — round-robin
            # interleaving is unobservable and the race collapses to one
            # batched debit per MDS
            demand = [0] * len(mdss)
            frag_tot = table.frag_tot
            for i in range(k):
                n_c = n_cs[i]
                cyc = cycles[i]
                if cyc is None:
                    demand[owners1[i]] += n_c
                else:
                    P, starts, lens, sowners = cyc
                    full, rem_n = divmod(n_c, P)
                    if full:
                        for m, tno in frag_tot[ds[i]].items():
                            demand[m] += full * tno
                    if rem_n:
                        pos = nfs[i] % P
                        si = bisect_right(starts, pos) - 1
                        off = pos - starts[si]
                        nseg = len(starts)
                        while rem_n > 0:
                            take = lens[si] - off
                            if take > rem_n:
                                take = rem_n
                            demand[sowners[si]] += take
                            rem_n -= take
                            off = 0
                            si += 1
                            if si == nseg:
                                si = 0
            if all(n <= int(mdss[m].remaining)
                   for m, n in enumerate(demand) if n):
                for m, n in enumerate(demand):
                    if n:
                        mdss[m].remaining -= n
                        cnt[m] = n
                served = n_cs
                order = []
        quantum = self.serve_quantum
        while order:
            nxt: list[int] = []
            single = len(order) == 1
            budget = (1 << 30) if single else quantum
            for i in order:
                if slow[i]:
                    c = active[i]
                    if self._serve_turn(c, now, budget):
                        # the turn's route() calls may have warmed the
                        # cache: emulate the client's rest of the tick
                        plan = self._warm_plan(c, ds[i])
                        if plan is not None:
                            slow[i] = False
                            nfs[i], n_cs[i], owners1[i], cycles[i] = plan
                        nxt.append(i)
                    continue
                left = n_cs[i] - served[i]
                slice_n = left if single or left < quantum else quantum
                cyc = cycles[i]
                if cyc is None:
                    m = owners1[i]
                    md = mdss[m]
                    r = md.remaining
                    if r < 1.0:
                        wait += 1
                        continue
                    t = slice_n if r >= slice_n else int(r)
                    md.remaining = r - t
                    cnt[m] += t
                    served[i] += t
                    if t < slice_n:
                        wait += 1
                        continue
                else:
                    # walk same-owner segments of the fragment cycle; ops
                    # within a segment debit one MDS, so a whole segment
                    # (or the owner's credit floor) advances in one step
                    P, starts, lens, sowners = cyc
                    pos = (nfs[i] + served[i]) % P
                    si = bisect_right(starts, pos) - 1
                    off = pos - starts[si]
                    nseg = len(starts)
                    t = 0
                    blocked = False
                    while t < slice_n:
                        m = sowners[si]
                        md = mdss[m]
                        r = md.remaining
                        if r < 1.0:
                            blocked = True
                            break
                        need = slice_n - t
                        seg_avail = lens[si] - off
                        take = seg_avail if seg_avail < need else need
                        if r < take:
                            # the owner's credits run dry inside this
                            # segment: its next op blocks the client
                            take = int(r)
                            md.remaining = r - take
                            cnt[m] += take
                            t += take
                            blocked = True
                            break
                        md.remaining = r - take
                        cnt[m] += take
                        t += take
                        off += take
                        if off == lens[si]:
                            off = 0
                            si += 1
                            if si == nseg:
                                si = 0
                    served[i] += t
                    if blocked:
                        wait += 1
                        continue
                if served[i] < n_cs[i]:
                    nxt.append(i)
            order = nxt
        # -- apply: one batched step per MDS and per client ------------------
        for m, n in enumerate(cnt):
            if n:
                md = mdss[m]
                md.served_epoch += n
                md.served_total += n
        tree = self.tree
        stats = self.stats
        for i, c in enumerate(active):
            srv = served[i]
            if srv == 0:
                continue
            c.meta_ops += srv
            d = ds[i]
            first = tree.add_files(d, srv)
            assert first == nfs[i]
            stats.record_create_batch(d, first, srv)
            c.advance_bulk(srv, now)
        self._wait += wait
        return True

    def _warm_plan(self, c: Client, d: int
                   ) -> tuple[int, int, int, _Cycle | None] | None:
        """How the turbo tick emulates ``c``'s creates into ``d`` from now.

        Returns ``(first create index, ops until stall or stream end,
        single owner, owner cycle or None)``, or None while ``c``'s cache
        is cold or stale for this window — ``route`` could then hop or
        rewrite a cached owner, so the client is served op by op.
        """
        auth = self.router.authmap.resolve_dir(d)[0]
        if c.routing.auth_cache.get(d) != auth:
            return None
        left = c.stream_left()
        assert left is not None
        cut = c.stall_scan(left - 1)
        n_c = left if cut < 0 else cut + 1
        nf = self.tree.n_files[d]
        table = self.table
        seq = table.frag_seq.get(d)
        if seq is None:
            return nf, n_c, auth, None
        if not self._frag_window_warm(c, d, nf, n_c, seq, table.frag_gen[d]):
            return None
        uniform = table.frag_info[d][2]
        if uniform is not None:
            return nf, n_c, uniform, None
        starts, lens, sowners = table.frag_rle[d]
        return nf, n_c, 0, (len(seq), starts, lens, sowners)

    def _frag_window_warm(self, c: Client, d: int, nf: int, n_c: int,
                          seq: list[int], gen: int) -> bool:
        """Is every fragment key this tick's create window can touch warm?

        Warm means *present and equal to the live owner*: ``route`` would
        neither hop nor change the cached value. Verified coverage is
        remembered per client as an absolute create-index interval — keys
        repeat every cycle, so a covered interval one cycle long means
        every key of the dir is warm — and extended incrementally: each
        tick probes only the indices past the previous high-water mark,
        amortizing verification to one probe per created file. Coverage
        resets when the dir's fragment-ownership generation or the
        client's lease arming moves (a lease expiry clears the whole
        cache; a migration can silently re-own fragments).
        """
        routing = c.routing
        key = (d, gen, routing.lease_expiry)
        P = len(seq)
        st = self._warm.get(c.cid)
        if st is not None and st[0] == key and st[1] <= nf <= st[2]:
            lo, hi = st[1], st[2]
            if hi - lo >= P or nf + n_c <= hi:
                return True
            start = hi
        else:
            lo = start = nf
        cache = routing.auth_cache
        mask = P - 1
        end = nf + n_c
        if end > lo + P:  # one full cycle of coverage checks every key
            end = lo + P
        fn = start & mask
        for j in range(start, end):
            if cache.get((d, fn)) != seq[fn]:
                self._warm[c.cid] = (key, lo, j)
                return False
            fn = (fn + 1) & mask
        self._warm[c.cid] = (key, lo, end)
        return True

    # ------------------------------------------------------------ client turn
    def _serve_turn(self, c: Client, now: int, budget: int) -> bool:
        """Serve up to ``budget`` ops of ``c``, one at a time.

        This is the reference serve semantics: route, capacity check,
        forward charges, MDS credit, stats, data path, client advance.
        Returns True while ``c`` is still ready (it rejoins the next
        round); False once it is out for the rest of the tick — blocked
        on capacity (one tick of queueing delay), stalled, done, data-
        bound or rate-exhausted.
        """
        mdss = self.mdss
        route = self.router.route
        tree = self.tree
        stats = self.stats
        osd = self.osd
        forward_charge = self.forward_charge
        for _ in range(budget):
            kind, d, idx, nbytes = c.current  # type: ignore[misc]
            ridx = tree.n_files[d] if kind == OP_CREATE else idx
            serving, hops = route(c.routing, d, ridx, now)
            mds = mdss[serving]
            if mds.remaining < 1.0:
                # ready but unserved for the rest of this tick: one tick
                # of queueing delay for this client
                self._wait += 1
                return False
            for h in hops:
                hop = mdss[h]
                hop.remaining -= forward_charge
                hop.forwards_handled += 1
            mds.serve()
            c.meta_ops += 1
            if c.rate is not None:
                c.rate_served += 1
            if kind == OP_CREATE:
                new_idx = tree.add_files(d, 1)
                stats.record_file_access(d, new_idx, created=True)
            elif kind == OP_READDIR or idx < 0:
                stats.record_dir_access(d)
            else:
                stats.record_file_access(d, idx)
            if nbytes > 0:
                c.data_ops += 1
                c.data_bytes += nbytes
                if osd is not None:
                    osd.start(c.cid, float(nbytes))
                    # Data reads pipeline behind metadata; the client
                    # stalls only once it outruns the OSD pool by more
                    # than its prefetch window.
                    if osd.outstanding(c.cid) > self.data_window:
                        self.data_busy.add(c.cid)
                        c.advance(now)
                        return False
            c.advance(now)
            if c.done_at is not None:
                if osd is not None and osd.outstanding(c.cid) > 0.0:
                    self.data_busy.add(c.cid)
                return False
            if c.ready_at > now or (c.rate is not None and c.rate_served >= c.rate):
                return False
        return True
