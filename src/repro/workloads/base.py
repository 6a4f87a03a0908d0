"""Client and workload abstractions.

Ops are plain tuples ``(kind, dir_id, file_idx, data_bytes)`` — this is the
simulator's hot path, so no per-op object overhead. ``data_bytes`` is only
exercised when the simulator runs with the data path enabled.

Clients are *closed-loop*: one outstanding op, next op issued when the
previous completes. Each client carries a stall probability (think-time
jitter): real clients drift apart because of OS scheduling and data-path
variance, and that drift is what makes balancing scan workloads profitable
— a lockstep scan would always hammer a single directory at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.cluster.router import ClientRoutingState
from repro.namespace.builder import BuiltNamespace
from repro.namespace.tree import NamespaceTree
from repro.util.rng import substream

__all__ = [
    "Op",
    "OP_STAT",
    "OP_CREATE",
    "OP_READDIR",
    "OP_OPEN",
    "Client",
    "RepeatOps",
    "Workload",
    "WorkloadInstance",
]

Op = tuple[int, int, int, int]  # (kind, dir_id, file_idx, data_bytes)

OP_STAT = 0  #: metadata read on a file (lookup/stat/getattr)
OP_CREATE = 1  #: create a new file in a directory
OP_READDIR = 2  #: directory-level metadata op
OP_OPEN = 3  #: open a file; data_bytes > 0 adds a data-path read/write


class RepeatOps:
    """An op stream of one tuple repeated ``left`` times.

    Iterates exactly like the equivalent generator, but exposes its
    structure: the columnar engine's tick-level fast path can skip
    ``count`` ops by decrementing :attr:`left` instead of pulling them
    one ``next()`` at a time (see :meth:`Client.advance_bulk`).
    """

    __slots__ = ("op", "left")

    def __init__(self, op: Op, count: int) -> None:
        self.op = op
        self.left = count

    def __iter__(self) -> "RepeatOps":
        return self

    def __next__(self) -> Op:
        if self.left <= 0:
            raise StopIteration
        self.left -= 1
        return self.op


class Client:
    """One closed-loop workload client."""

    __slots__ = (
        "cid",
        "group",
        "stall_prob",
        "rate",
        "routing",
        "ready_at",
        "done_at",
        "ops_done",
        "meta_ops",
        "data_ops",
        "data_bytes",
        "_ops",
        "current",
        "_rng",
        "_draws",
        "_draw_pos",
        "_pending",
        "_buf",
        "_buf_pos",
        "_exhausted",
        "_draw_abs",
        "_stalls",
        "_scanned_abs",
        "rate_tick",
        "rate_served",
    )

    def __init__(self, cid: int, ops: Iterator[Op], *, stall_prob: float = 0.0,
                 rate: float | None = None, seed: int = 0, group: str = "") -> None:
        if not 0.0 <= stall_prob < 1.0:
            raise ValueError("stall_prob must be in [0, 1)")
        if rate is not None and rate <= 0:
            raise ValueError("client rate must be positive")
        self.cid = cid
        self.group = group
        self.stall_prob = stall_prob
        #: max ops this client issues per tick (None = as fast as served).
        #: Finite rates model clients whose own CPU / network bounds demand
        #: — needed for benign-imbalance scenarios (paper Fig. 12b).
        self.rate = rate
        self.routing = ClientRoutingState()
        self.ready_at = 0
        self.done_at: int | None = None
        self.ops_done = 0
        self.meta_ops = 0
        self.data_ops = 0
        self.data_bytes = 0
        self._ops = ops
        self._rng = substream(seed, "client", cid)
        # Stall decisions come from pre-drawn batches: advance() runs once
        # per op, and one numpy scalar draw per op dominates its cost.
        # ``_pending`` holds blocks prefetched by batch lookahead; blocks
        # are always drawn as full 256-wide ``random(256)`` calls, so
        # prefetching changes *when* a block is drawn, never its values.
        self._draws = self._rng.random(256) if stall_prob > 0.0 else None
        self._draw_pos = 0
        self._pending: list[np.ndarray] = []
        # Stall lookahead over the draw stream, in absolute draw indices:
        # blocks are scanned for sub-threshold draws once each (one
        # ``nonzero`` per 256 draws) instead of re-sliced per run.
        self._draw_abs = 0
        self._stalls: list[int] = []
        self._scanned_abs = 0
        # Ops buffered ahead of ``current`` by :meth:`buffered_ops`;
        # advance() drains them before touching the generator again.
        self._buf: list[Op] = []
        self._buf_pos = 0
        self._exhausted = False
        self.current: Op | None = next(ops, None)
        self.rate_tick = -1
        self.rate_served = 0
        if self.current is None:
            self.done_at = 0

    @property
    def done(self) -> bool:
        return self.done_at is not None

    def advance(self, now: int) -> None:
        """Current op completed at tick ``now``; line up the next one."""
        self.ops_done += 1
        if self._buf_pos < len(self._buf):
            self.current = self._buf[self._buf_pos]
            self._buf_pos += 1
        else:
            if self._buf:
                self._buf = []
                self._buf_pos = 0
            self.current = next(self._ops, None)
        if self.current is None:
            self.done_at = now
            return
        if self._draws is not None:
            draw = self._draws[self._draw_pos]
            self._consume_draws(1)
            if draw < self.stall_prob:
                self.ready_at = now + 1

    # ---------------------------------------------------------- batched path
    # Bulk views of the stream: ops buffered ahead of it, stall draws
    # peekable in bulk (the turbo create tick cuts ticks with stall_scan). Every method is advance()-equivalent op for
    # op; the generator and the client RNG observe the same call sequences
    # either way (per-client substreams make early pulls value-identical).

    def buffered_ops(self, k: int) -> tuple[list[Op], int, int]:
        """Ensure ``k`` ops beyond ``current`` are buffered (or the stream
        is exhausted); returns ``(buffer, start, available)``.

        The engine scans ``buffer[start:start+available]``; ``available``
        is only smaller than ``k`` once the op stream has ended.
        """
        avail = len(self._buf) - self._buf_pos
        if avail < k and not self._exhausted:
            if self._buf_pos >= 256:
                del self._buf[: self._buf_pos]
                self._buf_pos = 0
            need = k - avail
            before = len(self._buf)
            self._buf.extend(islice(self._ops, need))
            got = len(self._buf) - before
            if got < need:
                self._exhausted = True
            avail += got
        return self._buf, self._buf_pos, avail

    def stall_scan(self, n: int) -> int:
        """Index of the first stalling draw among the next ``n``, or -1.

        Peeks without consuming; prefetches whole RNG blocks as needed.
        Each block is scanned for sub-threshold draws at most once (the
        hits live in :attr:`_stalls` as absolute draw indices), so
        repeated scans over the same stretch of the draw stream cost a
        queue peek, not a fresh array pass.
        """
        if self._draws is None or n <= 0:
            return -1
        abs_pos = self._draw_abs
        # Blocks are 256-aligned in absolute coordinates; the scalar path
        # consumes draws without scanning, so the scan cursor may lag the
        # consume cursor — never the current block's start.
        base = abs_pos - self._draw_pos
        if self._scanned_abs < base:
            self._scanned_abs = base
        st = self._stalls
        while st and st[0] < abs_pos:
            st.pop(0)
        target = abs_pos + n
        while not st and self._scanned_abs < target:
            self._scan_stall_block()
            while st and st[0] < abs_pos:
                st.pop(0)
        if st and st[0] < target:
            return st[0] - abs_pos
        return -1

    def _scan_stall_block(self) -> None:
        """Scan the next unscanned 256-draw block into :attr:`_stalls`."""
        k = self._scanned_abs >> 8
        kcur = (self._draw_abs - self._draw_pos) >> 8
        if k == kcur:
            block = self._draws
        else:
            i = k - kcur - 1
            while len(self._pending) <= i:
                self._pending.append(self._rng.random(256))
            block = self._pending[i]
        hits = np.nonzero(block < self.stall_prob)[0]  # type: ignore[operator]
        if hits.size:
            b = self._scanned_abs
            self._stalls.extend(b + int(h) for h in hits)
        self._scanned_abs += 256

    def _peek_draw(self, i: int) -> float:
        pos = self._draw_pos + i
        if pos < 256:
            return float(self._draws[pos])  # type: ignore[index]
        block_i, off = divmod(pos - 256, 256)
        while len(self._pending) <= block_i:
            self._pending.append(self._rng.random(256))
        return float(self._pending[block_i][off])

    def _consume_draws(self, n: int) -> None:
        self._draw_abs += n
        pos = self._draw_pos + n
        while pos >= 256:
            if self._pending:
                self._draws = self._pending.pop(0)
            else:
                self._draws = self._rng.random(256)
            pos -= 256
        self._draw_pos = pos

    def advance_run(self, count: int, now: int) -> None:
        """Complete ``count`` ops in one step — ``count`` advance() calls.

        Contract (the engine establishes it via :meth:`buffered_ops` and
        :meth:`stall_scan`): the ops exist, and no draw before the
        ``count``-th stalls. Only the last consumed draw may stall; a run
        that ends the stream consumes ``count - 1`` draws (the advance
        onto a ``None`` op never draws), exactly like the scalar path.
        """
        self.ops_done += count
        avail = len(self._buf) - self._buf_pos
        if count <= avail:
            self._buf_pos += count
            self.current = self._buf[self._buf_pos - 1]
            if self._draws is not None:
                last = self._peek_draw(count - 1)
                self._consume_draws(count)
                if last < self.stall_prob:
                    self.ready_at = now + 1
        else:
            # count == avail + 1 with the stream exhausted: final run.
            self._buf = []
            self._buf_pos = 0
            self.current = None
            self.done_at = now
            if self._draws is not None and count > 1:
                self._consume_draws(count - 1)

    def stream_left(self) -> int | None:
        """Ops left including ``current``, when knowable without pulling.

        Only bulk-skippable streams (:class:`RepeatOps`) can answer;
        generator-backed clients return None and take the buffered path.
        """
        ops = self._ops
        if type(ops) is not RepeatOps or self.current is None:
            return None
        return 1 + (len(self._buf) - self._buf_pos) + ops.left

    def advance_bulk(self, count: int, now: int) -> None:
        """Complete ``count`` ops in one step without buffering them.

        Same contract as :meth:`advance_run` — no draw before the
        ``count``-th stalls, and a run that ends the stream consumes
        ``count - 1`` draws — but the ops are skipped arithmetically, so
        the stream must be a :class:`RepeatOps` (every skipped op equals
        ``current``).
        """
        ops = self._ops
        assert type(ops) is RepeatOps
        left = self.stream_left()
        assert left is not None and count <= left
        self.ops_done += count
        if count < left:
            take = count
            buffered = len(self._buf) - self._buf_pos
            if buffered:
                used = buffered if buffered < take else take
                self._buf_pos += used
                if self._buf_pos >= len(self._buf):
                    self._buf = []
                    self._buf_pos = 0
                take -= used
            ops.left -= take
            self.current = ops.op
            if self._draws is not None:
                last = self._peek_draw(count - 1)
                self._consume_draws(count)
                if last < self.stall_prob:
                    self.ready_at = now + 1
        else:
            self._buf = []
            self._buf_pos = 0
            ops.left = 0
            self.current = None
            self.done_at = now
            if self._draws is not None and count > 1:
                self._consume_draws(count - 1)


@dataclass
class WorkloadInstance:
    """A materialized workload: shared namespace + ready-to-run clients."""

    name: str
    tree: NamespaceTree
    clients: list[Client]
    built: BuiltNamespace | None = None
    info: dict = field(default_factory=dict)


class Workload(ABC):
    """A workload recipe: namespace shape + per-client op streams.

    Subclasses implement :meth:`build_namespace` and :meth:`client_ops`.
    ``materialize`` wires them together; :class:`MixedWorkload` composes
    several recipes into one tree.
    """

    name: str = "abstract"
    #: fraction of metadata ops among all ops, from the paper's Table 1
    paper_meta_ratio: float = float("nan")

    def __init__(self, n_clients: int, *, jitter: float = 0.15,
                 client_rate: float | None = None) -> None:
        if n_clients <= 0:
            raise ValueError("need at least one client")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if client_rate is not None and client_rate <= 0:
            raise ValueError("client_rate must be positive")
        self.n_clients = n_clients
        self.jitter = jitter
        self.client_rate = client_rate

    @abstractmethod
    def build_namespace(self, tree: NamespaceTree, seed: int) -> BuiltNamespace:
        """Create this workload's directories/files inside ``tree``."""

    @abstractmethod
    def client_ops(self, built: BuiltNamespace, client_index: int, seed: int) -> Iterator[Op]:
        """The op stream for the ``client_index``-th client of this workload."""

    def make_clients(self, built: BuiltNamespace, seed: int, *,
                     first_cid: int = 0) -> list[Client]:
        rng = substream(seed, "workload", self.name, "jitter")
        stalls = rng.uniform(0.0, self.jitter, size=self.n_clients)
        return [
            Client(
                first_cid + i,
                self.client_ops(built, i, seed),
                stall_prob=float(stalls[i]),
                rate=self.client_rate,
                seed=seed,
                group=self.name,
            )
            for i in range(self.n_clients)
        ]

    def materialize(self, seed: int = 0) -> WorkloadInstance:
        tree = NamespaceTree()
        built = self.build_namespace(tree, seed)
        clients = self.make_clients(built, seed)
        return WorkloadInstance(self.name, tree, clients, built)


def interleave_passes(*passes: Iterator[Op]) -> Iterator[Op]:
    """Run op passes back to back (helper for scan-then-read workloads)."""
    for p in passes:
        yield from p


def zipf_like_sizes(rng: np.random.Generator, n: int, mean_bytes: float) -> np.ndarray:
    """Per-file sizes with a realistic long tail, mean ~= ``mean_bytes``."""
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    return np.maximum(1, (raw / raw.mean() * mean_bytes)).astype(np.int64)
