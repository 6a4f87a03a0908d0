"""Per-layer timing from outside: wrap public calls at layer boundaries.

Nothing under ``src/`` knows it is being measured. For the length of a
traced run, :class:`Tracer` replaces class, property and module
attributes with timing wrappers and puts every original back afterwards.
Each wrapped call is counted and timed; its *self* time is its duration
minus the time its wrapped callees took. Calls at layer boundaries
(once per tick or per epoch) also leave a span — name, start, end and
parent span — kept in memory and written out as a Chrome/Perfetto trace
when the benchmark ends. Per-op calls (routing, stats batches, tree
touches, client advance) are only counted and summed, since one span per
op would cost more than the op.

Timing stays outside the balancers: the wrappers sit on the attributes,
so the policy code the ``policy-purity`` lint proves clock-free is the
code that runs.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections.abc import Callable

import repro.core.balancer as lunule_module
from repro.cluster.migration import Migrator
from repro.cluster.router import Router
from repro.cluster.simulator import Simulator
from repro.cluster.stats import AccessStats
from repro.core.initiator import MigrationInitiator
from repro.core.selector import SubtreeSelector
from repro.core.view import ClusterView
from repro.kernel.authtable import AuthTable
from repro.kernel.engine import ColumnarEngine
from repro.namespace.subtree import AuthorityMap
from repro.namespace.tree import NamespaceTree
from repro.workloads.base import Client

__all__ = ["Tracer", "BOUNDARIES", "layer_totals", "per_layer", "write_spans"]

SPAN = True
COUNT = False

#: (owner, attribute, probe name, span?) — the measured layer boundaries
BOUNDARIES: list[tuple[object, str, str, bool]] = [
    (ColumnarEngine, "serve_tick", "kernel.serve_tick", SPAN),
    (AuthTable, "refresh", "kernel.authtable_refresh", SPAN),
    (AccessStats, "record_file_batch", "stats.record_batch", COUNT),
    (AccessStats, "record_dir_batch", "stats.record_batch", COUNT),
    (AccessStats, "record_create_batch", "stats.record_batch", COUNT),
    (AccessStats, "end_epoch", "stats.end_epoch", SPAN),
    (NamespaceTree, "touch_file_batch", "namespace.touch_batch", COUNT),
    (NamespaceTree, "touch_file_range", "namespace.touch_batch", COUNT),
    (AuthorityMap, "merge_redundant_roots", "namespace.housekeeping", SPAN),
    (AuthorityMap, "merge_uniform_frags", "namespace.housekeeping", SPAN),
    (Router, "route", "router.route", COUNT),
    (Client, "advance", "workloads.client_advance", COUNT),
    (Client, "advance_run", "workloads.client_advance", COUNT),
    (Client, "advance_bulk", "workloads.client_advance", COUNT),
    (Client, "buffered_ops", "workloads.client_advance", COUNT),
    (Simulator, "snapshot_view", "policy.snapshot_view", SPAN),
    (lunule_module.LunuleBalancer, "on_epoch", "policy.on_epoch", SPAN),
    (MigrationInitiator, "plan", "policy.initiator", SPAN),
    # the name the balancer module imported, which is the one it calls
    (lunule_module, "candidates_for", "policy.candidates", SPAN),
    (SubtreeSelector, "select", "policy.selector", SPAN),
    (ClusterView, "mindex", "policy.mindex", SPAN),
    (Simulator, "apply_plan", "sim.apply_plan", SPAN),
    (Migrator, "tick", "migration.tick", SPAN),
]


class Tracer:
    """Counts, summed time, self time and spans for wrapped calls.

    Use as a context manager: the wrappers are installed on entry and the
    original attributes restored on exit, even if the run raises.
    """

    def __init__(self, boundaries: list[tuple[object, str, str, bool]] | None = None,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.boundaries = BOUNDARIES if boundaries is None else boundaries
        self.clock = clock
        #: probe name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        #: (name, start ns, end ns, parent span index or -1)
        self.spans: list[tuple[str, int, int, int] | None] = []
        # one entry per open wrapped call: [callee ns, enclosing span index]
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, span: bool) -> Callable:
        clock = self.clock
        stack = self._stack
        spans = self.spans
        tot = self.totals.setdefault(name, [0, 0, 0])

        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[sid] = (name, t0, t1, parent)

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def __enter__(self) -> Tracer:
        for owner, attr, name, span in self.boundaries:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, property):
                wrapped: object = property(self._wrap(original.fget, name, span))
            else:
                wrapped = self._wrap(original, name, span)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e9


def layer_totals(tracer: Tracer, traced, plain) -> dict[str, float]:
    """One traced run's additive per-layer quantities (``traced`` and
    ``plain`` are the RunRecords of the traced run and its plain twin)."""
    t = tracer
    checked = traced.checked
    return {
        "kernel.serve_tick_s": t.seconds("kernel.serve_tick"),
        "kernel.authtable_refresh_s": t.seconds("kernel.authtable_refresh"),
        "kernel.authtable_refresh_calls": t.calls("kernel.authtable_refresh"),
        "stats.record_batch_s": t.seconds("stats.record_batch"),
        "stats.record_batch_calls": t.calls("stats.record_batch"),
        "stats.end_epoch_s": t.seconds("stats.end_epoch"),
        "namespace.touch_batch_s": t.self_seconds("namespace.touch_batch"),
        "namespace.housekeeping_s": t.seconds("namespace.housekeeping"),
        "namespace.build_s": traced.build_s,
        "sim.construct_s": traced.construct_s,
        "router.route_calls": t.calls("router.route"),
        "router.route_s": t.seconds("router.route"),
        "workloads.client_advance_s": t.seconds("workloads.client_advance"),
        "policy.snapshot_view_s": t.seconds("policy.snapshot_view"),
        "policy.on_epoch_s": t.seconds("policy.on_epoch"),
        "policy.initiator_s": t.seconds("policy.initiator"),
        "policy.candidates_s": t.seconds("policy.candidates"),
        "policy.selector_s": t.seconds("policy.selector"),
        "policy.mindex_s": t.seconds("policy.mindex"),
        "sim.apply_plan_s": t.seconds("sim.apply_plan"),
        "migration.tick_s": t.seconds("migration.tick"),
        "migration.committed": checked["committed"],
        "migration.aborted": checked["aborted"],
        "obs.trace_events": checked["trace_events"],
        # bases of the ratios below
        "meta_ops": traced.meta_ops,
        "planned": checked["planned"],
        "traced_wall_s": traced.setup_s + traced.run_s,
        "plain_wall_s": plain.setup_s + plain.run_s,
    }


RATIOS = ("kernel.ops_per_run", "kernel.speedup_vs_scalar",
          "migration.commit_ratio", "trace.overhead")


def per_layer(total: dict[str, float], speedup_vs_scalar: float) -> dict[str, dict]:
    """The per-layer metrics, with units, from :func:`layer_totals` summed
    over inputs."""
    out = {k: v for k, v in total.items()
           if k not in ("meta_ops", "planned", "traced_wall_s", "plain_wall_s")}
    batches = total["stats.record_batch_calls"]
    out["kernel.ops_per_run"] = total["meta_ops"] / batches if batches else 0.0
    out["kernel.speedup_vs_scalar"] = speedup_vs_scalar
    out["migration.commit_ratio"] = (total["migration.committed"] / total["planned"]
                                     if total["planned"] else 0.0)
    out["trace.overhead"] = total["traced_wall_s"] / total["plain_wall_s"]
    return {k: {"value": v,
                "unit": "s" if k.endswith("_s") else "ratio" if k in RATIOS else "count"}
            for k, v in out.items()}


def write_spans(path: pathlib.Path, runs: list[tuple[str, Tracer]]) -> int:
    """Write every traced run's spans as one Chrome/Perfetto trace (one
    process per run, microsecond timestamps); returns the span count."""
    events: list[dict] = []
    for pid, (label, tracer) in enumerate(runs):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        base = min((s[1] for s in tracer.spans if s is not None), default=0)
        for i, s in enumerate(tracer.spans):
            if s is None:
                continue
            name, t0, t1, parent = s
            events.append({"ph": "X", "name": name, "pid": pid, "tid": 0,
                           "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                           "args": {"id": i, "parent": parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
                    encoding="utf-8")
    return sum(1 for e in events if e["ph"] == "X")
