"""The long-running simulator service behind ``repro serve``.

:class:`SimulatorService` wraps the incremental simulator protocol
(``Simulator.start`` / ``step_tick`` / ``finish``) in a
start/pause/step/stop lifecycle plus an asyncio driver (:meth:`drive`)
that advances the simulation in bounded tick slices, yielding to the
event loop between slices so the HTTP control plane stays responsive.

Determinism contract: driving a service to completion with zero config
mutations executes exactly the statement sequence of a batch
``Simulator.run`` — same seed, same decisions, byte-identical decision
trace (``tests/test_serve_service.py`` golden-gates this).

Live reconfiguration: mutations arrive from any thread via
:meth:`queue_mutations` (validated immediately) and are applied at the
next epoch boundary — the only point where the balancing interval, the
initiator tunables or the balancer itself can change without tearing an
epoch in progress. Every applied mutation is minted as a
``config_changed`` trace event with its own decision id, so
``repro explain`` shows which knob change preceded which migration.

Thread model: one lock guards the simulator; the driver holds it for one
tick slice at a time, HTTP handlers take it briefly to snapshot status,
metrics or the time series. Trace events cross to streaming consumers
through the bounded :class:`~repro.serve.bus.EventBus` (drop-on-slow,
never blocking the simulation thread).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.balancers import make_balancer
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_simulator
from repro.obs.events import OUTCOME_VERDICTS, ConfigChanged
from repro.obs.outcomes import build_ledger
from repro.obs.prom import render_openmetrics
from repro.serve.bus import EventBus
from repro.serve.sanitizer import guard_writes, sanitize_lock

__all__ = ["MutationError", "SimulatorService", "STATES"]

#: service lifecycle: created -> running <-> paused -> done | stopped
STATES = ("created", "running", "paused", "done", "stopped")

#: initiator tunables settable via POST /config, with their coercions
_INITIATOR_KEYS: dict[str, type] = {
    "if_threshold": float,
    "deviation_threshold": float,
    "cap_fraction": float,
    "regression_window": int,
    "use_urgency": bool,
}


class MutationError(ValueError):
    """A ``POST /config`` mutation that can never be applied (bad key,
    uncoercible value, unknown balancer, or a knob the running balancer
    does not have)."""


class SimulatorService:
    """One simulator, driven incrementally, observable and pokeable."""

    def __init__(self, cfg: ExperimentConfig, *,
                 balancer_kwargs: dict | None = None, chaos: Any = None,
                 tick_slice: int = 64, rate: float | None = None,
                 bus_capacity: int = 1024) -> None:
        if tick_slice <= 0:
            raise ValueError("tick_slice must be positive")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive ticks/second (or None)")
        self.cfg = cfg
        self.sim = build_simulator(cfg, balancer_kwargs=balancer_kwargs,
                                   chaos=chaos)
        self.tick_slice = tick_slice
        self.rate = rate
        self.state = "created"  # guarded-by: self.lock
        self.result = None  # guarded-by: self.lock
        self.lock = sanitize_lock(threading.RLock(), "service.lock")
        self.bus = EventBus(
            capacity=bus_capacity,
            drop_counter=self.sim.metrics.counter("serve.events_dropped"))
        self.sim.trace.add_listener(self._tap)
        self._pending: list[tuple[str, object]] = []  # guarded-by: self.lock
        self.mutations_applied = 0  # guarded-by: self.lock
        self._stop_requested = False  # guarded-by: self.lock
        #: ticks granted to :meth:`step` while paused
        self._step_budget = 0  # guarded-by: self.lock
        #: live cost/benefit ledger summary, rebuilt at epoch boundaries
        #: from the retained trace (``repro.obs.outcomes``)
        self._ledger_cache: dict | None = None  # guarded-by: self.lock
        # under REPRO_SANITIZE=1 the runtime checks the same discipline
        # the guarded-by lint proves statically
        guard_writes(self, self.lock,
                     ("state", "result", "_pending", "mutations_applied",
                      "_stop_requested", "_step_budget", "_ledger_cache"))

    # ------------------------------------------------------------- event tap
    def _tap(self, event: object) -> None:
        # runs inside TraceLog.emit on the simulation thread; the bus
        # contract (bounded, drop-on-full) keeps this non-blocking
        self.bus.publish(event)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Apply the balancer's setup plan; the service becomes runnable."""
        with self.lock:
            if self.state != "created":
                return
            self.sim.start()
            self.state = "running"

    def pause(self) -> None:
        with self.lock:
            if self.state == "running":
                self.state = "paused"

    def resume(self) -> None:
        with self.lock:
            if self.state == "paused":
                self.state = "running"
                self._step_budget = 0

    def step(self, ticks: int = 1) -> None:
        """Grant ``ticks`` single-step ticks to a paused service."""
        if ticks <= 0:
            raise ValueError("step ticks must be positive")
        with self.lock:
            if self.state != "paused":
                raise MutationError("step requires a paused service")
            self._step_budget += ticks

    def request_stop(self) -> None:
        """Ask the driver to wind down (graceful shutdown path)."""
        with self.lock:
            self._stop_requested = True

    @property
    def finished(self) -> bool:
        with self.lock:
            return self.state in ("done", "stopped")

    def current_state(self) -> str:
        """The lifecycle state, snapshotted under the lock (HTTP handler
        threads must not read :attr:`state` bare)."""
        with self.lock:
            return self.state

    # --------------------------------------------------------------- driving
    def _advance(self, ticks: int) -> bool:  # holds-lock: self.lock
        """Advance up to ``ticks``; False once the simulation is over.

        Caller must hold :attr:`lock`. Epoch boundaries are detected by
        watching ``sim.epoch`` move, and queued mutations are applied
        right there — after the closed epoch's plan, before the next
        epoch serves a single tick.
        """
        sim = self.sim
        for _ in range(ticks):
            epoch_before = sim.epoch
            alive = sim.step_tick()
            if sim.epoch != epoch_before:
                if self._pending:
                    self._apply_pending()
                self._refresh_ledger()
            if not alive:
                return False
        return True

    def _refresh_ledger(self) -> None:  # holds-lock: self.lock
        """Rebuild the outcome-ledger summary from the retained trace.

        Runs at epoch boundaries only: the ledger is post-hoc analysis of
        the trace the epoch just extended, and never feeds back into the
        simulation (the served decision trace stays byte-identical to the
        batch run's). Publishes ``outcome.*`` gauges so ``/metrics``
        carries the verdict counters, and caches per-rank migrations
        in/out for ``/status`` and ``repro top``. On a ring-buffered
        trace the summary covers retained history only.
        """
        sim = self.sim
        events = sim.trace.events()
        ledger = build_ledger(events)
        counts = ledger.verdict_counts()
        totals = ledger.totals()
        n_mds = len(sim.mdss)
        moved_in = [0] * n_mds
        moved_out = [0] * n_mds
        for e in events:
            if e.etype == "migration_committed":
                if e.src < n_mds:  # type: ignore[attr-defined]
                    moved_out[e.src] += 1  # type: ignore[attr-defined]
                if e.dst < n_mds:  # type: ignore[attr-defined]
                    moved_in[e.dst] += 1  # type: ignore[attr-defined]
        m = sim.metrics
        for verdict in sorted(OUTCOME_VERDICTS):
            m.gauge("outcome.migrations", verdict=verdict).set(
                counts.get(verdict, 0))
        m.gauge("outcome.benefit_efficiency").set(totals["efficiency"])
        m.gauge("outcome.aborted_inodes").set(totals["aborted_inodes"])
        self._ledger_cache = {
            "verdicts": {v: counts.get(v, 0)
                         for v in sorted(OUTCOME_VERDICTS)},
            "judged": len(ledger),
            "efficiency": totals["efficiency"],
            "moved_inodes": int(totals["moved_inodes"]),
            "aborted_inodes": int(totals["aborted_inodes"]),
            "migrations_in": moved_in,
            "migrations_out": moved_out,
        }

    def _finish(self) -> None:
        with self.lock:
            if self.result is None:
                self.result = self.sim.finish()
            self._refresh_ledger()  # judge the tail the last boundary missed
            self.state = "stopped" if self._stop_requested else "done"

    def run_to_completion(self) -> None:
        """Synchronous drive (tests, ``--sync``): no pauses, no throttle."""
        self.start()
        with self.lock:
            while not self._stop_requested and self._advance(self.tick_slice):
                pass
        self._finish()

    async def drive(self, poll_interval: float = 0.05) -> None:
        """The asyncio driver: tick slices interleaved with the event loop.

        Between slices control returns to the loop (throttled to
        :attr:`rate` ticks/second when set), so HTTP handler threads
        waiting on :attr:`lock` and coroutines sharing the loop make
        progress. A paused service polls for :meth:`resume`/:meth:`step`
        every ``poll_interval`` seconds.
        """
        self.start()
        try:
            while True:
                with self.lock:
                    if self._stop_requested:
                        break
                    if self.state == "paused":
                        budget = min(self._step_budget, self.tick_slice)
                        if budget:
                            self._step_budget -= budget
                            if not self._advance(budget):
                                break
                        paused = True
                    else:
                        paused = False
                        if not self._advance(self.tick_slice):
                            break
                if paused:
                    await asyncio.sleep(poll_interval)
                elif self.rate is not None:
                    await asyncio.sleep(self.tick_slice / self.rate)
                else:
                    await asyncio.sleep(0)
        finally:
            self._finish()

    # ------------------------------------------------------------- mutations
    def queue_mutations(self, changes: dict) -> int:
        """Validate and queue config mutations; returns the queue depth.

        Accepted keys: the initiator tunables (``if_threshold``,
        ``deviation_threshold``, ``cap_fraction``, ``regression_window``,
        ``use_urgency``), the urgency smoothness ``urgency_smoothness``
        (the paper's S — applied to both the trigger and the reporting
        IF), the balancing interval ``epoch_len``, and ``balancer`` (swap
        the policy; its ``setup`` plan is applied at the boundary).
        Raises :class:`MutationError` on anything unappliable, leaving
        the queue untouched.
        """
        if not isinstance(changes, dict) or not changes:
            raise MutationError("expected a non-empty JSON object of "
                                "{knob: value} pairs")
        staged: list[tuple[str, object]] = []
        for key, raw in changes.items():
            staged.append((key, self._coerce(key, raw)))
        with self.lock:
            self._pending.extend(staged)
            return len(self._pending)

    def _coerce(self, key: str, raw: Any) -> object:
        try:
            if key in _INITIATOR_KEYS:
                if not hasattr(self.sim.balancer, "initiator_config"):
                    raise MutationError(
                        f"balancer {self.sim.result.balancer!r} has no "
                        f"initiator config; {key!r} is not tunable here")
                return _INITIATOR_KEYS[key](raw)
            if key == "urgency_smoothness":
                value = float(raw)
                if value <= 0:
                    raise MutationError("urgency_smoothness must be positive")
                return value
            if key == "epoch_len":
                value = int(raw)
                if value <= 0:
                    raise MutationError("epoch_len must be positive")
                return value
            if key == "balancer":
                make_balancer(str(raw))  # raises ValueError on unknown names
                return str(raw)
        except MutationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of a JSON Infinity
            raise MutationError(f"bad value for {key!r}: {exc}") from None
        raise MutationError(
            f"unknown config key {key!r}; settable: "
            f"{sorted([*_INITIATOR_KEYS, 'urgency_smoothness', 'epoch_len', 'balancer'])}")

    def _apply_pending(self) -> None:  # holds-lock: self.lock
        """Apply queued mutations at an epoch boundary (lock held)."""
        pending, self._pending = self._pending, []
        sim = self.sim
        for key, value in pending:
            old = self._apply_one(key, value)
            sim.trace.emit(ConfigChanged(
                epoch=sim.epoch, tick=sim.tick, key=key, value=str(value),
                old=str(old), did=sim.trace.next_decision_id()))
            sim.metrics.counter("serve.config_changes").inc()
            self.mutations_applied += 1

    def _apply_one(self, key: str, value: Any) -> object:  # holds-lock: self.lock
        sim = self.sim
        if key in _INITIATOR_KEYS:
            icfg = sim.balancer.initiator_config
            old = getattr(icfg, key)
            setattr(icfg, key, value)
            return old
        if key == "urgency_smoothness":
            old = sim.config.urgency_smoothness
            sim.config = sim.config.with_(urgency_smoothness=value)
            icfg = getattr(sim.balancer, "initiator_config", None)
            if icfg is not None:
                icfg.urgency_smoothness = value
            return old
        if key == "epoch_len":
            old = sim.config.epoch_len
            sim.set_epoch_len(value)
            return old
        if key == "balancer":
            old = getattr(sim.balancer, "name", type(sim.balancer).__name__)
            sim.balancer = make_balancer(value)
            sim.apply_plan(sim.balancer.setup(sim.snapshot_view()))
            return old
        raise AssertionError(f"unvalidated mutation key {key!r}")

    # ------------------------------------------------------------- snapshots
    def metrics_text(self) -> str:
        """The OpenMetrics exposition of the live registry."""
        with self.lock:
            return render_openmetrics(self.sim.metrics)

    def timeseries(self) -> dict:
        with self.lock:
            rec = self.sim.recorder
            if rec is None:
                return {"columns": [], "rows": [], "appended": 0}
            return rec.timeseries.snapshot()

    def status(self) -> dict:
        """The JSON document behind ``GET /status`` (and ``repro top``)."""
        with self.lock:
            sim = self.sim
            r = sim.result
            m = sim.metrics
            loads = list(r.per_mds_iops[-1]) if r.per_mds_iops else \
                [0.0] * len(sim.mdss)
            return {
                "schema": 1,
                "state": self.state,
                "tick": sim.tick,
                "max_ticks": sim.config.max_ticks,
                "epoch": sim.epoch,
                "epoch_len": sim.config.epoch_len,
                "workload": r.workload,
                "balancer": getattr(sim.balancer, "name",
                                    type(sim.balancer).__name__),
                "n_mds": len(sim.mdss),
                "loads": loads,
                "capacities": [mds.capacity for mds in sim.mdss],
                "failed": [mds.rank for mds in sim.mdss if mds.failed],
                "if": r.if_series[-1] if r.if_series else 0.0,
                "if_series": list(r.if_series[-60:]),
                "migrated_inodes": sim.migrator.migrated_inodes,
                "committed_tasks": sim.migrator.committed_tasks,
                "aborted_tasks": sim.migrator.aborted_tasks,
                "forwards": sim.router.total_forwards,
                "clients": len(sim.clients),
                "clients_done": sum(1 for c in sim.clients if c.done),
                "epochs_per_second": m.get_value("sim.epochs_per_second"),
                "ops_per_second": m.get_value("serve.ops_per_second"),
                "trace": {"emitted": sim.trace.emitted,
                          "retained": len(sim.trace),
                          "dropped": sim.trace.dropped},
                "bus": {"subscribers": self.bus.subscribers,
                        "published": self.bus.published,
                        "dropped": self.bus.dropped},
                "mutations": {"queued": len(self._pending),
                              "applied": self.mutations_applied},
                "outcomes": self._ledger_cache,
                "workload_profile": (
                    None if sim.last_workload_profile is None else {
                        "epoch": sim.last_workload_profile.epoch,
                        "heat_gini": sim.last_workload_profile.heat_gini,
                        "heat_entropy": sim.last_workload_profile.heat_entropy,
                        "load_gini": sim.last_workload_profile.load_gini,
                        "top1_share": sim.last_workload_profile.top1_share,
                        "topk_share": sim.last_workload_profile.topk_share,
                        "churn": sim.last_workload_profile.churn,
                        "op_mix": sim.last_workload_profile.op_mix,
                    }),
            }
