"""Plain runs timed from outside, the scalar reference, and the verdict.

Every number here is labelled by its clock: *host* time is what the
benchmark's process spends (``time.perf_counter``), *simulated* time is
the simulator's own ticks and epochs. Host metrics are what this
benchmark gates; simulated outputs are checked, not gated — a speed-only
change must leave them bit-identical, and the decision-trace digest is
how that is checked.

On a shared host the same run can take 1.5 times as long from one
second to the next, and each vCPU slows on its own. So a timed run is
cut, at epoch boundaries, into segments of at least ``SEGMENT_S``, with
:func:`calibrate` — a fixed pure-Python loop that touches no simulator
code — run between them, outside the timed segments. Each segment's host
time is scaled by ``REFERENCE_CAL_S`` ÷ the mean of the calibrations on
either side of it: these are *reference-speed* host times, which the
benchmark gates. A change to the simulator moves them as it moves the
raw host times; a slow second on the host slows the segment and its
calibrations alike and cancels. The raw times are kept in every record.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.balancers import make_balancer
from repro.cluster.simulator import Simulator
from shapes import BALANCER, Shape

__all__ = ["RunRecord", "simulate", "measure", "calibrate", "attempted_ops",
           "failed_ops", "end_to_end", "peak_rss_mb", "median_by_input"]

#: host s :func:`calibrate` takes at the reference speed: its median on a
#: 2-vCPU Intel Xeon virtual machine under CPython 3.11
REFERENCE_CAL_S = 0.0013
#: shortest timed segment between two calibrations (host s)
SEGMENT_S = 0.04


@dataclass
class RunRecord:
    """One simulation of one input, timed from outside."""

    seed: int
    #: host s in ``Workload.materialize``
    build_s: float
    #: host s in ``Simulator(...)`` plus ``start()``
    construct_s: float
    #: host s from after ``start()`` to after ``finish()``
    run_s: float
    #: host s per simulated epoch, boundary to boundary
    epoch_s: list[float]
    #: simulated metadata ops served (``SimResult.meta_ops``)
    meta_ops: int
    #: clients that never completed
    unfinished: int
    #: sha256 of the canonical decision-trace JSONL
    digest: str
    #: simulated-time outputs (see :func:`checked_outputs`)
    checked: dict = field(default_factory=dict)
    #: ``setup_s``, ``run_s`` and ``epoch_s`` at the reference speed
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0
    epoch_ref_s: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.build_s + self.construct_s


def checked_outputs(sim: Simulator, result) -> dict:
    """The run's simulated-time statistics (checked, never gated)."""
    done = result.completion_ticks
    return {
        "mean_if": result.mean_if(),
        "last_completion_tick": max(done.values()) if done else None,
        "finished_tick": result.finished_tick,
        "epochs": len(result.epoch_ticks),
        "migrated_inodes": sim.migrator.migrated_inodes,
        "committed": result.committed_tasks,
        "aborted": result.aborted_tasks,
        "planned": sim.trace.counts().get("migration_planned", 0),
        "forwards": result.total_forwards,
        "trace_events": len(sim.trace),
    }


def _calibration_loop() -> int:
    counts: dict[int, int] = {}
    keys: list[int] = []
    for i in range(5_000):
        k = (i * 2654435761) & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        keys.append(k)
    keys.sort()
    return len(counts)


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop (dict, list and integer
    work, as the simulator does) that touches no simulator code. A first,
    untimed pass warms the caches, so the time does not depend on how
    much memory the simulator touched just before."""
    _calibration_loop()
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


class _Segments:
    """Timed host seconds in segments, each scaled to the reference speed
    by the calibrations on either side of it."""

    def __init__(self, cal: float) -> None:
        #: the latest calibration, which opens the next segment
        self.cal = cal
        self.raw_s = self.ref_s = 0.0
        self.epoch_s: list[float] = []
        self.epoch_ref_s: list[float] = []
        #: raw host s of the epochs that ended in the open segment
        self.open: list[float] = []

    def close(self, seconds: float) -> None:
        cal = calibrate()
        scale = REFERENCE_CAL_S / ((self.cal + cal) / 2)
        self.cal = cal
        self.raw_s += seconds
        self.ref_s += seconds * scale
        self.epoch_s += self.open
        self.epoch_ref_s += [e * scale for e in self.open]
        self.open = []


def simulate(shape: Shape, seed: int, *, engine: str = "columnar") -> RunRecord:
    """Materialize ``shape`` from ``seed`` and run it to completion.

    The simulation is driven with ``step_tick`` so the host time of each
    simulated epoch can be read at its boundary; the statement sequence
    is exactly what ``Simulator.run`` executes. Set-up is one timed
    segment, and the run phase is cut into segments at epoch boundaries.
    """
    clock = time.perf_counter
    gc.collect()  # start every run from a comparable heap (untimed)
    setup = _Segments(calibrate())
    t0 = clock()
    instance = shape.materialize(seed)
    t1 = clock()
    sim = Simulator(instance, make_balancer(BALANCER),
                    shape.sim.with_(engine=engine))
    sim.start()
    t2 = clock()
    setup.close(t2 - t0)
    segs = _Segments(setup.cal)
    epoch = sim.epoch
    start = last = clock()
    step = sim.step_tick
    while step():
        if sim.epoch != epoch:
            now = clock()
            segs.open.append(now - last)
            epoch = sim.epoch
            if now - start >= SEGMENT_S:
                segs.close(now - start)
                now = clock()
                start = now
            last = now
    result = sim.finish()
    now = clock()
    if sim.epoch != epoch:  # the run stopped right at an epoch boundary
        segs.open.append(now - last)
    segs.close(now - start)
    return RunRecord(
        seed=seed, build_s=t1 - t0, construct_s=t2 - t1,
        run_s=segs.raw_s, epoch_s=segs.epoch_s, meta_ops=result.meta_ops,
        unfinished=sum(1 for c in sim.clients if not c.done),
        digest=hashlib.sha256(sim.trace.dumps().encode()).hexdigest(),
        checked=checked_outputs(sim, result), setup_ref_s=setup.ref_s,
        run_ref_s=segs.ref_s, epoch_ref_s=segs.epoch_ref_s)


def measure(shape: Shape, seeds: list[int], seconds: float, *,
            run: Callable[[Shape, int], object] | None = None) -> dict[int, list]:
    """Run the inputs round-robin until ``seconds`` of host time have
    passed and every input has run at least once; ``run(shape, seed)``
    defaults to :func:`simulate`. Returns each input's results in order."""
    run = run or simulate
    out: dict[int, list] = {s: [] for s in seeds}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(seeds) or time.perf_counter() < deadline:
        s = seeds[i % len(seeds)]
        out[s].append(run(shape, s))
        i += 1
    return out


def attempted_ops(shape: Shape, seed: int) -> int:
    """Ops the generated client streams issue, counted on a fresh
    materialization (the streams are a pure function of the seed)."""
    total = 0
    for c in shape.materialize(seed).clients:
        if c.current is not None:
            _, _, avail = c.buffered_ops(1 << 62)
            total += 1 + avail
    return total


def failed_ops(attempted: int, served: int, unfinished: int,
               digest_ok: bool) -> int:
    """Ops issued but never served, plus one per client left unfinished.

    A run whose decisions diverge from the reference is wrong as a whole,
    so every op it attempted counts as failed.
    """
    if not digest_ok:
        return attempted
    return min(attempted, attempted - served + unfinished)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_by_input(runs: dict[int, list], key: Callable[[object], float]) -> dict[int, float]:
    """Per input, the median of ``key`` over its repeated runs."""
    return {s: statistics.median(key(r) for r in rs) for s, rs in runs.items()}


def _median_epochs(epochs: list[list[float]]) -> list[float]:
    """Epoch-by-epoch median over repeated runs of one input (the runs
    are deterministic, so epoch ``k`` is the same simulated work in each)."""
    return [statistics.median(col) for col in zip(*epochs)]


def _host_times(runs: dict[int, list[RunRecord]], ref: bool) -> dict[str, float]:
    """The timed metrics from reference-speed (``ref``) or raw host times."""
    run_s = median_by_input(runs, lambda r: r.run_ref_s if ref else r.run_s)
    setup_s = median_by_input(runs, lambda r: r.setup_ref_s if ref else r.setup_s)
    ops = sum(rs[0].meta_ops for rs in runs.values())
    epochs_ms = sorted(1e3 * e for rs in runs.values() for e in _median_epochs(
        [r.epoch_ref_s if ref else r.epoch_s for r in rs]))
    p90 = statistics.quantiles(epochs_ms, n=10)[-1] if len(epochs_ms) > 1 else epochs_ms[0]
    return {"ops_per_s": ops / sum(run_s.values()),
            "epoch_ms_p50": statistics.median(epochs_ms), "epoch_ms_p90": p90,
            "setup_s": statistics.median(setup_s.values()),
            "epochs": len(epochs_ms),
            "beyond": sum(1 for e in epochs_ms if e > p90)}


def end_to_end(runs: dict[int, list[RunRecord]], rss_mb: float) -> dict[str, dict]:
    """The end-to-end metrics of one run of the benchmark.

    Each input weighs the same however many times it ran: its repeated
    runs are first reduced to medians, then the inputs are combined.
    Times are at the reference speed; ``raw`` is the same metric from the
    measured host times.
    """
    ref, raw = _host_times(runs, ref=True), _host_times(runs, ref=False)
    n_runs = sum(len(rs) for rs in runs.values())
    clock = "host, reference speed"
    return {
        "ops_per_s": {"value": ref["ops_per_s"], "raw": raw["ops_per_s"],
                      "unit": "1/s", "samples": n_runs, "clock": clock},
        "epoch_ms_p50": {"value": ref["epoch_ms_p50"], "raw": raw["epoch_ms_p50"],
                         "unit": "ms", "samples": ref["epochs"], "clock": clock},
        "epoch_ms_p90": {"value": ref["epoch_ms_p90"], "raw": raw["epoch_ms_p90"],
                         "unit": "ms", "samples": ref["epochs"],
                         "beyond": ref["beyond"], "clock": clock},
        "setup_s": {"value": ref["setup_s"], "raw": raw["setup_s"], "unit": "s",
                    "samples": n_runs, "clock": clock},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB", "samples": 1,
                        "clock": "host"},
    }
