"""Golden-trace regression suite.

Each scenario runs a fixed-seed workload under one balancer and compares
the full balancer-decision trace — epoch boundaries, IF values, role
assignments, subtree selections, migration plan/commit/abort — *byte for
byte* against a snapshot under ``tests/golden/``. Any change to the
balancing pipeline's decisions, however subtle, shows up as a diff here
before it shows up as a silent shift in a paper figure.

To bless intentional changes::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden

and review the golden-file diff like any other code change.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.balancers import make_balancer
from repro.cluster.simulator import SimConfig, Simulator
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_traced
from repro.obs.tracelog import TraceLog, read_jsonl

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: small but non-trivial: 3 MDSs, enough clients and ops that the trigger
#: fires, roles are paired, subtrees are selected, and migrations commit
GOLDEN_SIM = SimConfig(n_mds=3, mds_capacity=60.0, epoch_len=5,
                       max_ticks=3000, migration_rate=50, seed=0)

#: the wide-namespace scenario: 16 create streams over 66,084 directories,
#: above the candidate walk's ``SPARSE_DIR_THRESHOLD``, so the sparse
#: candidate, window-stats and mIndex paths make its decisions
WIDE_SIM = GOLDEN_SIM.with_(n_mds=4)

SCENARIOS = {
    "mdtest_lunule": ("mdtest", "lunule"),
    "mdtest_vanilla": ("mdtest", "vanilla"),
    "mixed_lunule": ("mixed", "lunule"),
    "mixed_vanilla": ("mixed", "vanilla"),
    "wide_lunule": ("megatree", "lunule"),
}


def _mega_tree_workload():
    """``MegaTreeWorkload`` from the core-speed benchmark, loaded by path
    (as ``perfbench/shapes.py`` does) so the golden runs the benchmark's
    wide-namespace recipe."""
    path = GOLDEN_DIR.parent.parent / "benchmarks" / "bench_core_speed.py"
    spec = importlib.util.spec_from_file_location("bench_core_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MegaTreeWorkload


def run_scenario(name: str, record: bool = False):
    workload, balancer = SCENARIOS[name]
    if workload == "megatree":
        sim_cfg = WIDE_SIM.with_(record=True) if record else WIDE_SIM
        instance = _mega_tree_workload()(
            16, n_cold_dirs=66_000, creates_per_client=400).materialize(seed=7)
        sim = Simulator(instance, make_balancer(balancer), sim_cfg)
        return sim.run(), sim
    sim = GOLDEN_SIM.with_(record=True) if record else GOLDEN_SIM
    cfg = ExperimentConfig(workload=workload, balancer=balancer, n_clients=8,
                           seed=7, scale=0.15, sim=sim)
    return run_traced(cfg)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name, update_golden):
    result, sim = run_scenario(name)
    path = GOLDEN_DIR / f"{name}.jsonl"
    produced = sim.trace.dumps()

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced, encoding="utf-8", newline="\n")
        pytest.skip(f"golden trace {path.name} rewritten")

    assert path.exists(), (
        f"missing golden trace {path}; run with --update-golden to create it")
    golden = path.read_text(encoding="utf-8")
    assert produced == golden, (
        f"decision trace for {name} diverged from {path.name}; if the change "
        f"is intentional, re-bless with --update-golden and review the diff")


@pytest.mark.parametrize("name", ["mdtest_lunule", "mixed_vanilla"])
def test_golden_run_is_replayable(name):
    """Two in-process runs of the same scenario are byte-identical."""
    _, sim_a = run_scenario(name)
    _, sim_b = run_scenario(name)
    assert sim_a.trace.dumps() == sim_b.trace.dumps()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_traces_round_trip(name):
    """Golden files parse back into the exact events a run produces."""
    path = GOLDEN_DIR / f"{name}.jsonl"
    if not path.exists():
        pytest.skip("golden trace not generated yet")
    events = list(read_jsonl(path))
    log = TraceLog()
    for e in events:
        log.emit(e)
    assert log.dumps() == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["mdtest_lunule", "mixed_vanilla"])
def test_golden_timeseries(name, update_golden):
    """The flight recorder's per-epoch table is byte-stable too.

    Logical clocks and repr-encoded floats make the recorded CSV a pure
    function of the (seeded) run, so it goldens exactly like the decision
    trace — one snapshot guards the whole sampling pipeline: column set,
    epoch cadence and every recorded value.
    """
    result, sim = run_scenario(name, record=True)
    path = GOLDEN_DIR / f"{name}.timeseries.csv"
    produced = sim.recorder.timeseries.dumps_csv()

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced, encoding="utf-8", newline="\n")
        pytest.skip(f"golden time series {path.name} rewritten")

    assert path.exists(), (
        f"missing golden time series {path}; run with --update-golden to "
        f"create it")
    assert produced == path.read_text(encoding="utf-8"), (
        f"recorded time series for {name} diverged from {path.name}; if the "
        f"change is intentional, re-bless with --update-golden")


@pytest.mark.parametrize("name", ["mdtest_lunule", "mixed_vanilla"])
def test_recording_leaves_the_decision_trace_untouched(name):
    """Turning the recorder on must observe, never perturb."""
    _, plain = run_scenario(name)
    _, recorded = run_scenario(name, record=True)
    assert recorded.trace.dumps() == plain.trace.dumps()


def test_workload_profiling_leaves_the_golden_trace_untouched():
    """The workload profiler observes the run; it must never steer it.

    A profiled golden-scenario run has to match the blessed ``.jsonl``
    byte for byte — the ``wl.*`` columns and ``workload.*`` gauges are
    additive — and building (and emitting) the cost/benefit ledger over a
    *copy* of the trace must leave the original trace bytes alone.
    """
    from repro.obs.outcomes import build_ledger, emit_outcomes
    from repro.obs.tracelog import TraceLog as _Log

    workload, balancer = SCENARIOS["mdtest_lunule"]
    cfg = ExperimentConfig(
        workload=workload, balancer=balancer, n_clients=8, seed=7,
        scale=0.15,
        sim=GOLDEN_SIM.with_(record=True, workload_profile=True))
    _, sim = run_traced(cfg)
    produced = sim.trace.dumps()

    path = GOLDEN_DIR / "mdtest_lunule.jsonl"
    if path.exists():
        assert produced == path.read_text(encoding="utf-8")

    ledger = build_ledger(sim.trace.events())
    assert len(ledger) > 0  # the scenario migrates; every commit is judged
    annotated = _Log(ids=sim.trace.ids)
    for e in sim.trace.events():
        annotated.emit(e)
    emit_outcomes(annotated, ledger)
    assert sim.trace.dumps() == produced
    assert len(annotated) == len(sim.trace) + len(ledger)

    # profiled runs grow wl.* columns; the golden CSV (unprofiled) doesn't
    assert any(c.startswith("wl.")
               for c in sim.recorder.timeseries.columns())


def test_golden_chaos_trace(update_golden):
    """A chaos run goldens too: faults, causes and aborts, byte for byte.

    One disturbed scenario (flapping rank 1 under lunule, seed 1) guards
    the failure-path event stream the fault-free goldens never emit:
    ``fault_injected`` / ``fault_cleared`` and ``cause``-bearing
    ``migration_aborted`` records.
    """
    from repro.experiments.chaos import run_chaos

    _, _, sim = run_chaos("flap", seed=1)
    path = GOLDEN_DIR / "chaos_flap.jsonl"
    produced = sim.trace.dumps()

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced, encoding="utf-8", newline="\n")
        pytest.skip(f"golden trace {path.name} rewritten")

    assert path.exists(), (
        f"missing golden trace {path}; run with --update-golden to create it")
    assert produced == path.read_text(encoding="utf-8"), (
        "chaos decision trace diverged from chaos_flap.jsonl; if the change "
        "is intentional, re-bless with --update-golden and review the diff")


def test_golden_chaos_trace_round_trips():
    """Fault events survive the JSONL round trip like every other event."""
    path = GOLDEN_DIR / "chaos_flap.jsonl"
    if not path.exists():
        pytest.skip("golden chaos trace not generated yet")
    from repro.obs.events import NO_DECISION

    events = list(read_jsonl(path))
    log = TraceLog()
    for e in events:
        log.emit(e)
    assert log.dumps() == path.read_text(encoding="utf-8")
    counts = log.counts()
    assert counts["fault_injected"] == counts["fault_cleared"] == 3
    assert any(getattr(e, "cause", NO_DECISION) != NO_DECISION
               for e in log.events("migration_aborted"))


def test_golden_traces_cover_the_decision_pipeline():
    """The Lunule goldens exercise every decision-event stage per epoch."""
    result, sim = run_scenario("mdtest_lunule")
    counts = sim.trace.counts()
    n_epochs = len(result.if_series)
    assert counts["epoch_start"] == n_epochs
    # one reporting IF per epoch plus one initiator IF per balancer round
    assert counts["if_computed"] >= n_epochs
    assert counts.get("role_assigned", 0) > 0
    assert counts.get("subtree_selected", 0) > 0
    assert counts.get("migration_committed", 0) == result.committed_tasks
    # migrated-inode accounting in the trace matches the result series
    traced = sum(e.inodes for e in sim.trace.events("migration_committed"))
    assert traced == result.migrated_series[-1]


def test_golden_traces_carry_complete_provenance():
    """Every golden migration chains back to an IF root, ids monotone.

    This is the provenance acceptance bar: a full (un-ringed) trace must
    explain every migration end-to-end and every quiet epoch by reason.
    """
    from repro.obs.provenance import ProvenanceGraph, explain

    for name in sorted(SCENARIOS):
        _, sim = run_scenario(name)
        events = list(sim.trace)
        graph = ProvenanceGraph(events)
        # decision ids are monotone in emission order
        dids = [e.did for e in events if getattr(e, "did", -1) != -1]
        assert dids == sorted(dids), f"{name}: ids out of order"
        assert len(dids) == len(set(dids)), f"{name}: duplicate ids"
        for e in sim.trace.events("migration_planned"):
            chain = graph.chain(e.did)
            assert not chain.truncated, f"{name}: truncated chain {e.did}"
            assert chain.events[0].etype == "if_computed", (
                f"{name}: migration {e.did} does not root at an IF")
        for e in sim.trace.events("epoch_skipped"):
            assert graph.chain(e.did).events[0].etype == "if_computed"
        report = explain(events)
        assert report["summary"]["truncated_chains"] == 0
        assert report["summary"]["committed"] == sim.migrator.committed_tasks


def test_wide_golden_runs_the_sparse_epoch_paths():
    """``wide_lunule`` guards the sparse candidate, window and mIndex
    paths only while its namespace stays above the sparse threshold and
    its run still fragments, commits and aborts."""
    from repro.balancers.candidates import SPARSE_DIR_THRESHOLD

    result, sim = run_scenario("wide_lunule")
    assert sim.tree.n_dirs >= SPARSE_DIR_THRESHOLD
    counts = sim.trace.counts()
    assert counts["epoch_start"] == len(result.if_series) > 1
    assert counts["migration_committed"] > 0
    assert counts["migration_aborted"] > 0
    assert len(sim.authmap.fragmented_dirs()) > 0
