"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``.

Every simulation here is tiny; the shapes are the benchmark's recipes
shrunk, never the measured sizes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import shapes  # noqa: E402
from repro.cluster.router import Router  # noqa: E402
from repro.core.view import ClusterView  # noqa: E402
from repro.experiments.config import BENCH_SIM_CONFIG, default_workload  # noqa: E402
from repro.namespace.builder import BuiltNamespace  # noqa: E402
from repro.workloads.base import OP_STAT, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "mdtest": shapes.Shape(
        "mdtest", lambda: default_workload("mdtest", 6, scale=0.05), BENCH_SIM_CONFIG),
    "wide_create": shapes.Shape(
        "wide_create",
        lambda: shapes.MegaTreeWorkload(8, n_cold_dirs=2000, creates_per_client=100),
        shapes.WIDE_CREATE_SIM.with_(n_mds=4)),
    **{name: shapes.Shape(name, lambda name=name: default_workload(name, 8, scale=0.05),
                          BENCH_SIM_CONFIG)
       for name in shapes.DIAGNOSTIC},
}


class LongStreams(Workload):
    """Stub: more stat ops per client than the tick budget can serve."""

    name = "long_streams"

    def build_namespace(self, tree, seed):
        d = tree.add_dir(0, "hot")
        tree.add_files(d, 10)
        return BuiltNamespace(tree, 0, [d], [10])

    def client_ops(self, built, client_index, seed):
        return iter([(OP_STAT, built.dirs[0], 0, 0)] * 5000)


def test_workloads_match_spec():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(shapes.SHAPES)
    assert not names & set(shapes.DIAGNOSTIC)
    assert set(run.WORKLOADS) == set(shapes.SHAPES) | set(shapes.DIAGNOSTIC) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_completes_at_tiny_size(name):
    res = run.run_plain(TINY[name], shapes.sub_seeds(1, n=2), seconds=0.0)
    if name in shapes.SHAPES:
        assert res["correct"], res["inputs"]
        assert res["failed"] == 0
    # a diagnostic workload may diverge from the reference (README.md,
    # "Known divergence"); it must still run to the end and report
    assert res["attempted"] == sum(r["attempted"] * r["runs"] for r in res["inputs"])
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in res["metrics"].values():
        assert m["value"] > 0


def test_lost_ops_count_as_failed():
    stub = shapes.Shape("stub", lambda: LongStreams(3),
                        BENCH_SIM_CONFIG.with_(max_ticks=20))
    res = run.run_plain(stub, [5], seconds=0.0)
    row = res["inputs"][0]
    assert row["attempted"] == 3 * 5000
    assert row["served"] < row["attempted"]
    assert row["unfinished_clients"] == 3
    assert res["failed"] == row["attempted"] - row["served"] + 3
    assert not res["correct"]


def test_divergent_decisions_fail_every_op():
    assert measure.failed_ops(100, 100, 0, digest_ok=False) == 100
    assert measure.failed_ops(100, 90, 1, digest_ok=True) == 11
    assert measure.failed_ops(100, 100, 0, digest_ok=True) == 0


@pytest.mark.parametrize("name", sorted(shapes.SHAPES))
def test_traced_digest_equals_plain(name):
    shape = TINY[name]
    route, mindex = Router.__dict__["route"], ClusterView.__dict__["mindex"]
    plain = measure.simulate(shape, 3)
    with layers.Tracer() as tracer:
        traced = measure.simulate(shape, 3)
    assert traced.digest == plain.digest
    assert tracer.calls("kernel.serve_tick") > 0
    assert tracer.calls("policy.on_epoch") > 0
    assert all(s is not None for s in tracer.spans)
    # every original attribute is back once the traced run ends
    assert Router.__dict__["route"] is route
    assert ClusterView.__dict__["mindex"] is mindex


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = run.run_traced(TINY["mdtest"], [1], seconds=0.0,
                         spans_path=tmp_path / "spans.json")
    assert res["inputs"][0]["traced_digest_equal"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((tmp_path / "spans.json").read_text())["traceEvents"]
    assert res["spans"] == sum(1 for e in spans if e["ph"] == "X") > 0


def test_times_scale_to_the_reference_speed(monkeypatch):
    # a host running at twice the reference speed: every calibration
    # takes half the reference time, so reference-speed times are double
    monkeypatch.setattr(measure, "calibrate", lambda: measure.REFERENCE_CAL_S / 2)
    rec = measure.simulate(TINY["mdtest"], 3)
    assert rec.epoch_s and len(rec.epoch_ref_s) == len(rec.epoch_s)
    assert rec.run_ref_s == pytest.approx(2 * rec.run_s)
    assert rec.setup_ref_s == pytest.approx(2 * rec.setup_s)
    assert rec.epoch_ref_s == pytest.approx([2 * e for e in rec.epoch_s])
    assert sum(rec.epoch_s) <= rec.run_s


def test_self_time_excludes_wrapped_callees():
    ticks = iter(range(0, 1000, 10))

    class Owner:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    with layers.Tracer([(Owner, "outer", "outer", True),
                        (Owner, "inner", "inner", False)],
                       clock=lambda: next(ticks)) as tracer:
        Owner().outer()
    # outer: 0 -> 30, inner: 10 -> 20
    assert tracer.totals["outer"] == [1, 30, 20]
    assert tracer.totals["inner"] == [1, 10, 10]
    assert tracer.spans == [("outer", 0, 30, -1)]


def test_seed_reaches_only_the_workload_generator(monkeypatch):
    assert run._parse(["--workload", "mdtest", "--seed", "5"]).seed == 5
    assert shapes.sub_seeds(5, 3) == shapes.sub_seeds(5, 3) != shapes.sub_seeds(6, 3)
    seen_seeds, seen_configs = [], []

    class Spy(shapes.Shape):
        def materialize(self, seed):
            seen_seeds.append(seed)
            return super().materialize(seed)

    real = measure.Simulator

    def spy_simulator(instance, balancer, config):
        seen_configs.append(config.with_(engine="columnar"))
        return real(instance, balancer, config)

    monkeypatch.setattr(measure, "Simulator", spy_simulator)
    tiny = TINY["mdtest"]
    run.run_plain(Spy(tiny.name, tiny.workload, tiny.sim), shapes.sub_seeds(5, n=2),
                  seconds=0.0)
    assert set(seen_seeds) == set(shapes.sub_seeds(5, n=2))
    assert seen_configs and all(c == tiny.sim for c in seen_configs)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mdtest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
