"""The benchmark's workloads: what each run simulates, and from which seeds.

A *shape* is a workload recipe plus the cluster it runs on, always under
the ``lunule`` balancer on the simulator's default engine. One benchmark
run simulates several *inputs* of a shape — the same recipe materialized
from several sub-seeds derived from ``--seed`` — because a single seed's
balancing history (how many epochs it takes to settle) moves host time
by 15-25%, while the mean over a handful of seeds is steady.

The seed reaches the workload generator only (``Workload.materialize``);
the cluster configuration is the same for every seed.

``SHAPES`` are the measured workloads, the ones ``BENCHMARK.json`` lists.
``DIAGNOSTIC`` shapes run the same way but are not measured: on them the
default engine's decisions part from the scalar reference on some or
all inputs, so their runs report failed ops (see ``README.md``).
"""

from __future__ import annotations

import importlib.util
import pathlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.simulator import SimConfig
from repro.experiments.config import BENCH_SIM_CONFIG, default_workload
from repro.workloads.base import Workload

__all__ = ["Shape", "SHAPES", "DIAGNOSTIC", "sub_seeds", "INPUTS_PER_RUN"]

ROOT = pathlib.Path(__file__).resolve().parent.parent

BALANCER = "lunule"

#: inputs (sub-seeds) one benchmark run simulates: few enough that the
#: untimed scalar reference, which runs once per input after the default
#: 30 s of measuring, adds less than that again
INPUTS_PER_RUN = 6


@dataclass(frozen=True)
class Shape:
    """One workload recipe on one cluster configuration."""

    name: str
    #: builds a fresh recipe (recipes are cheap; materializing is the cost)
    workload: Callable[[], Workload]
    sim: SimConfig

    def materialize(self, seed: int):
        return self.workload().materialize(seed=seed)


def sub_seeds(seed: int, n: int = INPUTS_PER_RUN) -> list[int]:
    """The workload seeds one run simulates; a pure function of ``seed``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return [seed * 1000 + i for i in range(n)]


def _mega_tree_workload():
    """``MegaTreeWorkload`` from the core-speed benchmark, loaded by path
    so both benchmarks run the same wide-namespace recipe."""
    path = ROOT / "benchmarks" / "bench_core_speed.py"
    spec = importlib.util.spec_from_file_location("bench_core_speed", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MegaTreeWorkload


MegaTreeWorkload = _mega_tree_workload()

#: 16 ranks, 128 private create streams and ~200k cold directories: the
#: 64-rank million-directory shape of ``bench_core_speed.py`` scaled to
#: about two seconds per input. At 32 ranks the number of epochs a run
#: needs varies with the seed by ~18% (coefficient of variation over
#: seeds 1-8); at 16 ranks by ~4%, so host time measures the code rather
#: than the seed's balancing luck.
WIDE_CREATE_SIM = SimConfig(n_mds=16, mds_capacity=100.0, epoch_len=10,
                            max_ticks=20_000, migration_rate=50)

SHAPES: dict[str, Shape] = {
    "mdtest": Shape("mdtest", lambda: default_workload("mdtest", 20, scale=10),
                    BENCH_SIM_CONFIG),
    "wide_create": Shape(
        "wide_create",
        lambda: MegaTreeWorkload(128, n_cold_dirs=200_000,
                                 creates_per_client=1500),
        WIDE_CREATE_SIM),
}

DIAGNOSTIC: dict[str, Shape] = {
    name: Shape(name, lambda name=name: default_workload(name, 20), BENCH_SIM_CONFIG)
    for name in ("web", "mixed", "nlp", "cnn")
}
