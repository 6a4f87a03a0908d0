"""Core serve-path engine benchmark: scalar vs columnar, plus scale proof.

Emits ``BENCH_core.json`` — the first entry in the repository's perf
trajectory. Each shape runs under both engines with a full decision trace
and asserts the traces are **byte-identical** before reporting a speedup:
a number only counts if the columnar engine made exactly the decisions
the scalar reference would have made.

Shapes:

- the exact Figure-13a scalability points (mdtest/lunule, ``n_clients =
  4 * n_mds``) — honest numbers on the paper's own configuration, where
  think-time jitter and the epoch-boundary policy path bound the
  achievable speedup (Amdahl: only ~25 ops arrive per client-tick);
- a serve-heavy Figure-13-family shape (capacity 1000, 50k creates,
  near-zero jitter) where the serve path dominates and the columnar
  engine clears 10x;
- a 64-rank, >= 1M-directory run (columnar only) that completes
  end-to-end — infeasible before the columnar serve path and the sparse
  candidate/stats paths landed.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_speed.py            # full
    PYTHONPATH=src python benchmarks/bench_core_speed.py --smoke    # CI
    ... --check-speedup 2.0   # exit nonzero if the headline shape misses
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.balancers import make_balancer  # noqa: E402
from repro.cluster.simulator import SimConfig, Simulator  # noqa: E402
from repro.experiments.config import BENCH_SIM_CONFIG, ExperimentConfig  # noqa: E402
from repro.experiments.runner import run_traced  # noqa: E402
from repro.namespace.builder import BuiltNamespace  # noqa: E402
from repro.workloads.base import OP_CREATE, RepeatOps, Workload  # noqa: E402

SCHEMA = "repro-bench-core/v1"


def fig13a_config(n_mds: int, *, engine: str, creates: int | None = None,
                  capacity: float | None = None,
                  jitter: float | None = None) -> ExperimentConfig:
    """The Figure-13a cell for ``n_mds`` ranks, optionally reshaped."""
    sim = BENCH_SIM_CONFIG.with_(n_mds=n_mds, engine=engine)
    if capacity is not None:
        sim = sim.with_(mds_capacity=capacity)
    overrides: dict = {
        "creates_per_client": creates if creates is not None
        else max(500, round(1000 + 200 * n_mds)),
    }
    if jitter is not None:
        overrides["jitter"] = jitter
    return ExperimentConfig(workload="mdtest", balancer="lunule",
                            n_clients=4 * n_mds, seed=7, scale=1.0,
                            sim=sim, workload_overrides=overrides)


def timed_run(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    result, sim = run_traced(cfg)
    seconds = time.perf_counter() - t0
    epochs = len(result.epoch_ticks)
    return {
        "seconds": round(seconds, 4),
        "ticks": sim.tick,
        "epochs": epochs,
        "epochs_per_sec": round(epochs / seconds, 3) if seconds > 0 else None,
        "meta_ops": result.meta_ops,
        "_trace": sim.trace.dumps(),
    }


def run_shape(name: str, mk_cfg, *, note: str = "") -> dict:
    """Run one shape under both engines and verify trace equality."""
    print(f"[{name}] scalar ...", flush=True)
    scalar = timed_run(mk_cfg("scalar"))
    print(f"[{name}] columnar ...", flush=True)
    columnar = timed_run(mk_cfg("columnar"))
    equal = scalar.pop("_trace") == columnar.pop("_trace")
    speedup = (round(scalar["seconds"] / columnar["seconds"], 2)
               if columnar["seconds"] > 0 else None)
    entry = {
        "name": name,
        "note": note,
        "config": describe(mk_cfg("columnar")),
        "scalar": scalar,
        "columnar": columnar,
        "speedup": speedup,
        "traces_equal": equal,
    }
    print(f"[{name}] scalar {scalar['seconds']}s columnar "
          f"{columnar['seconds']}s speedup {speedup}x equal={equal}",
          flush=True)
    return entry


def describe(cfg: ExperimentConfig) -> dict:
    sim = cfg.sim
    return {
        "workload": cfg.workload,
        "balancer": cfg.balancer,
        "n_clients": cfg.n_clients,
        "seed": cfg.seed,
        "n_mds": sim.n_mds,
        "mds_capacity": sim.mds_capacity,
        "epoch_len": sim.epoch_len,
        "max_ticks": sim.max_ticks,
        "workload_overrides": cfg.workload_overrides or {},
    }


class MegaTreeWorkload(Workload):
    """Create clients on a million-directory namespace.

    Each client creates into its own private directory (the mdtest
    pattern); the rest of the namespace is a wide two-level cold fanout
    that the authority, stats, and candidate layers must carry every
    epoch. Defined bench-locally: the paper's workloads never need a
    tree this large.
    """

    name = "megatree"
    paper_meta_ratio = 1.0

    def __init__(self, n_clients: int, *, n_cold_dirs: int = 1_000_000,
                 creates_per_client: int = 1500, jitter: float = 0.005) -> None:
        super().__init__(n_clients, jitter=jitter)
        self.n_cold_dirs = n_cold_dirs
        self.creates_per_client = creates_per_client

    def build_namespace(self, tree, seed):
        dirs = list(tree.add_dirs(0, [f"mega{i}" for i in range(self.n_clients)]))
        cold_root = tree.add_dir(0, "cold")
        fanout = 1000
        # one shared name list: every cold parent has the same leaf names
        leaf_names = [f"d{j}" for j in range(fanout)]
        for i in range(self.n_cold_dirs // fanout):
            tree.add_dirs(tree.add_dir(cold_root, f"c{i}"), leaf_names)
        return BuiltNamespace(tree, 0, dirs, [0] * len(dirs))

    def client_ops(self, built, client_index, seed):
        return RepeatOps((OP_CREATE, built.dirs[client_index], -1, 0),
                         self.creates_per_client)


def run_mega(*, n_mds: int = 64, n_clients: int = 256,
             n_cold_dirs: int = 1_000_000, creates: int = 1500) -> dict:
    print(f"[mega{n_mds}_1m] building {n_cold_dirs}+ dirs ...", flush=True)
    t0 = time.perf_counter()
    instance = MegaTreeWorkload(
        n_clients, n_cold_dirs=n_cold_dirs,
        creates_per_client=creates).materialize(seed=7)
    build_s = time.perf_counter() - t0
    sim_cfg = SimConfig(n_mds=n_mds, mds_capacity=100.0, epoch_len=10,
                        max_ticks=20_000, migration_rate=50,
                        engine="columnar")
    t0 = time.perf_counter()
    sim = Simulator(instance, make_balancer("lunule"), sim_cfg)
    result = sim.run()
    seconds = time.perf_counter() - t0
    epochs = len(result.epoch_ticks)
    done = len(result.completion_ticks)
    entry = {
        "name": f"mega{n_mds}_1m",
        "note": "64-rank, million-directory end-to-end run (columnar only; "
                "the dense scalar-era policy path made this infeasible)",
        "config": {
            "workload": "megatree", "balancer": "lunule",
            "n_clients": n_clients, "n_mds": n_mds,
            "n_dirs": instance.tree.n_dirs, "mds_capacity": 100.0,
            "epoch_len": 10, "creates_per_client": creates, "seed": 7,
        },
        "columnar": {
            "build_seconds": round(build_s, 2),
            "seconds": round(seconds, 2),
            "ticks": sim.tick,
            "epochs": epochs,
            "epochs_per_sec": round(epochs / seconds, 3),
            "meta_ops": result.meta_ops,
            "clients_done": done,
        },
        "completed_end_to_end": done == n_clients,
    }
    print(f"[mega{n_mds}_1m] {instance.tree.n_dirs} dirs, {sim.tick} ticks, "
          f"{seconds:.1f}s, clients_done={done}/{n_clients}", flush=True)
    return entry


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_core.json",
                    help="output JSON path (default: ./BENCH_core.json)")
    ap.add_argument("--smoke", action="store_true",
                    help="small CI shape only (one fig13 point, no mega run)")
    ap.add_argument("--check-speedup", type=float, default=None, metavar="X",
                    help="exit 1 unless the headline shape reaches X x")
    args = ap.parse_args(argv)

    entries: list[dict] = []
    if args.smoke:
        entries.append(run_shape(
            "smoke_n4",
            lambda e: fig13a_config(4, engine=e, creates=800),
            note="CI smoke shape: fig13a n=4 with 800 creates/client"))
        headline = entries[-1]
    else:
        for n in (4, 8, 16):
            entries.append(run_shape(
                f"fig13a_n{n}", lambda e, n=n: fig13a_config(n, engine=e),
                note="exact Figure-13a cell; jitter-bound (see note above)"))
        entries.append(run_shape(
            "fig13_serveheavy_n8",
            lambda e: fig13a_config(8, engine=e, creates=50_000,
                                    capacity=1000.0, jitter=0.005),
            note="serve-path-dominated fig13 shape: capacity 1000, 50k "
                 "creates/client, jitter 0.005 — the headline speedup"))
        headline = entries[-1]
        entries.append(run_mega())

    doc = {
        "schema": SCHEMA,
        "headline": headline["name"],
        "entries": entries,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")

    bad = [e["name"] for e in entries if e.get("traces_equal") is False]
    if bad:
        print(f"TRACE DIVERGENCE in {bad}; speedups are void", file=sys.stderr)
        return 1
    if args.check_speedup is not None:
        got = headline.get("speedup") or 0.0
        if got < args.check_speedup:
            print(f"headline speedup {got}x < required "
                  f"{args.check_speedup}x", file=sys.stderr)
            return 1
    if not args.smoke and not entries[-1]["completed_end_to_end"]:
        print("mega run did not complete end-to-end", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
