"""Simulator benchmark: host-time cost of simulating Lunule, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mdtest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each run simulates ``INPUTS_PER_RUN`` inputs of one workload, derived
from ``--seed``, round-robin in this one process and thread until
``--seconds`` of host time have passed (every input at least once). It
then checks every input against the ``engine="scalar"`` reference (an
untimed run on the same inputs) and prints a report whose last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: the measured workloads (``shapes.SHAPES``), then the diagnostic ones
#: (``shapes.DIAGNOSTIC``) on which the default engine is known to diverge
WORKLOADS = ("mdtest", "wide_create", "web", "mixed", "nlp", "cnn")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; the inputs are derived from it")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="host seconds to keep measuring (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def verdict(shape, runs: dict[int, list]):
    """Check every timed run against the scalar reference of its input.

    Returns ``(failed, attempted, per-input report, scalar ops/s)``.
    """
    from measure import attempted_ops, failed_ops, simulate

    failed = attempted = 0
    report = []
    ref_ops = ref_s = 0.0
    for seed, records in runs.items():
        n_ops = attempted_ops(shape, seed)
        ref = simulate(shape, seed, engine="scalar")
        ref_ops += ref.meta_ops
        ref_s += ref.run_s
        for rec in records:
            ok = rec.digest == ref.digest
            attempted += n_ops
            failed += failed_ops(n_ops, rec.meta_ops, rec.unfinished, ok)
        rec = records[0]
        report.append({
            "seed": seed, "runs": len(records), "attempted": n_ops,
            "served": rec.meta_ops, "unfinished_clients": rec.unfinished,
            "digest": rec.digest, "scalar_digest": ref.digest,
            "digests_equal": all(r.digest == ref.digest for r in records),
            "checked": rec.checked, "scalar_checked": ref.checked,
        })
    return failed, attempted, report, ref_ops / ref_s


def run_plain(shape, seeds: list[int], seconds: float) -> dict:
    from measure import end_to_end, measure, peak_rss_mb

    runs = measure(shape, seeds, seconds)
    rss = peak_rss_mb()  # before the reference runs touch the heap
    failed, attempted, inputs, _ = verdict(shape, runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": end_to_end(runs, rss), "inputs": inputs}


def run_traced(shape, seeds: list[int], seconds: float, spans_path: pathlib.Path) -> dict:
    from layers import Tracer, layer_totals, per_layer, write_spans
    from measure import median_by_input, measure, simulate

    def pair(shape, seed):
        plain = simulate(shape, seed)
        with Tracer() as tracer:
            traced = simulate(shape, seed)
        return plain, traced, tracer

    pairs = measure(shape, seeds, seconds, run=pair)
    plain_runs = {s: [p for p, _, _ in ps] for s, ps in pairs.items()}
    failed, attempted, inputs, scalar_ops_per_s = verdict(shape, plain_runs)
    for row, ps in zip(inputs, pairs.values()):
        # a wrapper must never change a decision
        row["traced_digest_equal"] = all(t.digest == p.digest for p, t, _ in ps)
        if not row["traced_digest_equal"]:
            failed = attempted
    run_s = median_by_input(plain_runs, lambda r: r.run_s)
    ops = sum(ps[0].meta_ops for ps in plain_runs.values())
    totals = []
    for ps in pairs.values():
        per_run = [layer_totals(tr, t, p) for p, t, tr in ps]
        totals.append({k: statistics.median(r[k] for r in per_run) for k in per_run[0]})
    summed = {k: sum(t[k] for t in totals) for k in totals[0]}
    metrics = per_layer(summed, (ops / sum(run_s.values())) / scalar_ops_per_s)
    n_spans = write_spans(spans_path, [(f"seed {s} run {i}", tr)
                                       for s, ps in pairs.items()
                                       for i, (_, _, tr) in enumerate(ps)])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "inputs": inputs, "spans": n_spans,
            "spans_path": str(spans_path)}


def print_report(workload: str, args, res: dict) -> None:
    print(f"# perfbench {workload}: seed {args.seed}, {args.seconds:g} host s, "
          f"{'traced' if args.trace else 'plain'} run")
    for row in res["inputs"]:
        c = row["checked"]
        print(f"  input seed {row['seed']}: {row['runs']} run(s); attempted "
              f"{row['attempted']} ops, served {row['served']}, unfinished "
              f"clients {row['unfinished_clients']}; digest {row['digest'][:12]} "
              f"scalar {row['scalar_digest'][:12]} equal={row['digests_equal']}"
              + (f" traced-equal={row['traced_digest_equal']}"
                 if "traced_digest_equal" in row else ""))
        print(f"    simulated: mean IF {c['mean_if']:.4f}, last completion tick "
              f"{c['last_completion_tick']}, finished tick {c['finished_tick']}, "
              f"epochs {c['epochs']}, migrated inodes {c['migrated_inodes']}, "
              f"exports committed {c['committed']} aborted {c['aborted']} "
              f"(planned {c['planned']}), forwards {c['forwards']}")
    for name, m in res["metrics"].items():
        samples = f"{m['clock']}, n={m['samples']}" if "samples" in m else ""
        beyond = f", {m['beyond']} beyond" if "beyond" in m else ""
        raw = f"; raw host {m['raw']:.6g}" if "raw" in m else ""
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<6} {samples}{beyond}{raw}")
    print(f"  ops attempted {res['attempted']}, failed {res['failed']}, "
          f"correct={res['correct']}")
    if "spans_path" in res:
        print(f"  {res['spans']} spans written to {res['spans_path']}")


def run_one(args) -> int:
    import shapes

    shape = {**shapes.SHAPES, **shapes.DIAGNOSTIC}[args.workload]
    seeds = shapes.sub_seeds(args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        res = run_traced(shape, seeds, args.seconds, OUT / f"spans-{tag}.json")
    else:
        res = run_plain(shape, seeds, args.seconds)
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in res["metrics"].items()}
    print_report(args.workload, args, res)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{tag}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the simulator sources ({SRC / 'repro'}) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
