"""Repeat the benchmark: run-to-run spread, and the exact-count determinism check.

Spread (one run per seed, ``--trace 0``)::

    python3 perfbench/spread.py --workload range-cold --seeds 1-10 --seconds 40

prints each end-to-end metric's median, quartiles (``statistics.quantiles``,
``n=4``) and the quartile distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.

Determinism (two ``--trace 1`` runs with one seed)::

    python3 perfbench/spread.py --workload range-cold --seeds 3 --seconds 40 --determinism

fails unless every count metric of the two runs is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that are exact work counts (no timing in them).
COUNT_METRICS = (
    "relational.cq_evaluations",
    "lineage.clauses_per_query",
    "answers_per_query",
    "qobdd.nodes_per_query",
    "intersect.pair_expansions_per_query",
    "intersect.touched_components_per_query",
    "mvindex.components",
    "mvindex.obdd_nodes",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {completed.returncode})")
    return json.loads(lines[-1])


def seeds_of(text: str) -> list[int]:
    first, __, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="one seed or a range like 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    if args.determinism:
        seed = seeds_of(args.seeds)[0]
        first, second = (run(args.workload, seed, seconds, 1)["metrics"] for __ in range(2))
        differing = [
            name for name in COUNT_METRICS
            if first[name]["value"] != second[name]["value"]
        ]
        for name in COUNT_METRICS:
            print(f"{name:<40} {first[name]['value']!r:>20} {second[name]['value']!r:>20}")
        if differing:
            print(f"counts differ between two traced runs: {differing}")
            return 1
        print("counts identical")
        return 0

    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        result = run(args.workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<16} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{(q3 - q1) / median:>8.4f} {bounds.get(name, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
