"""In-process worker for the ``range-cold`` workload.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
sets up the engine (DBLP generation, Theorem-1 translation, MV-index
compile, ``warm()``), prints ``READY <json>``, issues the queries in the
seeded order on one thread, each once per cache generation, re-checks a
sample against ``method="mvindex-mv"`` outside the timed region and prints
``RESULT <json>`` with the raw measurements.  With ``--setup-only`` it exits
after ``READY`` (the extra set-ups ``run.py`` times for ``setup_s``).

In a traced run (``--trace-out``) the layer wrappers are installed for the
set-up and for every other query; the queries in between run with the
original functions, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (the benchmark's span recorder, beside this file)
import workloads  # noqa: E402

#: Queries re-answered with ``mvindex-mv`` after the timed region.
CHECK_SAMPLE = 8
#: Traced queries whose exact counts are reported (a fixed prefix of the
#: seeded order, so two traced runs with one seed count the same queries).
COUNT_WINDOW = 30


def answers_of(result) -> tuple[tuple[tuple, float], ...]:
    return tuple(sorted((tuple(answer.values), answer.probability) for answer in result))


def setup():
    import repro
    from repro.dblp import DblpConfig, build_mvdb

    workload = build_mvdb(
        DblpConfig(group_count=workloads.COLD_GROUPS, seed=workloads.DATA_SEED)
    )
    db = repro.connect(workload.mvdb)
    db.warm()
    return db


def check(db, expected: dict[str, tuple]) -> int:
    """Re-answer the sampled queries with ``mvindex-mv``; returns the mismatches."""
    return sum(
        not workloads.same_answers(answers, answers_of(db.query(query, method="mvindex-mv")))
        for query, answers in expected.items()
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    tracer = spans.Tracer() if args.trace_out is not None else None
    undo = spans.install(tracer) if tracer is not None else []
    db = setup()
    spans.uninstall(undo)
    index = db.engine.mv_index
    print("READY " + json.dumps({"components": index.component_count()}), flush=True)
    if args.setup_only:
        return 0

    order = workloads.seeded_order(workloads.range_queries(), args.seed)
    # The check sample is drawn from queries every run issues, so only its
    # answers are kept (the benchmark's own memory stays out of peak RSS).
    sample = set(random.Random(args.seed + 1).sample(
        order[:workloads.MIN_READS], CHECK_SAMPLE
    ))
    window = COUNT_WINDOW if tracer is not None else 0
    latencies: list[float] = []
    traced_latencies: list[float] = []
    expected: dict[str, tuple] = {}
    counted: list[dict[str, int]] = []
    failed = 0
    busy = 0.0
    position = 0
    reads = 0
    # At least one full pass, so every seed measures the same query set.
    min_reads = max(workloads.MIN_READS, len(order))
    while busy < args.seconds or reads < min_reads or len(counted) < window:
        if position == len(order):
            # Every query has been issued once: start a fresh cache
            # generation (untimed) so the next pass is cold again.
            db.session.invalidate()
            db.warm()
            position = 0
        query = order[position]
        position += 1
        traced = tracer is not None and reads % 2 == 0
        if traced:
            tracer.current_request = reads + 1
            undo = spans.install(tracer)
        start = time.perf_counter()
        try:
            result = db.query(query)
        except Exception as exc:  # a failed read is counted, not fatal
            print(f"read failed: {query!r}: {exc}", file=sys.stderr)
            result = None
        end = time.perf_counter()
        if traced:
            spans.uninstall(undo)
            tracer.record("client.query", start, end, reads + 1)
        reads += 1
        busy += end - start
        if result is None:
            failed += 1
            continue
        (traced_latencies if traced else latencies).append(end - start)
        if query in sample:
            expected.setdefault(query, answers_of(result))
        if traced and len(counted) < window:
            counted.append(
                {
                    "request": reads,
                    "answers": len(result),
                    "lineage_clauses": sum(answer.lineage_size for answer in result),
                    "qobdd_nodes": result.obdd_nodes,
                    "pair_expansions": result.steps,
                    "touched_components": result.touched_components,
                }
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = db.stats()
    mismatched = check(db, expected)

    document = {
        "reads": reads,
        "failed": failed,
        "busy_s": busy,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "peak_rss_mb": peak_rss_mb,
        "checked": len(expected),
        "mismatched": mismatched,
        "cache": {
            tier: {"hits": cache[f"{tier}_hits"], "misses": cache[f"{tier}_misses"]}
            for tier in ("result", "lineage")
        },
        "counted": counted,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
    print("RESULT " + json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
