"""Workload definitions: data sizes and the seeded query populations.

The DBLP data is fixed (generator seed 0) so that every run of a workload
measures the same database; ``--seed`` chooses the order in which the
queries are issued and which answers are re-checked.
"""

from __future__ import annotations

import random

#: Research groups of the synthetic DBLP data -> MV-index components
#: (generator seed 0): 400 -> 1018, 100 -> 253.
COLD_GROUPS = 400
MIXED_GROUPS = 100
DATA_SEED = 0

#: Year-window range scans on ``range-cold``: windows of 1 to 4 years inside
#: the generator's year range, three head shapes -> 198 distinct queries.
FIRST_YEAR, LAST_YEAR = 1995, 2012
MAX_WINDOW_YEARS = 4
RANGE_HEADS = (
    "Q(aid, aid1) :- Student(aid, year), Advisor(aid, aid1), year >= {a}, year <= {b}",
    "Q(aid1) :- Student(aid, year), Advisor(aid, aid1), year >= {a}, year <= {b}",
    "Q(aid) :- Student(aid, year), year >= {a}, year <= {b}",
)

#: ``serve-mixed``: zipf mix over 100 entities x 3 templates = 300 strings,
#: which fits the server's 1024-entry string cache.  One fact append per
#: ``READS_PER_APPEND`` reads; ``RACING_READS`` reads run while it is in
#: flight, then the reader waits for it.  A clock-driven writer made the
#: share of slow reads, and with it p50, p95 and qps, swing from run to run
#: (``DESIGN.md``).
MIXED_ENTITIES = 100
MIXED_WORKERS = 2
READS_PER_APPEND = 3000
RACING_READS = 50
APPEND_BATCH = 4

#: Every run issues at least this many reads, so ten samples lie beyond p95.
MIN_READS = 200


def range_queries() -> list[str]:
    """Every year window of at most ``MAX_WINDOW_YEARS`` under every head."""
    queries = []
    for head in RANGE_HEADS:
        for first in range(FIRST_YEAR, LAST_YEAR + 1):
            for width in range(1, MAX_WINDOW_YEARS + 1):
                last = first + width - 1
                if last <= LAST_YEAR:
                    queries.append(head.format(a=first, b=last))
    return queries


def seeded_order(queries: list[str], seed: int) -> list[str]:
    """The population in the order a run with ``seed`` issues it."""
    ordered = list(queries)
    random.Random(seed).shuffle(ordered)
    return ordered


def same_answers(got: tuple, reference: tuple) -> bool:
    """Whether two sorted ``(values, probability)`` answer lists agree.

    Answer tuples must be identical and probabilities inside [0, 1] and
    within ``GATE_PROBABILITY_ULPS`` of the reference (``repro.numerics``).
    """
    from repro.numerics import GATE_PROBABILITY_ULPS, within_ulps

    return len(got) == len(reference) and all(
        got_values == ref_values
        and 0.0 <= got_p <= 1.0
        and within_ulps(got_p, ref_p, GATE_PROBABILITY_ULPS)
        for (got_values, got_p), (ref_values, ref_p) in zip(got, reference)
    )
