"""CC-MVIntersect: the cache-conscious variant of MVIntersect.

The paper's CC-MVIntersect (Sect. 4.3) replaces the pointer-based BDD node
representation with a flat vector sorted by the DFS order of the OBDD, so
that the traversal touches memory sequentially.  The Python analogue of that
optimisation is to drive the online traversal over dense parallel arrays
(level, 0-child, 1-child, probUnder — a
:class:`~repro.mvindex.augmented.FlatObdd`) with an explicit stack over small
integer indices and a flat memo keyed by packed integers, instead of
recursive calls over manager nodes and tuple-keyed dictionaries.  The two
sides reach that layout differently:

* every component OBDD of the index is re-encoded once, in DFS order, when
  it is first needed (:func:`prewarm_flat_encodings` does all of them when a
  serving session warms up);
* the query OBDD is compiled per answer into a fresh manager whose arrays
  are already flat, in children-first creation order
  (:func:`repro.mvindex.intersect.compile_query_obdd`), so nothing is
  re-encoded online.

The algorithmic behaviour (what is traversed, which shortcuts apply) is
exactly that of :func:`repro.mvindex.intersect.mv_intersect`; only the
constant factors differ, which is what Fig. 9 measures.  Touched components
that interleave in the variable order take the pointer path's synthesised
fallback with the already compiled query.
"""

from __future__ import annotations

from typing import Mapping

from repro.lineage.dnf import DNF
from repro.mvindex.augmented import FlatObdd
from repro.mvindex.index import IndexedComponent, MVIndex
from repro.mvindex.intersect import (
    IntersectStatistics,
    _level_probabilities,
    _record_statistics,
    _synthesised_intersect,
    compile_query_obdd,
)
from repro.mvindex.summaries import SkipAnalysis
from repro.obdd.manager import ONE, ZERO


def _flat_component(component) -> FlatObdd:
    """The cached flat encoding of one index component (built on first use)."""
    cached = getattr(component, "_flat", None)
    if cached is None:
        cached = FlatObdd.from_augmented(component.obdd)
        component._flat = cached
    return cached


def prewarm_flat_encodings(index: MVIndex) -> None:
    """Build the flat encoding of every component of ``index`` eagerly.

    The flat arrays are normally built lazily the first time a component is
    touched, which is a (benign) write to shared state.  Serving layers that
    want the index to be strictly read-only during concurrent queries call
    this once up front (see :meth:`repro.serving.session.QuerySession.warm`).
    """
    for component in index.components.values():
        _flat_component(component)


def cc_mv_intersect(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    statistics: IntersectStatistics | None = None,
    include_untouched: bool = True,
    skip: SkipAnalysis | None = None,
    touched: list[IndexedComponent] | None = None,
) -> float:
    """``P0(Q ∧ ¬W)`` by the cache-conscious flat-array traversal.

    With ``include_untouched=False`` the product over components the query
    does not touch is left out — the caller divides by the touched-only
    ``P0(¬W_k)`` product instead, which keeps the Theorem 1 ratio finite on
    indexes with thousands of components (see :meth:`MVIndex.touched_factor`).
    ``skip`` threads a pre-computed
    :class:`~repro.mvindex.summaries.SkipAnalysis` through, enabling the
    index-order reuse fast path of :func:`compile_query_obdd` and the
    index's shared level-probability map.  ``touched`` passes the lineage's
    touched components when the caller already looked them up.
    """
    probabilities = probabilities or {}
    stats = statistics if statistics is not None else IntersectStatistics()

    if query_lineage.is_false:
        return 0.0
    if query_lineage.is_true:
        return index.probability_not_w() if include_untouched else 1.0

    query, order = compile_query_obdd(index, query_lineage, probabilities, skip=skip)
    if touched is None:
        touched = index.touched_components(query_lineage.variables())
    _record_statistics(stats, index, query, touched, skip)
    untouched = (
        index.untouched_factor({component.key for component in touched})
        if include_untouched
        else 1.0
    )
    if not touched:
        return query.probability * untouched

    q_probability, w_probability = _level_probabilities(
        index, query, order, probabilities, skip
    )
    ordered = sorted(touched, key=lambda c: c.min_level)
    if any(
        current.min_level <= previous.max_level
        for previous, current in zip(ordered, ordered[1:])
    ):
        # Rare case (components overlap in the variable order): conjoin them
        # explicitly, as the pointer-based algorithm does.
        return (
            _synthesised_intersect(index, query, ordered, q_probability, w_probability)
            * untouched
        )
    return _flat_intersect(query, ordered, q_probability, w_probability, stats) * untouched


def _flat_intersect(
    query: FlatObdd,
    ordered: list[IndexedComponent],
    q_probability: Mapping[int, float],
    w_probability: Mapping[int, float],
    stats: IntersectStatistics,
) -> float:
    """The flat-array traversal of ``query`` against the chain ``ordered``.

    ``ordered`` holds the touched components sorted by level range, with no
    two ranges interleaving.  A Shannon expansion on a level the query OBDD
    decides reads ``q_probability``; one only the index decides reads
    ``w_probability``.
    """
    chain = [_flat_component(component) for component in ordered]
    chain_count = len(chain)
    chain_levels = [component.levels for component in chain]
    chain_lows = [component.lows for component in chain]
    chain_highs = [component.highs for component in chain]
    chain_under = [component.prob_under for component in chain]
    chain_roots = [component.root for component in chain]
    suffix = [1.0] * (chain_count + 1)
    for position in range(chain_count - 1, -1, -1):
        suffix[position] = ordered[position].probability_not_w * suffix[position + 1]
    q_levels, q_lows, q_highs, q_under = query.levels, query.lows, query.highs, query.prob_under
    # Memo keys pack (chain index, component node, query node) into one integer:
    # nodes of component i are offset by the total size of earlier components.
    q_span = len(q_levels)
    offsets = [0] * chain_count
    running = 0
    for position, levels in enumerate(chain_levels):
        offsets[position] = running
        running += len(levels)

    def resolve(q_node: int, chain_index: int, w_node: int):
        """Normalise a state: advance past exhausted components, detect leaves."""
        while True:
            if q_node == ZERO or w_node == ZERO:
                return 0.0
            if w_node == ONE:
                if chain_index + 1 < chain_count:
                    chain_index += 1
                    w_node = chain_roots[chain_index]
                    continue
                return q_under[q_node]
            if q_node == ONE:
                return chain_under[chain_index][w_node] * suffix[chain_index + 1]
            return (q_node, chain_index, w_node)

    initial = resolve(query.root, 0, chain_roots[0])
    if type(initial) is float:
        return initial

    memo: dict[int, float] = {}
    expansions = 0
    stack: list[tuple[int, int, int]] = [initial]
    while stack:
        q_node, chain_index, w_node = stack[-1]
        key = (offsets[chain_index] + w_node) * q_span + q_node
        if key in memo:
            stack.pop()
            continue
        q_level = q_levels[q_node]
        w_level = chain_levels[chain_index][w_node]
        if q_level <= w_level:
            probability = q_probability[q_level]
            q_low, q_high = q_lows[q_node], q_highs[q_node]
        else:
            probability = w_probability[w_level]
            q_low, q_high = q_node, q_node
        if w_level <= q_level:
            w_low, w_high = chain_lows[chain_index][w_node], chain_highs[chain_index][w_node]
        else:
            w_low, w_high = w_node, w_node
        low_state = resolve(q_low, chain_index, w_low)
        high_state = resolve(q_high, chain_index, w_high)
        pending = False
        if type(low_state) is not float:
            low_key = (offsets[low_state[1]] + low_state[2]) * q_span + low_state[0]
            low_value = memo.get(low_key)
            if low_value is None:
                stack.append(low_state)
                pending = True
            else:
                low_state = low_value
        if type(high_state) is not float:
            high_key = (offsets[high_state[1]] + high_state[2]) * q_span + high_state[0]
            high_value = memo.get(high_key)
            if high_value is None:
                stack.append(high_state)
                pending = True
            else:
                high_state = high_value
        if pending:
            continue
        memo[key] = (1.0 - probability) * low_state + probability * high_state
        expansions += 1
        stack.pop()

    stats.pair_expansions += expansions
    return memo[(offsets[initial[1]] + initial[2]) * q_span + initial[0]]
