"""MVIntersect: online evaluation of ``P0(Q ∧ ¬W)`` against an MV-index.

Given a query lineage ``Φ_Q`` (small) and the MV-index of ``W`` (large), the
numerator of Theorem 1, ``P0(Q ∨ W) − P0(W) = P0(Q ∧ ¬W)``, is computed by a
top-down simultaneous traversal of the query OBDD and the indexed component
OBDDs of ``¬W``:

* components of ``W`` not touched by the query contribute their pre-computed
  ``P0(¬W_k)`` as a multiplicative factor (this is why typical queries touch
  only a small fraction of the index);
* inside the touched region the traversal is a memoized pairwise Shannon
  expansion; whenever the query OBDD reaches its 1-terminal, the pre-computed
  ``probUnder`` annotation of the index node closes the remaining sub-OBDD in
  constant time (the augmentation of Sect. 4.1).

Every traversal here is *iterative* — an explicit stack over
``(query node, chain position, index node)`` states — so arbitrarily deep
index OBDDs are evaluated without recursion.  The old implementation
recursed to the depth of the OBDDs and had to raise (and guard, across
threads) the process-global ``sys.setrecursionlimit``; the iterative kernel
made all of that machinery obsolete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import InferenceError
from repro.lineage.dnf import DNF
from repro.mvindex.augmented import AugmentedObdd, FlatObdd
from repro.mvindex.index import IndexedComponent, MVIndex
from repro.mvindex.summaries import SkipAnalysis
from repro.obdd.construct import concatenate_dnf
from repro.obdd.manager import ONE, ZERO, ObddManager
from repro.obdd.order import VariableOrder


@dataclass
class IntersectStatistics:
    """Work counters reported by an intersection run (used by benchmarks)."""

    touched_components: int = 0
    untouched_components: int = 0
    pair_expansions: int = 0
    #: Nodes of the query OBDD compiled for the traversal (also filled by the
    #: from-scratch ``obdd`` method with the size of its ``Q ∨ W`` OBDD).
    query_obdd_nodes: int = 0
    #: Components a :class:`~repro.mvindex.summaries.SkipAnalysis` pruned
    #: before any lineage or OBDD work touched them (0 without skipping).
    skipped_components: int = 0


class _ChainView:
    """A virtual concatenation of touched component OBDDs of ``¬W``.

    Components are ordered by level range; the conjunction ``∧_k ¬W_k`` is
    never materialised — reaching the 1-terminal of one component simply
    advances the traversal to the next component's root.
    """

    def __init__(self, components: list[IndexedComponent]) -> None:
        self.components = sorted(components, key=lambda c: c.min_level)
        for previous, current in zip(self.components, self.components[1:]):
            if current.min_level <= previous.max_level:
                raise InferenceError(
                    "touched MV-index components have interleaving level ranges; "
                    "use the synthesised fallback"
                )
        # Suffix products of P0(¬W_k): suffix[i] = Π_{j ≥ i} P0(¬W_j).
        self.suffix = [1.0] * (len(self.components) + 1)
        for index in range(len(self.components) - 1, -1, -1):
            self.suffix[index] = (
                self.components[index].probability_not_w * self.suffix[index + 1]
            )

    def __len__(self) -> int:
        return len(self.components)

    def obdd(self, index: int) -> AugmentedObdd:
        return self.components[index].obdd


def compile_query_obdd(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float],
    skip: SkipAnalysis | None = None,
) -> tuple[FlatObdd, VariableOrder]:
    """Compile the query lineage under the index order (free variables appended).

    The lineage is compiled with :func:`~repro.obdd.construct.concatenate_dnf`
    into a fresh :class:`~repro.obdd.manager.ObddManager`.  A fresh manager
    holds exactly the query OBDD, numbered children-first with the terminals
    at 0/1 — the :class:`~repro.mvindex.augmented.FlatObdd` encoding — so its
    ``level``/``low``/``high`` arrays are adopted as they are and
    ``prob_under`` is one forward pass over them.  Returns the flat OBDD
    (its ``probability_of_level`` keys the lineage's own levels, the
    caller's ``probabilities`` taking precedence over the index's) and the
    order it was compiled under.

    With a ``skip`` analysis in hand the common case — every lineage
    variable already indexed — reuses ``index.order`` directly instead of
    copying it into an extended order.  The reused order assigns every
    variable the same level the extended one would, so the compiled OBDD
    and all downstream float products are bit-identical.
    """
    variables = query_lineage.variables()
    if skip is not None:
        indexed = index.order.level_map
        if all(variable in indexed for variable in variables):
            order = index.order
        else:
            order = index.order.extend(sorted(variables))
        # The annotation only keys levels of the compiled OBDD, i.e. the
        # lineage's own variables — key just those instead of copying the
        # full per-database probability dictionary for every answer.  Each
        # entry is the exact value the full merge would hold (same override
        # precedence), so the annotations are bit-identical.
        level_of = order.level_map
        probability_of_level = {}
        for variable in variables:
            value = probabilities.get(variable)
            if value is None:
                value = index.probabilities.get(variable)
            if value is not None:
                probability_of_level[level_of[variable]] = value
    else:
        order = index.order.extend(sorted(variables))
        merged_probabilities = dict(index.probabilities)
        merged_probabilities.update(probabilities)
        level_of = order.level_map
        probability_of_level = {
            level_of[variable]: merged_probabilities[variable]
            for variable in variables
            if variable in merged_probabilities
        }
    manager = ObddManager()
    root = concatenate_dnf(manager, query_lineage, order)
    levels, lows, highs = manager._level, manager._low, manager._high
    prob_under = [0.0, 1.0]
    append = prob_under.append
    for node in range(2, len(levels)):
        probability = probability_of_level[levels[node]]
        append(
            (1.0 - probability) * prob_under[lows[node]]
            + probability * prob_under[highs[node]]
        )
    flat = FlatObdd(levels, lows, highs, prob_under, root, probability_of_level)
    return flat, order


def _record_statistics(
    stats: IntersectStatistics,
    index: MVIndex,
    query: FlatObdd,
    touched: list[IndexedComponent],
    skip: SkipAnalysis | None,
) -> None:
    """Fill the per-answer work counters shared by both intersection paths.

    ``query_obdd_nodes`` counts every internal node of the query's fresh
    manager; the concatenation compile leaves none unreachable from the root.
    """
    stats.touched_components = len(touched)
    stats.untouched_components = index.component_count() - len(touched)
    stats.query_obdd_nodes = len(query) - 2
    if skip is not None:
        stats.skipped_components = skip.skipped_count


def _level_probabilities(
    index: MVIndex,
    query: FlatObdd,
    order: VariableOrder,
    probabilities: Mapping[int, float],
    skip: SkipAnalysis | None,
) -> tuple[Mapping[int, float], Mapping[int, float]]:
    """The ``level → probability`` maps for the query side and the index side.

    With a ``skip`` analysis the query's own map (its lineage levels) and
    the index's shared map (every indexed level, kept current by
    :meth:`~repro.mvindex.index.MVIndex.apply_prepared`) are used as they
    are; nothing is built per answer.  Without one, the full merge over
    every probabilistic variable is rebuilt and serves both sides — the
    unrestricted reference path the skip ablation measures.
    """
    if skip is not None:
        return query.probability_of_level, index.probability_of_level
    merged_probabilities = dict(index.probabilities)
    merged_probabilities.update(probabilities)
    probability_of_level = {
        order.level_of(variable): value
        for variable, value in merged_probabilities.items()
        if variable in order
    }
    return probability_of_level, probability_of_level


def mv_intersect(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    statistics: IntersectStatistics | None = None,
    include_untouched: bool = True,
    skip: SkipAnalysis | None = None,
    touched: list[IndexedComponent] | None = None,
) -> float:
    """``P0(Q ∧ ¬W)`` by the (pointer-based) MVIntersect algorithm.

    ``include_untouched=False`` omits the product over components the query
    does not touch (see :func:`repro.mvindex.cc_intersect.cc_mv_intersect`).
    ``skip`` threads a pre-computed
    :class:`~repro.mvindex.summaries.SkipAnalysis` through: it enables the
    index-order reuse fast path of :func:`compile_query_obdd`, reads levels
    from the index's shared probability map and fills the
    ``skipped_components`` work counter.  ``touched`` passes the lineage's
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
    return (
        _pointer_intersect(index, query, touched, q_probability, w_probability, stats)
        * untouched
    )


def _pointer_intersect(
    index: MVIndex,
    query: FlatObdd,
    touched: list[IndexedComponent],
    q_probability: Mapping[int, float],
    w_probability: Mapping[int, float],
    stats: IntersectStatistics,
) -> float:
    """The pointer-based traversal of a compiled query against ``touched``.

    A Shannon expansion on a level the query OBDD decides reads
    ``q_probability``; one only the index decides reads ``w_probability``.
    Touched components that interleave in the variable order take the
    synthesised fallback.
    """
    try:
        chain = _ChainView(touched)
    except InferenceError:
        # Touched components interleave in the variable order: conjoin them
        # explicitly and fall back to a plain pairwise traversal.
        return _synthesised_intersect(index, query, touched, q_probability, w_probability)
    w_manager = index.manager

    chain_count = len(chain)
    chain_roots = [chain.obdd(position).root for position in range(chain_count)]
    chain_under = [chain.obdd(position).prob_under for position in range(chain_count)]
    suffix = chain.suffix
    q_levels, q_lows, q_highs, q_under = query.levels, query.lows, query.highs, query.prob_under

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
                # The augmentation shortcut: close the remaining index
                # sub-OBDD and the untouched suffix of the chain with
                # pre-computed quantities.
                return chain_under[chain_index][w_node] * suffix[chain_index + 1]
            return (q_node, chain_index, w_node)

    memo: dict[tuple[int, int, int], float] = {}
    memo_get = memo.get
    initial = resolve(query.root, 0, chain_roots[0])
    if type(initial) is float:
        return initial

    expansions = 0
    stack: list[tuple[int, int, int]] = [initial]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        q_node, chain_index, w_node = state
        q_level = q_levels[q_node]
        w_level = w_manager.level(w_node)
        if q_level <= w_level:
            probability = q_probability[q_level]
            q_low, q_high = q_lows[q_node], q_highs[q_node]
        else:
            probability = w_probability[w_level]
            q_low, q_high = q_node, q_node
        if w_level <= q_level:
            w_low, w_high = w_manager.low(w_node), w_manager.high(w_node)
        else:
            w_low, w_high = w_node, w_node
        low_state = resolve(q_low, chain_index, w_low)
        high_state = resolve(q_high, chain_index, w_high)
        pending = False
        if type(low_state) is not float:
            low_value = memo_get(low_state)
            if low_value is None:
                stack.append(low_state)
                pending = True
            else:
                low_state = low_value
        if type(high_state) is not float:
            high_value = memo_get(high_state)
            if high_value is None:
                stack.append(high_state)
                pending = True
            else:
                high_state = high_value
        if pending:
            continue
        memo[state] = (1.0 - probability) * low_state + probability * high_state
        expansions += 1
        stack.pop()

    stats.pair_expansions += expansions
    return memo[initial]


def _synthesised_intersect(
    index: MVIndex,
    query: FlatObdd,
    touched: list[IndexedComponent],
    q_probability: Mapping[int, float],
    w_probability: Mapping[int, float],
) -> float:
    """Fallback for interleaving components: conjoin ``¬W_k`` explicitly.

    The conjunction of the touched components is materialised with one
    multi-way apply (:meth:`repro.mvindex.index.MVIndex.conjoined_not_w_root`),
    ``probUnder`` is computed for it, and the standard pairwise Shannon
    traversal — iterative, like everything else — is run against the query
    OBDD.
    """
    w_manager = index.manager
    w_root = index.conjoined_not_w_root(touched)
    prob_under = w_manager.prob_under_map(w_root, w_probability)
    q_levels, q_lows, q_highs, q_under = query.levels, query.lows, query.highs, query.prob_under

    def resolve(q_node: int, w_node: int):
        if q_node == ZERO or w_node == ZERO:
            return 0.0
        if q_node == ONE:
            return prob_under[w_node]
        if w_node == ONE:
            return q_under[q_node]
        return (q_node, w_node)

    memo: dict[tuple[int, int], float] = {}
    memo_get = memo.get
    initial = resolve(query.root, w_root)
    if type(initial) is float:
        return initial

    stack: list[tuple[int, int]] = [initial]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        q_node, w_node = state
        q_level = q_levels[q_node]
        w_level = w_manager.level(w_node)
        if q_level <= w_level:
            probability = q_probability[q_level]
            q_low, q_high = q_lows[q_node], q_highs[q_node]
        else:
            probability = w_probability[w_level]
            q_low, q_high = q_node, q_node
        if w_level <= q_level:
            w_low, w_high = w_manager.low(w_node), w_manager.high(w_node)
        else:
            w_low, w_high = w_node, w_node
        low_state = resolve(q_low, w_low)
        high_state = resolve(q_high, w_high)
        pending = False
        if type(low_state) is not float:
            low_value = memo_get(low_state)
            if low_value is None:
                stack.append(low_state)
                pending = True
            else:
                low_state = low_value
        if type(high_state) is not float:
            high_value = memo_get(high_state)
            if high_value is None:
                stack.append(high_state)
                pending = True
            else:
                high_state = high_value
        if pending:
            continue
        memo[state] = (1.0 - probability) * low_state + probability * high_state
        stack.pop()

    return memo[initial]


def p0_q_or_w(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    algorithm: str = "cc",
) -> float:
    """``P0(Q ∨ W) = P0(W) + P0(Q ∧ ¬W)`` using the chosen intersection algorithm."""
    from repro.mvindex.cc_intersect import cc_mv_intersect

    if algorithm == "cc":
        conjunction = cc_mv_intersect(index, query_lineage, probabilities)
    elif algorithm == "mv":
        conjunction = mv_intersect(index, query_lineage, probabilities)
    else:
        raise InferenceError(f"unknown intersection algorithm {algorithm!r}")
    return index.probability_w() + conjunction
