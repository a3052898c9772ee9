"""DPsize join enumeration (Moerkotte & Neumann [34]).

Enumerates connected subplans by size: for every target size ``s`` and
split ``s1 + s2 = s``, all pairs of disjoint connected subsets of sizes
``s1``/``s2`` that are linked by a join edge are combined, keeping the
cheapest plan per subset. The cost model is pluggable (C_out or T3) and
is called once per size level with all of that level's candidates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..errors import PlanError
from .costmodels import DPState, JoinCostModel
from .joingraph import JoinGraph

#: A join tree: either a relation index (leaf) or a (left, right) pair.
JoinTree = Union[int, Tuple["JoinTree", "JoinTree"]]


@dataclass
class _Entry:
    tree: JoinTree
    state: DPState
    cardinality: float


@dataclass
class DPResult:
    """Outcome of one DPsize run."""

    tree: JoinTree
    cost: float
    cardinality: float
    model_calls: int
    optimization_seconds: float
    n_entries: int


def dpsize(graph: JoinGraph, cost_model: JoinCostModel) -> DPResult:
    """Find the cheapest bushy join tree without cross products."""
    n = graph.n_relations
    if n > 24:
        raise PlanError(f"DPsize limited to 24 relations, got {n}")
    start_time = time.perf_counter()
    calls_before = cost_model.model_calls

    table: Dict[int, _Entry] = {}
    by_size: List[List[int]] = [[] for _ in range(n + 1)]
    for relation, state in zip(graph.relations,
                               cost_model.leaves(graph.relations)):
        mask = 1 << relation.index
        table[mask] = _Entry(relation.index, state, relation.cardinality)
        by_size[1].append(mask)

    # Ordered pairs: (T1, T2) and (T2, T1) are distinct candidates, as
    # the left subtree builds and the right probes — cost models like T3
    # are orientation-sensitive (C_out is symmetric and unaffected).
    for size in range(2, n + 1):
        # Level ``size`` only reads entries of smaller sizes, so all of
        # its candidates are enumerated first, costed in one cost-model
        # call, and then kept first-strictly-cheaper in enumeration order.
        lefts: List[_Entry] = []
        rights: List[_Entry] = []
        masks: List[int] = []
        for left_size in range(1, size):
            right_size = size - left_size
            for left_mask in by_size[left_size]:
                for right_mask in by_size[right_size]:
                    if left_mask & right_mask:
                        continue
                    if not graph.connected(left_mask, right_mask):
                        continue
                    lefts.append(table[left_mask])
                    rights.append(table[right_mask])
                    masks.append(left_mask | right_mask)
        if not masks:
            continue
        out_cards = [graph.cardinality(mask) for mask in masks]
        states = cost_model.combine(
            [left.state for left in lefts], [right.state for right in rights],
            [left.cardinality for left in lefts],
            [right.cardinality for right in rights], out_cards)
        for left, right, combined, out_card, state in zip(
                lefts, rights, masks, out_cards, states):
            existing = table.get(combined)
            if (existing is None
                    or state.comparison_cost < existing.state.comparison_cost):
                if existing is None:
                    by_size[size].append(combined)
                table[combined] = _Entry(
                    (left.tree, right.tree), state, out_card)

    full_mask = (1 << n) - 1
    if full_mask not in table:
        raise PlanError("join graph is not connected")
    best = table[full_mask]
    return DPResult(
        tree=best.tree,
        cost=best.state.comparison_cost,
        cardinality=best.cardinality,
        model_calls=cost_model.model_calls - calls_before,
        optimization_seconds=time.perf_counter() - start_time,
        n_entries=len(table))


def join_tree_tables(tree: JoinTree, graph: JoinGraph) -> List[str]:
    """Flatten a join tree to its table names, left-deep order."""
    if isinstance(tree, int):
        return [graph.relations[tree].table]
    left, right = tree
    return join_tree_tables(left, graph) + join_tree_tables(right, graph)


def tree_to_logical(tree: JoinTree, graph: JoinGraph):
    """Rebuild a logical join tree with the chosen order (forced plan)."""
    from ..engine.logical import LogicalJoin

    def build(node: JoinTree) -> Tuple[object, int]:
        if isinstance(node, int):
            return graph.relations[node].scan, 1 << node
        left_plan, left_mask = build(node[0])
        right_plan, right_mask = build(node[1])
        graph_edge = graph.edge_between_sets(left_mask, right_mask)
        if graph_edge is None:
            raise PlanError("join tree contains a cross product")
        edge = graph_edge.edge
        # Orient the edge so its left table is in the left subtree.
        left_tables = {graph.relations[i].table for i in range(graph.n_relations)
                       if left_mask & (1 << i)}
        if edge.left_table not in left_tables:
            edge = edge.reversed()
        return LogicalJoin(left_plan, right_plan, edge), left_mask | right_mask

    plan, _ = build(tree)
    return plan
