"""DPsize join enumeration (Moerkotte & Neumann [34]).

Enumerates connected subplans by size: for every target size ``s`` and
split ``s1 + s2 = s``, all pairs of disjoint connected subsets of sizes
``s1``/``s2`` that are linked by a join edge are combined, keeping the
cheapest plan per subset. Which pairs those are depends on the graph
alone, so the graph enumerates them once (:meth:`JoinGraph.dp_levels`)
and a run only costs them. The cost model is pluggable (C_out or T3)
and is called once per size level with all of that level's candidates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple, Union

from ..errors import PlanError
from .costmodels import JoinCostModel
from .joingraph import JoinGraph

#: A join tree: either a relation index (leaf) or a (left, right) pair.
JoinTree = Union[int, Tuple["JoinTree", "JoinTree"]]


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
    """Find the cheapest bushy join tree without cross products.

    The first run on a graph enumerates its levels inside the timed
    call; a later one only costs them.
    """
    start_time = time.perf_counter()
    calls_before = cost_model.model_calls
    plan = graph.dp_levels()
    n = graph.n_relations
    # A one-relation graph has no levels: its result is leaf 0.
    costs = cost_model.leaves(graph, plan.n_entries).tolist()
    winners = [0]
    # Entry ``e``'s winning pair is (back_left[e - n], back_right[e - n]).
    back_left: List[int] = []
    back_right: List[int] = []
    for level in plan.levels:
        costs = cost_model.combine(level).tolist()
        # Each subset keeps its first strictly cheapest candidate in
        # enumeration order: ``min`` replaces its pick only on ``<``.
        cost_of = costs.__getitem__
        winners = [min(group, key=cost_of) for group in level.groups]
        cost_model.keep(winners)
        back_left += map(level.lefts.__getitem__, winners)
        back_right += map(level.rights.__getitem__, winners)

    def tree(entry: int) -> JoinTree:
        if entry < n:
            return entry
        return (tree(back_left[entry - n]), tree(back_right[entry - n]))

    return DPResult(
        tree=tree(plan.n_entries - 1),
        cost=costs[winners[-1]],
        cardinality=plan.cardinality,
        model_calls=cost_model.model_calls - calls_before,
        optimization_seconds=time.perf_counter() - start_time,
        n_entries=plan.n_entries)


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
