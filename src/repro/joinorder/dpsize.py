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
    """Find the cheapest bushy join tree without cross products."""
    n = graph.n_relations
    if n > 24:
        raise PlanError(f"DPsize limited to 24 relations, got {n}")
    start_time = time.perf_counter()
    calls_before = cost_model.model_calls

    # DP entries are ids into these parallel lists; the cost model keeps
    # its own per-entry state under the same ids. ``hoods`` holds each
    # entry's neighbourhood: the relations outside it with an edge into
    # it, so a connectivity test is one AND.
    bits = graph.neighbour_bits()
    masks = [1 << relation.index for relation in graph.relations]
    hoods = [bits[relation.index] & ~mask
             for relation, mask in zip(graph.relations, masks)]
    trees: List[JoinTree] = [relation.index for relation in graph.relations]
    cards = [relation.cardinality for relation in graph.relations]
    costs = cost_model.leaves(graph)
    by_size: List[List[int]] = [[] for _ in range(n + 1)]
    by_size[1] = list(range(n))

    # Ordered pairs: (T1, T2) and (T2, T1) are distinct candidates, as
    # the left subtree builds and the right probes — cost models like T3
    # are orientation-sensitive (C_out is symmetric and unaffected).
    for size in range(2, n + 1):
        # Level ``size`` only reads entries of smaller sizes, so all of
        # its candidates are enumerated first and costed in one
        # cost-model call.
        lefts: List[int] = []
        rights: List[int] = []
        for left_size in range(1, size):
            right_entries = [(right, masks[right])
                             for right in by_size[size - left_size]]
            for left in by_size[left_size]:
                left_mask, hood = masks[left], hoods[left]
                matched = [right for right, right_mask in right_entries
                           if right_mask & hood and not right_mask & left_mask]
                lefts += [left] * len(matched)
                rights += matched
        if not lefts:
            continue
        combined = [masks[left] | masks[right]
                    for left, right in zip(lefts, rights)]
        out_cards = graph.cardinalities(combined)
        level_costs = cost_model.combine(
            lefts, rights, [cards[left] for left in lefts],
            [cards[right] for right in rights], out_cards)
        # Each subset keeps its first strictly cheapest candidate in
        # enumeration order; subsets stay in first-appearance order.
        best: Dict[int, int] = {}
        for k, (mask, cost) in enumerate(zip(combined, level_costs)):
            held = best.get(mask)
            if held is None or cost < level_costs[held]:
                best[mask] = k
        winners = list(best.values())
        cost_model.keep(winners)
        for k in winners:
            left, right, mask = lefts[k], rights[k], combined[k]
            by_size[size].append(len(masks))
            masks.append(mask)
            hoods.append((hoods[left] | hoods[right]) & ~mask)
            trees.append((trees[left], trees[right]))
            cards.append(out_cards[k])
            costs.append(level_costs[k])

    if masks[-1] != (1 << n) - 1:
        raise PlanError("join graph is not connected")
    return DPResult(
        tree=trees[-1],
        cost=costs[-1],
        cardinality=cards[-1],
        model_calls=cost_model.model_calls - calls_before,
        optimization_seconds=time.perf_counter() - start_time,
        n_entries=len(masks))


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
