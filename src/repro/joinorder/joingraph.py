"""Join graphs with a cardinality oracle.

The join-ordering experiments use *correct* cardinalities supplied with
low latency (the paper's "cardinality oracle"), so the measured
optimization time stresses the cost model, not estimation. The oracle
here memoizes subset cardinalities computed from filtered base
cardinalities and per-edge join selectivities. The graph also memoizes
each relation's featurized leaf scan, which every T3-costed DPsize run
on it starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.features import FeatureRegistry
from ..errors import PlanError
from ..engine.cardinality import ExactCardinalityModel
from ..engine.catalog import Catalog
from ..engine.logical import LogicalJoin, LogicalNode, LogicalScan
from ..engine.physical import PTableScan
from ..engine.pipelines import Pipeline, StageRef
from ..engine.schema import JoinEdge
from ..engine.stages import Stage


@dataclass
class Relation:
    """One base relation of the join graph."""

    index: int
    table: str
    scan: LogicalScan
    cardinality: float      # after local predicates (oracle)
    base_rows: float        # before predicates


@dataclass
class GraphEdge:
    """A join edge between two relations with its oracle selectivity."""

    left: int
    right: int
    edge: JoinEdge
    selectivity: float

    def other(self, index: int) -> int:
        return self.right if index == self.left else self.left


class JoinGraph:
    """Relations + edges + memoized subset-cardinality oracle and leaf
    feature rows."""

    def __init__(self, relations: Sequence[Relation],
                 edges: Sequence[GraphEdge]):
        if not relations:
            raise PlanError("join graph needs at least one relation")
        self.relations = list(relations)
        self.edges = list(edges)
        self._cards: Dict[int, float] = {}
        self._bits: List[int] = []
        self._snapshot: Optional[Tuple[GraphEdge, ...]] = None
        # (id(registry), id(catalog)) -> (registry, catalog, rows). The
        # registry and the catalog are stored beside the rows to pin
        # them alive, as CardinalityModel pins its keys: a recycled id
        # must not serve one registry's rows to another.
        self._leaf_rows: Dict[Tuple[int, int],
                              Tuple[FeatureRegistry, Catalog, np.ndarray]] = {}

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    # -- connectivity ------------------------------------------------------

    def _sync(self) -> Tuple[GraphEdge, ...]:
        """The edge snapshot the neighbour masks and the cardinality memo
        were built from; both are rebuilt when :attr:`edges` has changed
        since."""
        edges = tuple(self.edges)
        if edges != self._snapshot:
            bits = [0] * self.n_relations
            for graph_edge in edges:
                bits[graph_edge.left] |= 1 << graph_edge.right
                bits[graph_edge.right] |= 1 << graph_edge.left
            self._bits, self._snapshot, self._cards = bits, edges, {}
        return self._snapshot

    def neighbour_bits(self) -> List[int]:
        """Per relation index, the mask of the relations it shares an edge
        with, read from :attr:`edges` as they are now."""
        self._sync()
        return self._bits

    def connected(self, mask_a: int, mask_b: int) -> bool:
        """Is there an edge between the two (disjoint) subsets?"""
        reach = 0
        for index, bits in enumerate(self.neighbour_bits()):
            if mask_a >> index & 1:
                reach |= bits
        return bool(reach & mask_b)

    def edge_between_sets(self, mask_a: int,
                          mask_b: int) -> Optional[GraphEdge]:
        for graph_edge in self.edges:
            left_bit = 1 << graph_edge.left
            right_bit = 1 << graph_edge.right
            if (mask_a & left_bit and mask_b & right_bit) or \
               (mask_a & right_bit and mask_b & left_bit):
                return graph_edge
        return None

    # -- cardinality oracle ----------------------------------------------------

    def cardinality(self, mask: int) -> float:
        """Oracle cardinality of a subset (product form, memoized)."""
        return self.cardinalities([mask])[0]

    def cardinalities(self, masks: Sequence[int]) -> List[float]:
        """:meth:`cardinality` of each mask, under one check of
        :attr:`edges` (DPsize asks for a whole level at once)."""
        edges = self._sync()
        out = []
        for mask in masks:
            card = self._cards.get(mask)
            if card is None:
                card = 1.0
                for relation in self.relations:
                    if mask & (1 << relation.index):
                        card *= relation.cardinality
                for graph_edge in edges:
                    if (mask & (1 << graph_edge.left)
                            and mask & (1 << graph_edge.right)):
                        card *= graph_edge.selectivity
                self._cards[mask] = card
            out.append(card)
        return out

    # -- leaf feature rows ---------------------------------------------------

    def leaf_rows(self, registry: FeatureRegistry,
                  catalog: Catalog) -> np.ndarray:
        """Each relation's scan featurized as a one-stage pipeline: a
        read-only ``(n_relations, n_features)`` matrix in relation order.

        A row depends only on its relation, the catalog and the
        registry, so it is computed on the first request for that
        (registry, catalog) pair and kept as long as the graph. Every
        later DPsize run on the graph copies the stored rows.
        """
        key = (id(registry), id(catalog))
        hit = self._leaf_rows.get(key)
        if hit is None:
            rows = np.empty((self.n_relations, registry.n_features))
            exact = ExactCardinalityModel(catalog)
            for i, relation in enumerate(self.relations):
                rows[i] = registry.vector_for_pipeline(
                    _leaf_pipeline(relation, catalog), exact)
            rows.setflags(write=False)
            hit = self._leaf_rows[key] = (registry, catalog, rows)
        return hit[2]

    # -- construction from logical plans -------------------------------------------

    @classmethod
    def from_logical(cls, plan: LogicalNode, catalog: Catalog) -> "JoinGraph":
        """Extract the join graph of an SPJ(-plus-aggregation) query.

        Walks past non-join operators at the top, then collects scans
        and inner-join edges. Oracle numbers come from the exact
        cardinality model's machinery: true predicate selectivities,
        correlation factors, distinct counts, and fanouts.
        """
        scans: List[LogicalScan] = []
        join_pairs: List[JoinEdge] = []

        def collect(node: LogicalNode) -> None:
            if isinstance(node, LogicalScan):
                scans.append(node)
            elif isinstance(node, LogicalJoin):
                if node.kind != "inner":
                    raise PlanError("join graph supports inner joins only")
                join_pairs.append(node.edge)
                collect(node.left)
                collect(node.right)
            elif len(node.inputs) == 1:
                collect(node.inputs[0])
            else:
                raise PlanError(
                    f"cannot extract join graph through {type(node).__name__}")

        collect(plan)
        table_index = {scan.table: i for i, scan in enumerate(scans)}
        if len(table_index) != len(scans):
            raise PlanError("join graph requires distinct table instances")

        exact = _OracleHelper(catalog)
        relations = []
        for i, scan in enumerate(scans):
            base = float(catalog.row_count(scan.table))
            filtered = base * exact.conjunction_selectivity(scan)
            relations.append(Relation(i, scan.table, scan, filtered, base))

        edges = []
        for join_edge in join_pairs:
            left = table_index[join_edge.left_table]
            right = table_index[join_edge.right_table]
            selectivity = exact.join_selectivity(join_edge)
            edges.append(GraphEdge(left, right, join_edge, selectivity))
        return cls(relations, edges)


def _leaf_pipeline(relation: Relation, catalog: Catalog) -> Pipeline:
    """The relation's lowered scan as a one-stage pipeline: every column
    read, predicates in estimated-selectivity order."""
    schema_table = catalog.schema.table(relation.table)
    columns = [(relation.table, c) for c in schema_table.column_names]
    predicates = sorted(relation.scan.predicates,
                        key=lambda p: p.estimated_selectivity(catalog))
    scan = PTableScan(relation.table, predicates,
                      relation.scan.correlation_factor, columns,
                      schema_table.row_byte_width,
                      scan_byte_width=schema_table.row_byte_width)
    return Pipeline(0, [StageRef(scan, Stage.SCAN)])


class GraphCardinalityModel(ExactCardinalityModel):
    """Exact cardinalities backed by a join graph's oracle.

    When a forced join tree combines subsets connected by *several*
    edges, a real engine applies all of them as join predicates; the
    plain per-join model sees only one and over-counts. This model
    computes every join node's output as the graph oracle's cardinality
    of its base-table set, honoring all internal edges — matching what
    executing the forced plan would produce.
    """

    def __init__(self, graph: "JoinGraph", catalog: Catalog):
        super().__init__(catalog)
        self.graph = graph
        self._mask_by_table = {relation.table: 1 << relation.index
                               for relation in graph.relations}

    def _subtree_mask(self, op) -> int:
        from ..engine.physical import PTableScan
        mask = 0
        for node in op.walk():
            if isinstance(node, PTableScan):
                mask |= self._mask_by_table.get(node.table, 0)
        return mask

    def _compute(self, op) -> float:
        from ..engine.physical import _JoinBase
        if isinstance(op, _JoinBase):
            mask = self._subtree_mask(op)
            if mask:
                return self.graph.cardinality(mask)
        return super()._compute(op)


class _OracleHelper(ExactCardinalityModel):
    """Reuses the exact model's selectivity rules for graph construction."""

    def conjunction_selectivity(self, scan: LogicalScan) -> float:
        return self._conjunction_selectivity(scan.predicates,
                                             scan.correlation_factor)

    def join_selectivity(self, edge: JoinEdge) -> float:
        nd_left = float(self.catalog.column_stats(
            edge.left_table, edge.left_column).true_distinct)
        nd_right = float(self.catalog.column_stats(
            edge.right_table, edge.right_column).true_distinct)
        return edge.fanout / max(nd_left, nd_right, 1.0)
