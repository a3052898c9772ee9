"""Join graphs with a cardinality oracle.

The join-ordering experiments use *correct* cardinalities supplied with
low latency (the paper's "cardinality oracle"), so the measured
optimization time stresses the cost model, not estimation. The oracle
here memoizes subset cardinalities computed from filtered base
cardinalities and per-edge join selectivities. The graph also memoizes
each relation's featurized leaf scan, which every T3-costed DPsize run
on it starts from, and DPsize's candidate levels, which depend on the
graph alone (:meth:`JoinGraph.dp_levels`).
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


@dataclass(frozen=True, slots=True)
class DPLevel:
    """One DPsize size level: every connected, disjoint ``(left, right)``
    pair of smaller entries, in enumeration order (left size, left
    entry, right entry). All fields are indexed by candidate position.

    Only tuples of ints and arrays are stored: the collector stops
    tracing such tuples, so a graph's stored levels add almost nothing
    to every later collection.
    """

    lefts: Tuple[int, ...]     # entry ids: the winners' back-pointers
    rights: Tuple[int, ...]
    ids: np.ndarray            # intp: lefts, then rights
    left_cards: np.ndarray     # float64 oracle cardinality of each side
    right_cards: np.ndarray
    out_cards: np.ndarray      # float64 oracle cardinality of the union
    #: Per entry the level adds, in entry-id order, the positions of the
    #: candidates that form its subset, in enumeration order.
    groups: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class DPLevels:
    """DPsize's candidate structure of one graph, which no cost changes.

    Every connected subset is one entry: leaves are ids ``0..n-1`` in
    relation order, and each level's subsets follow in first-appearance
    order. A run only costs the levels and picks one candidate per
    group.
    """

    levels: Tuple[DPLevel, ...]    # sizes 2..n
    n_entries: int
    cardinality: float         # oracle cardinality of all relations


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
    """Relations + edges + memoized subset-cardinality oracle, DPsize
    levels and leaf feature rows."""

    def __init__(self, relations: Sequence[Relation],
                 edges: Sequence[GraphEdge]):
        if not relations:
            raise PlanError("join graph needs at least one relation")
        self.relations = list(relations)
        self.edges = list(edges)
        self._cards: Dict[int, float] = {}
        self._bits: List[int] = []
        self._snapshot: Optional[Tuple[GraphEdge, ...]] = None
        self._levels: Optional[DPLevels] = None
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
        """The edge snapshot the neighbour masks, the cardinality memo and
        the DPsize levels were built from; all are rebuilt when
        :attr:`edges` has changed since."""
        edges = tuple(self.edges)
        if edges != self._snapshot:
            bits = [0] * self.n_relations
            for graph_edge in edges:
                bits[graph_edge.left] |= 1 << graph_edge.right
                bits[graph_edge.right] |= 1 << graph_edge.left
            self._bits, self._snapshot, self._cards = bits, edges, {}
            self._levels = None
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

    # -- DPsize levels ------------------------------------------------------

    def dp_levels(self) -> DPLevels:
        """DPsize's candidate levels over :attr:`edges` as they are now.

        Enumerated on the first request and kept until the edges change;
        a disconnected graph raises :class:`PlanError` on every request
        and stores nothing.
        """
        self._sync()
        if self._levels is None:
            self._levels = _enumerate_levels(self)
        return self._levels

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


def _enumerate_levels(graph: JoinGraph) -> DPLevels:
    """DPsize's enumeration (Moerkotte & Neumann [34]) of ``graph``.

    Entries are integer ids into parallel lists. Each also keeps its
    neighbourhood: the relations outside it with an edge into it, so a
    connectivity test is one AND. A subset's neighbourhood does not
    depend on how it was split, so it is taken from its first candidate.
    """
    n = graph.n_relations
    if n > 24:
        raise PlanError(f"DPsize limited to 24 relations, got {n}")
    bits = graph.neighbour_bits()
    masks = [1 << index for index in range(n)]
    hoods = [bits[index] & ~masks[index] for index in range(n)]
    cards = [relation.cardinality for relation in graph.relations]
    # Per size, its entries as (id, mask, neighbourhood) in id order.
    by_size = [[], list(zip(range(n), masks, hoods))]
    # Per level: its candidates, their subsets' entry ids, its groups.
    found: List[Tuple[List[Tuple[int, int]], List[int],
                      Tuple[Tuple[int, ...], ...]]] = []

    # Ordered pairs: (T1, T2) and (T2, T1) are distinct candidates, as
    # the left subtree builds and the right probes — cost models like T3
    # are orientation-sensitive (C_out is symmetric and unaffected).
    for size in range(2, n + 1):
        pairs: List[Tuple[int, int]] = []
        for left_size in range(1, size):
            right_entries = by_size[size - left_size]
            pairs += [(left, right)
                      for left, left_mask, hood in by_size[left_size]
                      for right, right_mask, _ in right_entries
                      if right_mask & hood and not right_mask & left_mask]
        # A connected graph has connected subsets of every size.
        if not pairs:
            raise PlanError("join graph is not connected")
        # Each new subset is the next entry id, in first-appearance order.
        first = len(masks)
        entry_of: Dict[int, int] = {}
        unions = [entry_of.setdefault(masks[left] | masks[right],
                                      first + len(entry_of))
                  for left, right in pairs]
        groups: List[List[int]] = [[] for _ in entry_of]
        for k, entry in enumerate(unions):
            groups[entry - first].append(k)
        for mask, group in zip(entry_of, groups):
            left, right = pairs[group[0]]
            hoods.append((hoods[left] | hoods[right]) & ~mask)
        masks += entry_of
        cards += graph.cardinalities(list(entry_of))
        by_size.append(list(zip(range(first, len(masks)), entry_of,
                                hoods[first:])))
        found.append((pairs, unions, tuple(map(tuple, groups))))

    entry_cards = np.array(cards)
    levels = []
    for pairs, unions, groups in found:
        lefts, rights = zip(*pairs)
        ids = np.array(lefts + rights, dtype=np.intp)
        side_cards = entry_cards.take(ids)
        k = len(lefts)
        levels.append(DPLevel(
            lefts, rights, ids, side_cards[:k], side_cards[k:],
            entry_cards.take(unions), groups))
    return DPLevels(tuple(levels), len(masks), cards[-1])


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
