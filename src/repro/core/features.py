"""Pipeline feature vectors (Section 3 of the paper).

Every pipeline becomes one fixed-size flat vector. Features are defined
*per operator stage* from a small set of generic basic features —
**percentage** (fraction of the pipeline's starting tuples reaching a
stream), **size** (bytes per tuple on a stream), and **cardinality** —
plus a **count** per stage and per-expression-class percentages for
table scans. Duplicate operator stages within a pipeline sum their
features (the paper's *feature addition*), which is why every basic
feature is designed to stay meaningful under addition.

The registry assigns indices automatically from the per-stage feature
declarations, so adding an operator requires only a new entry in
``_STAGE_FEATURES`` (the paper's "little manual work" property).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FeatureError, SchemaError
from ..engine.cardinality import CardinalityModel
from ..engine.expressions import ExpressionKind
from ..engine.physical import PhysicalOperator, PhysicalPlan, PTableScan
from ..engine.pipelines import (
    Pipeline,
    StageFlow,
    compute_stage_flows,
    decompose_into_pipelines,
    pipeline_input_cardinality,
)
from ..engine.stages import OperatorType, Stage, all_operator_stage_pairs

#: Table-scan expression classes, each with its percentage feature. A
#: predicate of a kind not listed here counts as ``OTHER``.
_EXPRESSION_FEATURES: Tuple[Tuple[ExpressionKind, str], ...] = (
    (ExpressionKind.COMPARISON, "expr_comparison_percentage"),
    (ExpressionKind.BETWEEN, "expr_between_percentage"),
    (ExpressionKind.IN_LIST, "expr_in_percentage"),
    (ExpressionKind.LIKE, "expr_like_percentage"),
    (ExpressionKind.OTHER, "expr_other_percentage"),
)

#: Per-class fractions before any predicate is evaluated.
_NO_FRACTIONS = {kind: 0.0 for kind, _ in _EXPRESSION_FEATURES}

#: Basic features per (operator, stage), beyond the implicit ``count``.
#: Names follow the paper's ``<stream>_<kind>`` convention.
_STAGE_FEATURES: Dict[Tuple[OperatorType, Stage], Tuple[str, ...]] = {
    (OperatorType.TABLE_SCAN, Stage.SCAN): (
        "in_card", "in_size", "out_percentage",
        *(name for _, name in _EXPRESSION_FEATURES)),
    (OperatorType.FILTER, Stage.PASS_THROUGH): (
        "in_percentage", "out_percentage", "expr_weight"),
    (OperatorType.MAP, Stage.PASS_THROUGH): (
        "in_percentage", "n_operations"),
    (OperatorType.HASH_JOIN, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.HASH_JOIN, Stage.PROBE): (
        "in_card", "in_size", "right_percentage", "out_percentage"),
    (OperatorType.SEMI_JOIN, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.SEMI_JOIN, Stage.PROBE): (
        "in_card", "right_percentage", "out_percentage"),
    (OperatorType.ANTI_JOIN, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.ANTI_JOIN, Stage.PROBE): (
        "in_card", "right_percentage", "out_percentage"),
    (OperatorType.INDEX_NL_JOIN, Stage.PASS_THROUGH): (
        "in_card", "in_percentage", "out_percentage"),
    (OperatorType.BNL_JOIN, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.BNL_JOIN, Stage.PROBE): (
        "in_card", "right_percentage", "out_percentage"),
    (OperatorType.CROSS_PRODUCT, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.CROSS_PRODUCT, Stage.PROBE): (
        "in_card", "right_percentage", "out_percentage"),
    (OperatorType.GROUP_BY, Stage.BUILD): (
        "in_percentage", "out_card", "out_size", "n_aggregates", "n_keys"),
    (OperatorType.GROUP_BY, Stage.SCAN): ("in_card", "out_percentage"),
    (OperatorType.SIMPLE_AGG, Stage.BUILD): ("in_percentage", "n_aggregates"),
    (OperatorType.SIMPLE_AGG, Stage.SCAN): ("in_card",),
    (OperatorType.SORT, Stage.BUILD): (
        "in_card", "in_size", "in_percentage", "n_keys"),
    (OperatorType.SORT, Stage.SCAN): ("in_card", "out_percentage"),
    (OperatorType.TOP_K, Stage.BUILD): ("in_percentage", "out_card", "n_keys"),
    (OperatorType.TOP_K, Stage.SCAN): ("in_card",),
    (OperatorType.LIMIT, Stage.PASS_THROUGH): (
        "in_percentage", "out_percentage"),
    (OperatorType.WINDOW, Stage.BUILD): ("in_card", "in_size", "in_percentage"),
    (OperatorType.WINDOW, Stage.SCAN): ("in_card", "out_percentage"),
    (OperatorType.DISTINCT, Stage.BUILD): (
        "in_card", "in_size", "in_percentage", "out_card"),
    (OperatorType.DISTINCT, Stage.SCAN): ("in_card", "out_percentage"),
    (OperatorType.MATERIALIZE, Stage.BUILD): (
        "in_card", "in_size", "in_percentage"),
    (OperatorType.MATERIALIZE, Stage.SCAN): ("in_card", "out_percentage"),
    (OperatorType.UNION, Stage.BUILD): ("in_size", "in_percentage"),
    (OperatorType.UNION, Stage.SCAN): ("in_card",),
    (OperatorType.ASSERT_SINGLE, Stage.PASS_THROUGH): ("in_percentage",),
}


#: Reads one basic feature off a stage: ``(flow, operator, start)``.
_Extractor = Callable[[StageFlow, PhysicalOperator, float], float]


class _StagePlan:
    """Precomputed writer for one ``(operator, stage)`` pair.

    Feature names are resolved to column indices, and each basic
    feature to its extractor, once at registry construction, so the
    per-stage featurization hot path does no string formatting, name
    lookups or suffix dispatch.
    """

    __slots__ = ("count_index", "extractors", "expressions")

    def __init__(self, count_index: int,
                 extractors: Tuple[Tuple[int, _Extractor], ...],
                 expressions: Tuple[Tuple[int, ExpressionKind], ...]):
        self.count_index = count_index
        #: (column, extractor) per basic feature, in declared order
        self.extractors = extractors
        #: (column, kind) per expression feature, filled from the one
        #: :meth:`FeatureRegistry._expression_fractions` call per stage
        self.expressions = expressions


class FeatureRegistry:
    """Assigns a stable index to every feature and builds vectors.

    Feature names are ``<Operator>_<Stage>_<basic feature>``, e.g.
    ``HashJoin_Probe_right_percentage`` — the exact naming of the
    paper's Listings 3 and 4. Construction raises :class:`FeatureError`
    for a declaration on a stage no operator has, a declared feature
    with no extractor (an expression feature outside a table scan has
    none), or a feature declared twice in one stage.
    """

    def __init__(self):
        pairs = all_operator_stage_pairs()
        dead = [pair for pair in _STAGE_FEATURES if pair not in pairs]
        if dead:
            raise FeatureError(
                "_STAGE_FEATURES declares features for stages no operator "
                "has: " + ", ".join(f"({op_type.value}, {stage.value})"
                                    for op_type, stage in dead))
        self._index: Dict[str, int] = {}
        for op_type, stage in pairs:
            prefix = f"{op_type.value}_{stage.value}"
            self._register(f"{prefix}_count")
            for suffix in _STAGE_FEATURES.get((op_type, stage), ()):
                self._register(f"{prefix}_{suffix}")
        self._build_stage_plans()

    # The extractors are closures, which pickle cannot store. They are
    # derived from the declarations, so a pickle carries only the index
    # and unpickling resolves the stage plans again.
    def __getstate__(self) -> Dict[str, Dict[str, int]]:
        return {"_index": self._index}

    def __setstate__(self, state: Dict[str, Dict[str, int]]) -> None:
        self._index = state["_index"]
        self._build_stage_plans()

    def _build_stage_plans(self) -> None:
        expression_kinds = {name: kind for kind, name in _EXPRESSION_FEATURES}
        self._stage_plans: Dict[Tuple[OperatorType, Stage], _StagePlan] = {}
        for op_type, stage in all_operator_stage_pairs():
            prefix = f"{op_type.value}_{stage.value}"
            extractors = []
            expressions = []
            for suffix in _STAGE_FEATURES.get((op_type, stage), ()):
                index = self._index[f"{prefix}_{suffix}"]
                kind = expression_kinds.get(suffix)
                if kind is None:
                    extractors.append((index, self._basic_feature_extractor(
                        suffix, op_type, stage)))
                elif op_type is OperatorType.TABLE_SCAN:
                    expressions.append((index, kind))
                else:
                    raise FeatureError(
                        f"expression feature {suffix!r} declared for "
                        f"({op_type.value}, {stage.value}); only table "
                        "scans evaluate expression classes")
            self._stage_plans[(op_type, stage)] = _StagePlan(
                self._index[f"{prefix}_count"], tuple(extractors),
                tuple(expressions))

    def _register(self, name: str) -> None:
        if name in self._index:
            raise FeatureError(f"duplicate feature {name!r}")
        self._index[name] = len(self._index)

    # -- introspection ------------------------------------------------------

    @property
    def n_features(self) -> int:
        return len(self._index)

    def feature_names(self) -> List[str]:
        return list(self._index)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise FeatureError(f"unknown feature {name!r}") from None

    def describe_vector(self, vector: np.ndarray,
                        skip_zeros: bool = True) -> str:
        """Render a vector the way the paper's listings do."""
        if len(vector) != self.n_features:
            raise SchemaError(
                f"vector has {len(vector)} entries but the registry "
                f"declares {self.n_features} features")
        lines = []
        for name, index in self._index.items():
            value = vector[index]
            if skip_zeros and value == 0:
                continue
            lines.append(f"{name}: {value:,.6g}")
        return "\n".join(lines)

    # -- vector construction ---------------------------------------------------
    #
    # Features are written through a memoryview of the destination row:
    # a float64 item write costs a fraction of a NumPy scalar
    # ``out[i] += v``, allocates nothing, and adds the same doubles in
    # the same order.

    def vector_for_pipeline(self, pipeline: Pipeline,
                            model: CardinalityModel) -> np.ndarray:
        """One flat feature vector for one pipeline (Listing 1)."""
        vector = np.zeros(self.n_features, dtype=np.float64)
        self.fill_pipeline_row(pipeline, model, vector)
        return vector

    def fill_pipeline_row(self, pipeline: Pipeline, model: CardinalityModel,
                          out: np.ndarray) -> float:
        """Write one pipeline's features into ``out`` (matrix-direct path).

        ``out`` is a zero-initialized float64 row of ``n_features``
        entries — typically a view into a caller-allocated
        ``(n_pipelines, n_features)`` matrix, so featurizing a workload
        allocates no per-pipeline vectors or dicts. Returns the
        pipeline's input cardinality (computed anyway for the
        percentage features), which callers need as the per-tuple
        target denominator.
        """
        row = memoryview(out)
        card = pipeline_input_cardinality(pipeline, model)
        start = max(card, 1.0)
        for flow in compute_stage_flows(pipeline, model):
            self._fill_stage(row, flow, start, model)
        return card

    def fill_matrix(self, pipelines: Sequence[Pipeline],
                    model: CardinalityModel, out: np.ndarray,
                    cards_out: Optional[np.ndarray] = None) -> None:
        """Featurize ``pipelines`` straight into a caller-allocated
        zeroed ``(len(pipelines), n_features)`` float64 matrix."""
        if out.shape != (len(pipelines), self.n_features):
            raise SchemaError(
                f"output matrix has shape {out.shape}, expected "
                f"({len(pipelines)}, {self.n_features})")
        for i, pipeline in enumerate(pipelines):
            card = self.fill_pipeline_row(pipeline, model, out[i])
            if cards_out is not None:
                cards_out[i] = card

    def vectors_for_plan(self, plan: PhysicalPlan,
                         model: CardinalityModel
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Feature matrix plus input cardinalities for all pipelines."""
        pipelines = decompose_into_pipelines(plan)
        vectors = np.zeros((len(pipelines), self.n_features), dtype=np.float64)
        cards = np.empty(len(pipelines))
        self.fill_matrix(pipelines, model, vectors, cards)
        return vectors, cards

    # -- per-stage feature extraction -----------------------------------------

    def _fill_stage(self, row: memoryview, flow: StageFlow, start: float,
                    model: CardinalityModel) -> None:
        op = flow.ref.operator
        op_type, stage = op.op_type, flow.ref.stage
        plan = self._stage_plans.get((op_type, stage))
        if plan is None:
            raise SchemaError(
                f"pipeline produced stage ({op_type.value}, {stage.value}) "
                "that the feature registry does not know; declare it in "
                "OPERATOR_STAGES and _STAGE_FEATURES")
        row[plan.count_index] += 1.0
        for index, extract in plan.extractors:
            row[index] += extract(flow, op, start)
        # A scan without predicates evaluates no expressions: every
        # percentage is 0.0, and adding 0.0 changes no bit of the row.
        if plan.expressions and op.predicates:
            fractions, scale = self._expression_fractions(op, start, model)
            for index, kind in plan.expressions:
                row[index] += fractions[kind] * scale

    @staticmethod
    def _basic_feature_extractor(suffix: str, op_type: OperatorType,
                                 stage: Stage) -> _Extractor:
        """The extractor of basic feature ``suffix`` of one ``(operator,
        stage)`` pair (the expression features have none:
        :meth:`_expression_fractions` computes them together per stage)."""
        if suffix == "in_card":
            if stage is Stage.PROBE:
                return lambda flow, op, start: flow.state_cardinality
            if op_type is OperatorType.INDEX_NL_JOIN:
                return lambda flow, op, start: float(op.inner_rows_hint)
            return lambda flow, op, start: flow.tuples_in
        if suffix == "in_size":
            if op_type is OperatorType.TABLE_SCAN:
                return lambda flow, op, start: float(op.scan_byte_width)
            return lambda flow, op, start: float(flow.stored_byte_width)
        if suffix == "in_percentage":
            return lambda flow, op, start: flow.tuples_in / start
        if suffix == "right_percentage":
            return lambda flow, op, start: flow.tuples_in / start
        if suffix == "out_percentage":
            return lambda flow, op, start: flow.tuples_out / start
        if suffix == "out_card":
            return lambda flow, op, start: flow.materialized_cardinality
        if suffix == "out_size":
            return lambda flow, op, start: float(op.output_byte_width)
        if suffix == "n_aggregates":
            return lambda flow, op, start: float(len(op.aggregates))
        if suffix == "n_keys":
            if op_type is OperatorType.GROUP_BY:
                return lambda flow, op, start: float(len(op.group_columns))
            if op_type in (OperatorType.SORT, OperatorType.TOP_K):
                return lambda flow, op, start: float(len(op.keys))
            return lambda flow, op, start: 0.0
        if suffix == "n_operations":
            return lambda flow, op, start: (
                float(op.n_operations) * (flow.tuples_in / start))
        if suffix == "expr_weight":
            return lambda flow, op, start: (
                sum(p.evaluation_cost_weight() for p in op.predicates)
                * (flow.tuples_in / start))
        raise FeatureError(f"no extractor for basic feature {suffix!r}")

    def _expression_fractions(self, op: PTableScan, start: float,
                              model: CardinalityModel
                              ) -> Tuple[Dict[ExpressionKind, float], float]:
        """Per-class fractions of scanned tuples each predicate class is
        evaluated on (short-circuit conjunction, Section 3), and the
        scale from scanned tuples to the pipeline's start."""
        fractions = _NO_FRACTIONS.copy()   # a copy skips rehashing the keys
        surviving = 1.0
        for predicate in op.predicates:
            kind = predicate.kind
            if kind not in fractions:
                kind = ExpressionKind.OTHER
            fractions[kind] += surviving
            surviving *= model.predicate_selectivity(predicate)
        scale = model.base_cardinality(op) / start if start else 1.0
        return fractions, scale


_DEFAULT: FeatureRegistry = None


def default_registry() -> FeatureRegistry:
    """The shared registry instance (feature layout is global state)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = FeatureRegistry()
    return _DEFAULT
