"""Tests for the SQL front-end (tokenizer, parser, binder)."""

import pytest

from repro.engine.sqlparser import (
    SQLError,
    parse_select,
    parse_sql,
    tokenize,
)
from repro.engine.logical import (
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopK,
    count_joins,
)
from repro.engine.expressions import (
    BetweenPredicate,
    ComparisonPredicate,
    InListPredicate,
    LikePredicate,
    NotPredicate,
    OrPredicate,
)
from repro.engine.optimizer import Optimizer
from repro.engine.pipelines import decompose_into_pipelines


@pytest.fixture(scope="module")
def toy():
    from tests.conftest import build_toy_instance
    return build_toy_instance()


def _bind(toy, sql):
    return parse_sql(sql, toy.schema, toy.catalog)


class TestTokenizer:
    def test_basic(self):
        tokens = tokenize("SELECT a FROM t WHERE x <= 5")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "ident", "keyword", "ident",
                         "keyword", "ident", "op", "number", "end"]

    def test_strings_with_escapes(self):
        tokens = tokenize("SELECT a FROM t WHERE s LIKE 'it''s %'")
        assert tokens[-2].kind == "string"

    def test_garbage_rejected(self):
        with pytest.raises(SQLError):
            tokenize("SELECT @ FROM t")

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select A from T")
        assert tokens[0].is_keyword("select")
        assert tokens[1].text == "A"  # identifiers keep their case


class TestParser:
    def test_full_statement(self):
        statement = parse_select(
            "SELECT o_status, count(*), sum(o_total) FROM orders "
            "WHERE o_total <= 100 AND o_date BETWEEN 8000 AND 9000 "
            "GROUP BY o_status ORDER BY o_status LIMIT 10")
        assert len(statement.items) == 3
        assert statement.tables == ["orders"]
        assert len(statement.conditions) == 2
        assert statement.group_by == ["o_status"]
        assert statement.limit == 10

    def test_star(self):
        statement = parse_select("SELECT * FROM t")
        assert statement.items[0].star

    def test_or_and_not(self):
        statement = parse_select(
            "SELECT a FROM t WHERE (a <= 1 OR a >= 9) AND NOT b = 5")
        assert statement.conditions[0].kind == "or"
        assert statement.conditions[1].kind == "not"

    def test_in_list(self):
        statement = parse_select("SELECT a FROM t WHERE a IN (1, 2, 3)")
        assert statement.conditions[0].values == [1.0, 2.0, 3.0]

    def test_join_condition(self):
        statement = parse_select(
            "SELECT a FROM t1, t2 WHERE t1.x = t2.y")
        assert statement.conditions[0].kind == "join"

    def test_syntax_errors(self):
        for bad in ("SELECT", "SELECT a", "SELECT a FROM t WHERE",
                    "SELECT a FROM t LIMIT x",
                    "SELECT a FROM t WHERE a >< 3",
                    "SELECT a FROM t GROUP a"):
            with pytest.raises(SQLError):
                parse_select(bad)

    def test_trailing_garbage(self):
        with pytest.raises(SQLError):
            parse_select("SELECT a FROM t 42")


class TestBinder:
    def test_simple_scan_with_filters(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders WHERE o_total <= 100")
        assert isinstance(plan, LogicalProject)
        scan = plan.input
        assert isinstance(scan, LogicalScan)
        assert isinstance(scan.predicates[0], ComparisonPredicate)

    def test_join_binding_uses_declared_edge(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders, customer "
                          "WHERE o_cust = c_id")
        assert count_joins(plan) == 1
        join = next(n for n in plan.walk() if isinstance(n, LogicalJoin))
        assert join.edge.fanout == 1.0

    def test_three_way_join(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders, customer, item "
                          "WHERE o_cust = c_id AND o_item = i_id")
        assert count_joins(plan) == 2

    def test_disconnected_join_rejected(self, toy):
        with pytest.raises(SQLError):
            _bind(toy, "SELECT o_id FROM orders, customer")

    def test_group_by_aggregation(self, toy):
        plan = _bind(toy, "SELECT o_status, count(*), avg(o_total) "
                          "FROM orders GROUP BY o_status")
        assert isinstance(plan, LogicalGroupBy)
        assert plan.group_columns == [("orders", "o_status")]
        assert len(plan.aggregates) == 2

    def test_ungrouped_column_rejected(self, toy):
        with pytest.raises(SQLError):
            _bind(toy, "SELECT o_id, count(*) FROM orders GROUP BY o_status")

    def test_order_and_limit_fuse_to_topk(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders "
                          "ORDER BY o_total DESC LIMIT 5")
        assert isinstance(plan.input, LogicalTopK)
        assert plan.input.k == 5

    def test_order_without_limit_is_sort(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders ORDER BY o_total")
        assert isinstance(plan.input, LogicalSort)

    def test_limit_without_order(self, toy):
        plan = _bind(toy, "SELECT o_id FROM orders LIMIT 3")
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.input, LogicalLimit)
        assert plan.input.k == 3

    def test_between_in_like_not_or(self, toy):
        plan = _bind(toy, "SELECT c_id FROM customer WHERE "
                          "c_balance BETWEEN 0 AND 100 AND "
                          "c_nation IN (1, 2) AND "
                          "c_name LIKE '%smith%' AND "
                          "NOT c_balance = 5 AND "
                          "(c_nation <= 1 OR c_nation >= 20)")
        scan = plan.input
        kinds = {type(p) for p in scan.predicates}
        assert kinds == {BetweenPredicate, InListPredicate, LikePredicate,
                         NotPredicate, OrPredicate}

    def test_like_on_numeric_rejected(self, toy):
        with pytest.raises(SQLError):
            _bind(toy, "SELECT o_id FROM orders WHERE o_total LIKE '%x%'")

    def test_like_specificity_drives_selectivity(self, toy):
        vague = _bind(toy, "SELECT c_id FROM customer "
                           "WHERE c_name LIKE '%a%'").input.predicates[0]
        specific = _bind(toy, "SELECT c_id FROM customer "
                              "WHERE c_name LIKE '%abcdef%'"
                         ).input.predicates[0]
        assert (specific.true_selectivity(toy.catalog)
                < vague.true_selectivity(toy.catalog))

    def test_unknown_names_rejected(self, toy):
        with pytest.raises((SQLError, Exception)):
            _bind(toy, "SELECT x FROM ghost")
        with pytest.raises(SQLError):
            _bind(toy, "SELECT ghost_col FROM orders")
        with pytest.raises(SQLError):
            _bind(toy, "SELECT orders.ghost FROM orders")

    def test_identifiers_resolve_case_insensitively(self, toy):
        lower = _bind(toy, "SELECT o_status, count(*) FROM orders, customer "
                           "WHERE orders.o_cust = c_id AND o_total <= 100 "
                           "GROUP BY o_status ORDER BY o_status")
        mixed = _bind(toy, "SELECT O_Status, COUNT(*) FROM ORDERS, Customer "
                           "WHERE Orders.O_CUST = C_ID AND o_TOTAL <= 100 "
                           "GROUP BY O_STATUS ORDER BY orders.O_status")
        assert mixed == lower   # plans carry the schema's spelling
        with pytest.raises(SQLError):
            _bind(toy, "SELECT o_id FROM orders, ORDERS")

    def test_ambiguity_detected(self, toy):
        # o_id exists only in orders; make an ambiguous case via c_id?
        # Columns are uniquely named in the toy schema, so check the
        # qualified path instead.
        plan = _bind(toy, "SELECT orders.o_id FROM orders")
        assert isinstance(plan, LogicalProject)


class TestEndToEnd:
    def test_sql_to_prediction(self, toy):
        """SQL → logical → physical → pipelines → simulated time."""
        from repro.engine.simulator import ExecutionSimulator
        plan = _bind(toy, "SELECT o_status, sum(o_total) FROM orders, "
                          "customer WHERE o_cust = c_id AND c_balance >= 0 "
                          "GROUP BY o_status ORDER BY o_status")
        physical = Optimizer(toy.schema, toy.catalog).optimize(plan, "sql_q")
        pipelines = decompose_into_pipelines(physical)
        assert len(pipelines) >= 3
        time = ExecutionSimulator(toy.catalog).query_time(physical)
        assert time > 0

    def test_sql_executes_on_real_data(self, toy):
        from repro.datagen.tablegen import generate_table_store
        from repro.engine.executor import VectorizedExecutor
        store = generate_table_store(toy, scale_fraction=0.1, seed=2)
        plan = _bind(toy, "SELECT o_status, count(*) FROM orders "
                          "WHERE o_total <= 5000 GROUP BY o_status")
        physical = Optimizer(toy.schema, toy.catalog).optimize(plan)
        result = VectorizedExecutor(store).execute(physical)
        assert result.n_result_rows >= 1
