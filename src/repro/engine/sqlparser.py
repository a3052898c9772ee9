"""A SQL front-end for the engine: text → logical plans.

The reproduction itself works from physical plans (like T3), but a
usable library needs a query surface. This module implements a compact
SQL subset sufficient for analytical workloads in the style of the
benchmark suites:

    SELECT <columns | aggregates | *>
    FROM   t1, t2, ...
    WHERE  <conjunction of filters and equi-join conditions>
    GROUP BY <columns>
    ORDER BY <columns> [DESC]
    LIMIT  <n>

Supported filter forms: ``col <op> literal``, ``col BETWEEN a AND b``,
``col IN (v, ...)``, ``col LIKE 'pattern'``, ``NOT <filter>``, and
``(<filter> OR <filter>)``. Join conditions are column equalities
between two tables; they are matched against the schema's declared join
edges (an undeclared equality becomes an ad-hoc edge with fan-out 1).

LIKE patterns run against dictionary-encoded string columns: the
matching code set is derived deterministically from the pattern (hash
seed) with a selectivity based on the pattern's specificity — the
standard substitution this repository uses for string data
(see DESIGN.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import PlanError
from ..rng import derive_rng
from .catalog import Catalog
from .expressions import (
    Aggregate,
    AggregateFunction,
    BetweenPredicate,
    ComparisonOp,
    ComparisonPredicate,
    InListPredicate,
    LikePredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
)
from .logical import (
    LogicalGroupBy,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopK,
)
from .schema import DatabaseSchema, JoinEdge


class SQLError(PlanError):
    """Raised for syntax or binding errors in SQL input."""


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (-?\d+(?:\.\d+)?)          # number
      | ('(?:[^']|'')*')          # string
      | ([A-Za-z_][A-Za-z0-9_.]*) # identifier or keyword
      | (<=|>=|<>|!=|=|<|>)       # op
      | ([(),*])                  # punct
      | (\S)                      # anything else: a tokenize error
    )""", re.VERBOSE)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "and",
    "or", "not", "between", "in", "like", "desc", "asc", "as",
    "count", "sum", "min", "max", "avg",
}


class Token(NamedTuple):
    kind: str   # number | string | ident | keyword | op | punct | end
    text: str

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


_END = Token("end", "")

#: Keyword, operator and punctuation tokens are immutable and few, so
#: every occurrence shares one instance instead of building its own.
_KEYWORD_TOKENS = {word: Token("keyword", word) for word in _KEYWORDS}
_SYMBOL_TOKENS = {
    **{op: Token("op", op) for op in ("<=", ">=", "<>", "!=", "=", "<", ">")},
    **{char: Token("punct", char) for char in "(),*"},
}


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into tokens; raises :class:`SQLError` on garbage.

    One ``findall`` pass: every alternative of ``_TOKEN_RE`` is one
    capture group, so each match is a tuple with exactly one non-empty
    entry, and the catch-all last group turns any character no token
    starts with into an error instead of skipping it.
    """
    tokens: List[Token] = []
    for number, string, ident, op, punct, bad in _TOKEN_RE.findall(sql):
        if ident:
            tokens.append(_KEYWORD_TOKENS.get(ident.lower())
                          or Token("ident", ident))
        elif number:
            tokens.append(Token("number", number))
        elif op or punct:
            tokens.append(_SYMBOL_TOKENS[op or punct])
        elif string:
            tokens.append(Token("string", string))
        else:
            raise SQLError(f"cannot tokenize near {_error_context(sql)!r}")
    tokens.append(_END)
    return tokens


def _error_context(sql: str) -> str:
    """Up to 20 characters of ``sql`` from where tokenizing fails."""
    bad = next(m for m in _TOKEN_RE.finditer(sql) if m.group(6))
    return sql[bad.start(6):].strip()[:20]


# ---------------------------------------------------------------------------
# Parser (recursive descent into a small AST)
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """``column``, ``agg(column)``, ``count(*)``, or ``*``."""

    aggregate: Optional[str]   # None for plain columns
    column: Optional[str]      # None for count(*) / '*'
    star: bool = False


@dataclass
class Condition:
    """One WHERE conjunct (possibly an OR / NOT tree)."""

    kind: str                      # cmp | between | in | like | join | or | not
    column: Optional[str] = None
    op: Optional[str] = None
    value: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    values: Optional[List[float]] = None
    pattern: Optional[str] = None
    right_column: Optional[str] = None
    parts: Optional[List["Condition"]] = None
    inner: Optional["Condition"] = None


@dataclass
class SelectStatement:
    items: List[SelectItem]
    tables: List[str]
    conditions: List[Condition]
    group_by: List[str]
    order_by: List[Tuple[str, bool]]   # (column, descending)
    limit: Optional[int]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token helpers --------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if token != ("keyword", word):
            raise SQLError(f"expected {word.upper()}, got {token.text!r}")

    def expect_punct(self, char: str) -> None:
        token = self.advance()
        if token != ("punct", char):
            raise SQLError(f"expected {char!r}, got {token.text!r}")

    def accept_keyword(self, word: str) -> bool:
        if self.tokens[self.position] == ("keyword", word):
            self.position += 1
            return True
        return False

    def accept_punct(self, char: str) -> bool:
        if self.tokens[self.position] == ("punct", char):
            self.position += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse(self) -> SelectStatement:
        self.expect_keyword("select")
        items = self._select_items()
        self.expect_keyword("from")
        tables = self._table_list()
        conditions: List[Condition] = []
        if self.accept_keyword("where"):
            conditions = self._conjunction()
        group_by: List[str] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self._column_list()
        order_by: List[Tuple[str, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self._order_list()
        limit: Optional[int] = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.kind != "number":
                raise SQLError("LIMIT needs a number")
            limit = int(float(token.text))
        if self.peek().kind != "end":
            raise SQLError(f"unexpected trailing input {self.peek().text!r}")
        return SelectStatement(items, tables, conditions, group_by,
                               order_by, limit)

    def _select_items(self) -> List[SelectItem]:
        items = [self._select_item()]
        while self.accept_punct(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        token = self.peek()
        if token.kind == "punct" and token.text == "*":
            self.advance()
            return SelectItem(None, None, star=True)
        if token.kind == "keyword" and token.text in (
                "count", "sum", "min", "max", "avg"):
            function = self.advance().text
            self.expect_punct("(")
            if self.accept_punct("*"):
                self.expect_punct(")")
                return SelectItem(function, None)
            column = self._column_name()
            self.expect_punct(")")
            item = SelectItem(function, column)
            if self.accept_keyword("as"):
                self.advance()  # alias ignored
            return item
        column = self._column_name()
        if self.accept_keyword("as"):
            self.advance()
        return SelectItem(None, column)

    def _column_name(self) -> str:
        token = self.advance()
        if token.kind != "ident":
            raise SQLError(f"expected a column name, got {token.text!r}")
        return token.text

    def _table_list(self) -> List[str]:
        tables = [self._column_name()]
        while self.accept_punct(","):
            tables.append(self._column_name())
        return tables

    def _column_list(self) -> List[str]:
        columns = [self._column_name()]
        while self.accept_punct(","):
            columns.append(self._column_name())
        return columns

    def _order_list(self) -> List[Tuple[str, bool]]:
        result = [self._order_item()]
        while self.accept_punct(","):
            result.append(self._order_item())
        return result

    def _order_item(self) -> Tuple[str, bool]:
        column = self._column_name()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        elif self.accept_keyword("asc"):
            pass
        return column, descending

    # -- conditions ------------------------------------------------------------

    def _conjunction(self) -> List[Condition]:
        conditions = [self._condition()]
        while self.accept_keyword("and"):
            conditions.append(self._condition())
        return conditions

    def _condition(self) -> Condition:
        if self.accept_keyword("not"):
            return Condition("not", inner=self._condition())
        if self.accept_punct("("):
            first = self._condition()
            if self.accept_keyword("or"):
                parts = [first, self._condition()]
                while self.accept_keyword("or"):
                    parts.append(self._condition())
                self.expect_punct(")")
                return Condition("or", parts=parts)
            # Parenthesized single condition.
            self.expect_punct(")")
            return first
        column = self._column_name()
        token = self.advance()
        if token.kind == "op":
            return self._comparison_or_join(column, token.text)
        if token.is_keyword("between"):
            low = self._number()
            self.expect_keyword("and")
            high = self._number()
            return Condition("between", column=column, low=low, high=high)
        if token.is_keyword("in"):
            self.expect_punct("(")
            values = [self._number()]
            while self.accept_punct(","):
                values.append(self._number())
            self.expect_punct(")")
            return Condition("in", column=column, values=values)
        if token.is_keyword("like"):
            pattern = self.advance()
            if pattern.kind != "string":
                raise SQLError("LIKE needs a string literal")
            return Condition("like", column=column,
                             pattern=pattern.text[1:-1].replace("''", "'"))
        raise SQLError(f"unexpected {token.text!r} in condition")

    def _comparison_or_join(self, column: str, op: str) -> Condition:
        token = self.advance()
        if token.kind == "number":
            return Condition("cmp", column=column, op=op,
                             value=float(token.text))
        if token.kind == "string":
            return Condition("like", column=column,
                             pattern=token.text[1:-1].replace("''", "'"),
                             op=op)
        if token.kind == "ident":
            if op != "=":
                raise SQLError("only equality join conditions are supported")
            return Condition("join", column=column, right_column=token.text)
        raise SQLError(f"unexpected {token.text!r} after operator")

    def _number(self) -> float:
        token = self.advance()
        if token.kind != "number":
            raise SQLError(f"expected a number, got {token.text!r}")
        return float(token.text)


def parse_select(sql: str) -> SelectStatement:
    """Parse SQL text into the front-end AST (no schema binding yet)."""
    return _Parser(tokenize(sql)).parse()


# ---------------------------------------------------------------------------
# Binder: AST → logical plan against a schema/catalog
# ---------------------------------------------------------------------------

_COMPARISON_OPS = {
    "=": ComparisonOp.EQ, "<>": ComparisonOp.NE, "!=": ComparisonOp.NE,
    "<": ComparisonOp.LT, "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT, ">=": ComparisonOp.GE,
}

_AGGREGATES = {
    "count": AggregateFunction.COUNT, "sum": AggregateFunction.SUM,
    "min": AggregateFunction.MIN, "max": AggregateFunction.MAX,
    "avg": AggregateFunction.AVG,
}

#: LIKE selectivity by pattern shape: more literal characters → rarer.
_LIKE_BASE_SELECTIVITY = 0.25


class SQLBinder:
    """Binds parsed statements to a database instance's schema."""

    def __init__(self, schema: DatabaseSchema, catalog: Catalog):
        self.schema = schema
        self.catalog = catalog

    # -- public -----------------------------------------------------------

    def bind(self, statement: SelectStatement) -> LogicalNode:
        tables = self._check_tables(statement.tables)
        filters, joins = self._split_conditions(statement, tables)
        plan = self._join_tree(tables, filters, joins)
        plan = self._aggregate(plan, statement, tables)
        plan = self._order(plan, statement, tables)
        if (statement.group_by or not any(i.aggregate for i in statement.items)):
            plan = self._project(plan, statement, tables)
        return plan

    # -- name resolution --------------------------------------------------------
    #
    # Identifiers are unquoted, so they resolve case-insensitively (SQL's
    # rule, and the plan cache's, whose key ``normalize_sql`` lowercases)
    # to the schema's own spelling, which is what plans carry.

    def _check_tables(self, names: Sequence[str]) -> List[str]:
        tables: List[str] = []
        for name in names:
            table = self.schema.resolve_table(name)  # raises for unknown
            if table in tables:
                raise SQLError(
                    f"table {name!r} listed twice (aliases not supported)")
            tables.append(table)
        return tables

    def _resolve(self, name: str, tables: Sequence[str]) -> Tuple[str, str]:
        """Resolve a possibly-qualified column against the FROM tables."""
        if "." in name:
            qualifier, _, column = name.partition(".")
            table = self.schema.find_table(qualifier)
            if table not in tables:
                raise SQLError(f"table {qualifier!r} not in FROM clause")
            owners = self.schema.column_owners(column)
            if table not in owners:
                raise SQLError(f"table {table!r} has no column {column!r}")
            return table, owners[table]
        owners = self.schema.column_owners(name)
        candidates = [t for t in tables if t in owners]
        if not candidates:
            raise SQLError(f"unknown column {name!r}")
        if len(candidates) > 1:
            raise SQLError(f"ambiguous column {name!r} "
                           f"(in {', '.join(candidates)})")
        return candidates[0], owners[candidates[0]]

    # -- condition binding ---------------------------------------------------------

    def _split_conditions(self, statement: SelectStatement,
                          tables: Sequence[str]):
        filters: Dict[str, List[Predicate]] = {t: [] for t in tables}
        joins: List[JoinEdge] = []
        for condition in statement.conditions:
            if condition.kind == "join":
                left = self._resolve(condition.column, tables)
                right = self._resolve(condition.right_column, tables)
                if left[0] == right[0]:
                    raise SQLError("self-join conditions are not supported")
                declared = self.schema.edge_between(left[0], right[0])
                if (declared is not None
                        and {declared.left_column, declared.right_column}
                        == {left[1], right[1]}):
                    joins.append(declared)
                else:
                    joins.append(JoinEdge(left[0], left[1],
                                          right[0], right[1], fanout=1.0))
            else:
                predicate = self._bind_predicate(condition, tables)
                filters[predicate.table].append(predicate)
        return filters, joins

    def _bind_predicate(self, condition: Condition,
                        tables: Sequence[str]) -> Predicate:
        if condition.kind == "or":
            parts = [self._bind_predicate(p, tables)
                     for p in condition.parts]
            return OrPredicate(parts)
        if condition.kind == "not":
            return NotPredicate(self._bind_predicate(condition.inner, tables))
        table, column = self._resolve(condition.column, tables)
        if condition.kind == "cmp":
            return ComparisonPredicate(table, column,
                                       _COMPARISON_OPS[condition.op],
                                       condition.value)
        if condition.kind == "between":
            if condition.high < condition.low:
                raise SQLError("BETWEEN bounds are reversed")
            return BetweenPredicate(table, column, condition.low,
                                    condition.high)
        if condition.kind == "in":
            return InListPredicate(table, column, condition.values)
        if condition.kind == "like":
            return self._bind_like(table, column, condition)
        raise SQLError(f"unsupported condition kind {condition.kind!r}")

    def _bind_like(self, table: str, column: str,
                   condition: Condition) -> Predicate:
        column_type = self.schema.table(table).column(column).dtype
        if not column_type.is_string:
            raise SQLError(f"LIKE on non-string column {table}.{column}")
        stats = self.catalog.column_stats(table, column)
        pattern = condition.pattern or ""
        # Specificity heuristic: each literal character beyond the
        # wildcards halves the match fraction (floor at one code).
        literal_chars = len(pattern.replace("%", "").replace("_", ""))
        fraction = _LIKE_BASE_SELECTIVITY * (0.5 ** max(0, literal_chars - 1))
        n_match = max(1, min(stats.true_distinct,
                             int(round(stats.true_distinct * fraction))))
        rng = derive_rng(0x5A1, "sql-like", table, column, pattern)
        codes = rng.choice(stats.true_distinct, size=n_match, replace=False)
        predicate = LikePredicate(table, column, pattern,
                                  [int(c) for c in codes])
        if condition.op in ("<>", "!="):
            return NotPredicate(predicate)
        return predicate

    # -- plan construction -----------------------------------------------------------

    def _join_tree(self, tables: Sequence[str],
                   filters: Dict[str, List[Predicate]],
                   joins: List[JoinEdge]) -> LogicalNode:
        scans = {t: LogicalScan(t, filters[t]) for t in tables}
        if len(tables) == 1:
            return scans[tables[0]]
        remaining = list(joins)
        in_tree = {tables[0]}
        plan: LogicalNode = scans[tables[0]]
        n_tables = len(tables)
        while len(in_tree) < n_tables:
            progress = False
            for edge in list(remaining):
                if edge.left_table in in_tree and edge.right_table not in in_tree:
                    oriented, new_table = edge, edge.right_table
                elif edge.right_table in in_tree and edge.left_table not in in_tree:
                    oriented, new_table = edge.reversed(), edge.left_table
                else:
                    continue
                plan = LogicalJoin(plan, scans[new_table], oriented)
                in_tree.add(new_table)
                remaining.remove(edge)
                progress = True
            if not progress:
                missing = set(tables) - in_tree
                raise SQLError(
                    f"no join condition connects {sorted(missing)} "
                    f"to the rest of the query")
        return plan

    def _aggregate(self, plan: LogicalNode, statement: SelectStatement,
                   tables: Sequence[str]) -> LogicalNode:
        aggregate_items = [i for i in statement.items if i.aggregate]
        if not aggregate_items and not statement.group_by:
            return plan
        if not aggregate_items:
            raise SQLError("GROUP BY requires at least one aggregate")
        group_columns = [self._resolve(c, tables) for c in statement.group_by]
        aggregates = []
        for item in aggregate_items:
            function = _AGGREGATES[item.aggregate]
            if item.column is None:
                if function is not AggregateFunction.COUNT:
                    raise SQLError(f"{item.aggregate}(*) is not valid")
                aggregates.append(Aggregate(function))
            else:
                table, column = self._resolve(item.column, tables)
                aggregates.append(Aggregate(function, f"{table}.{column}"))
        # Plain columns in SELECT must be grouped.
        grouped = set(group_columns)
        for item in statement.items:
            if item.aggregate is None and not item.star and item.column:
                resolved = self._resolve(item.column, tables)
                if resolved not in grouped:
                    raise SQLError(
                        f"column {item.column!r} must appear in GROUP BY")
        return LogicalGroupBy(plan, group_columns, aggregates)

    def _order(self, plan: LogicalNode, statement: SelectStatement,
               tables: Sequence[str]) -> LogicalNode:
        if not statement.order_by:
            if statement.limit is not None:
                # LIMIT without ORDER BY: arbitrary rows; keep it simple.
                from .logical import LogicalLimit
                return LogicalLimit(plan, statement.limit)
            return plan
        keys: List[Tuple[str, str]] = []
        for name, _descending in statement.order_by:
            folded = name.lower()
            if isinstance(plan, LogicalGroupBy) and folded.startswith("agg"):
                keys.append(("#computed", folded))
            else:
                keys.append(self._resolve(name, tables))
        if statement.limit is not None:
            return LogicalTopK(plan, keys, statement.limit)
        return LogicalSort(plan, keys)

    def _project(self, plan: LogicalNode, statement: SelectStatement,
                 tables: Sequence[str]) -> LogicalNode:
        if any(item.star for item in statement.items):
            return plan
        if any(item.aggregate for item in statement.items):
            return plan  # aggregation already shaped the output
        columns = [self._resolve(item.column, tables)
                   for item in statement.items if item.column]
        if not columns:
            return plan
        return LogicalProject(plan, columns)


def parse_sql(sql: str, schema: DatabaseSchema,
              catalog: Catalog) -> LogicalNode:
    """One-shot helper: SQL text → bound logical plan."""
    return SQLBinder(schema, catalog).bind(parse_select(sql))
