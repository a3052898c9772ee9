"""Seeded SQL statements from the benchmark's own templates.

Fifteen templates over ``tpch_sf1``, ``tpcds_sf1`` and ``imdb`` -- five
per instance with 0, 1, 2, 3 and 4 joins -- mixing range, equality and
BETWEEN filters with and without GROUP BY. Every literal is drawn from
the generator passed in, so a seed fixes the statement stream; literals
carry two decimals where the column allows it, which makes repeats in
a stream of tens of thousands of statements rare (callers that need
distinct statements still deduplicate).
"""

from __future__ import annotations

from typing import Callable, List, Set, Tuple

import numpy as np

Statement = Tuple[str, str]          # (sql, instance)
_Template = Tuple[str, int, Callable[[np.random.Generator], str]]


def _u(rng: np.random.Generator, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.2f}"


def _i(rng: np.random.Generator, low: int, high: int) -> int:
    return int(rng.integers(low, high + 1))


TEMPLATES: List[_Template] = [
    # -- tpch_sf1 ---------------------------------------------------------
    ("tpch_sf1", 0, lambda r: (
        "SELECT count(*) FROM lineitem "
        f"WHERE l_quantity <= {_i(r, 1, 50)} "
        f"AND l_extendedprice < {_u(r, 1000, 100000)}")),
    ("tpch_sf1", 1, lambda r: (
        "SELECT o_orderpriority, count(*) FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey "
        f"AND o_totalprice < {_u(r, 1000, 500000)} "
        f"AND l_quantity > {_i(r, 1, 49)} GROUP BY o_orderpriority")),
    ("tpch_sf1", 2, lambda r: (
        "SELECT c_mktsegment, sum(o_totalprice) "
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        f"AND c_acctbal > {_u(r, -999, 9999)} "
        f"AND l_discount < {_u(r, 0, 10)} GROUP BY c_mktsegment")),
    ("tpch_sf1", 3, lambda r: (
        "SELECT n_name, count(*) FROM nation, supplier, partsupp, part "
        "WHERE n_nationkey = s_nationkey AND s_suppkey = ps_suppkey "
        f"AND ps_partkey = p_partkey AND p_size <= {_i(r, 1, 50)} "
        f"AND ps_supplycost < {_u(r, 1, 1000)} GROUP BY n_name")),
    ("tpch_sf1", 4, lambda r: (
        "SELECT count(*) FROM region, nation, customer, orders, lineitem "
        "WHERE r_regionkey = n_regionkey AND n_nationkey = c_nationkey "
        "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
        f"AND o_totalprice > {_u(r, 800, 400000)} "
        f"AND l_tax <= {_u(r, 0, 8)}")),
    # -- tpcds_sf1 --------------------------------------------------------
    ("tpcds_sf1", 0, lambda r: (
        "SELECT count(*) FROM store_sales "
        f"WHERE ss_quantity <= {_i(r, 1, 100)} "
        f"AND ss_sales_price > {_u(r, 1, 200)}")),
    ("tpcds_sf1", 1, lambda r: (
        "SELECT d_year, sum(ss_net_profit) FROM store_sales, date_dim "
        f"WHERE ss_sold_date_sk = d_date_sk AND d_moy = {_i(r, 1, 12)} "
        f"AND ss_ext_discount_amt < {_u(r, 0, 10000)} GROUP BY d_year")),
    ("tpcds_sf1", 2, lambda r: (
        "SELECT i_category, count(*) FROM catalog_sales, date_dim, item "
        "WHERE cs_sold_date_sk = d_date_sk AND cs_item_sk = i_item_sk "
        f"AND d_year >= {_i(r, 1900, 2100)} "
        f"AND i_current_price < {_u(r, 1, 300)} GROUP BY i_category")),
    ("tpcds_sf1", 3, lambda r: (
        "SELECT count(*) "
        "FROM store_sales, customer, customer_address, date_dim "
        "WHERE ss_customer_sk = c_customer_sk "
        "AND c_current_addr_sk = ca_address_sk "
        "AND ss_sold_date_sk = d_date_sk "
        f"AND c_birth_year > {_i(r, 1924, 1992)} "
        f"AND ss_net_profit < {_u(r, -10000, 20000)}")),
    ("tpcds_sf1", 4, lambda r: (
        "SELECT d_qoy, sum(ss_sales_price) "
        "FROM store_sales, item, date_dim, store, promotion "
        "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk "
        "AND ss_store_sk = s_store_sk AND ss_promo_sk = p_promo_sk "
        f"AND i_current_price > {_u(r, 1, 300)} "
        f"AND p_cost < {_u(r, 500, 2000)} GROUP BY d_qoy")),
    # -- imdb -------------------------------------------------------------
    ("imdb", 0, lambda r: (
        "SELECT count(*) FROM title "
        f"WHERE title.production_year > {_i(r, 1880, 2019)} "
        f"AND title.kind_id <= {_i(r, 1, 7)}")),
    ("imdb", 1, lambda r: (
        "SELECT title.kind_id, count(*) FROM title, movie_keyword "
        "WHERE title.id = movie_keyword.movie_id "
        f"AND title.production_year < {_i(r, 1880, 2019)} "
        f"AND movie_keyword.keyword_id <= {_i(r, 1, 134170)} "
        "GROUP BY title.kind_id")),
    ("imdb", 2, lambda r: (
        "SELECT count(*) FROM title, movie_companies, company_name "
        "WHERE title.id = movie_companies.movie_id "
        "AND movie_companies.company_id = company_name.id "
        f"AND movie_companies.company_type_id = {_i(r, 1, 4)} "
        f"AND title.production_year > {_i(r, 1880, 2019)} "
        f"AND company_name.id < {_i(r, 1, 234997)}")),
    ("imdb", 3, lambda r: (
        "SELECT count(*) FROM title, cast_info, name, role_type "
        "WHERE title.id = cast_info.movie_id "
        "AND cast_info.person_id = name.id "
        "AND cast_info.role_id = role_type.id "
        f"AND title.production_year < {_i(r, 1880, 2019)} "
        f"AND cast_info.nr_order <= {_i(r, 1, 1000)}")),
    ("imdb", 4, lambda r: (
        "SELECT title.kind_id, count(*) "
        "FROM title, movie_info, info_type, movie_companies, company_type "
        "WHERE title.id = movie_info.movie_id "
        "AND movie_info.info_type_id = info_type.id "
        "AND title.id = movie_companies.movie_id "
        "AND movie_companies.company_type_id = company_type.id "
        f"AND info_type.id < {_i(r, 2, 113)} "
        f"AND title.production_year > {_i(r, 1880, 2019)} "
        "GROUP BY title.kind_id")),
]


def statement(rng: np.random.Generator) -> Statement:
    """One statement from a template chosen uniformly at random."""
    instance, _, render = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
    return render(rng), instance


def distinct_statements(rng: np.random.Generator, count: int,
                        seen: Set[Statement]) -> List[Statement]:
    """``count`` statements none of which is in ``seen`` (updated)."""
    out: List[Statement] = []
    while len(out) < count:
        candidate = statement(rng)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out
