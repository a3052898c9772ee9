"""Pinned front half: SQL → parse → optimize → featurize, bit for bit.

Every feature bit T3 sees comes out of ``parse_sql``, ``Optimizer`` and
``FeatureRegistry.vectors_for_plan``. This test hashes the ``(vectors,
cards)`` of a fixed statement set under the exact, the estimated and a
distorted cardinality model and compares the hash with digests recorded
before the front half was last reworked, so a speed-up that moves a
single feature value — a reordered predicate, a changed join side, a
different expression percentage — fails here first.

The statements cover comparison, BETWEEN, IN, LIKE, NOT and OR filters,
GROUP BY, ORDER BY with and without LIMIT, a bare LIMIT, and small-table
elimination (``region`` in TPC-H, ``kind_type`` and ``role_type`` in
JOB), on all three benchmark instances.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.features import default_registry
from repro.datagen.instances import get_instance
from repro.engine.cardinality import (
    DistortedCardinalityModel,
    EstimatedCardinalityModel,
    ExactCardinalityModel,
)
from repro.engine.optimizer import Optimizer
from repro.engine.physical import PTableScan
from repro.engine.sqlparser import parse_sql

STATEMENTS = {
    "tpch_sf1": [
        "SELECT count(*) FROM lineitem WHERE l_quantity <= 24 "
        "AND l_extendedprice < 50000.5",
        "SELECT count(*) FROM lineitem WHERE l_shipdate BETWEEN 9000 AND 9300 "
        "AND l_discount IN (2, 4, 6)",
        "SELECT l_returnflag, sum(l_extendedprice) FROM lineitem "
        "WHERE l_shipmode LIKE '%AIR%' GROUP BY l_returnflag",
        "SELECT count(*) FROM customer WHERE NOT c_acctbal < 0 "
        "AND (c_mktsegment = 1 OR c_mktsegment = 3)",
        "SELECT c_mktsegment, count(*) FROM region, nation, customer "
        "WHERE r_regionkey = n_regionkey AND n_nationkey = c_nationkey "
        "AND r_name LIKE 'ASIA' GROUP BY c_mktsegment",
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE o_totalprice > 400000 ORDER BY o_totalprice DESC LIMIT 10",
        "SELECT count(*) FROM region, nation, customer, orders, lineitem "
        "WHERE r_regionkey = n_regionkey AND n_nationkey = c_nationkey "
        "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND o_totalprice > 250000.25 AND l_tax <= 4.5",
        "SELECT o_orderpriority, count(*) FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice < 100000 "
        "AND l_quantity > 30 GROUP BY o_orderpriority "
        "ORDER BY o_orderpriority",
        "SELECT l_orderkey FROM lineitem WHERE l_tax <= 2 LIMIT 5",
    ],
    "tpcds_sf1": [
        "SELECT d_year, sum(ss_net_profit) FROM store_sales, date_dim "
        "WHERE ss_sold_date_sk = d_date_sk AND d_moy IN (11, 12) "
        "AND ss_ext_discount_amt BETWEEN 10 AND 500 GROUP BY d_year",
        "SELECT i_category, count(*) FROM catalog_sales, date_dim, item "
        "WHERE cs_sold_date_sk = d_date_sk AND cs_item_sk = i_item_sk "
        "AND d_year >= 1998 AND i_color LIKE 'red%' GROUP BY i_category "
        "ORDER BY i_category LIMIT 3",
        "SELECT count(*) FROM store_sales "
        "WHERE NOT ss_quantity BETWEEN 10 AND 20 "
        "AND (ss_sales_price < 5 OR ss_sales_price > 150)",
        "SELECT count(*) FROM store_sales, customer, customer_address, "
        "date_dim WHERE ss_customer_sk = c_customer_sk "
        "AND c_current_addr_sk = ca_address_sk "
        "AND ss_sold_date_sk = d_date_sk AND c_birth_year > 1950 "
        "AND ss_net_profit < 1200.75",
    ],
    "imdb": [
        "SELECT count(*) FROM title WHERE title.production_year < 1950",
        "SELECT title.kind_id, count(*) FROM title, kind_type "
        "WHERE title.kind_id = kind_type.id AND kind_type.kind LIKE 'movie' "
        "GROUP BY title.kind_id",
        "SELECT count(*) FROM title, movie_companies, company_name "
        "WHERE title.id = movie_companies.movie_id "
        "AND movie_companies.company_id = company_name.id "
        "AND movie_companies.company_type_id IN (1, 2) "
        "AND NOT title.production_year > 2000",
        "SELECT count(*) FROM title, cast_info, name, role_type "
        "WHERE title.id = cast_info.movie_id "
        "AND cast_info.person_id = name.id "
        "AND cast_info.role_id = role_type.id "
        "AND (title.production_year < 1920 OR title.production_year > 2010) "
        "AND cast_info.nr_order <= 5",
        "SELECT title.production_year, count(*) FROM title "
        "WHERE title.season_nr BETWEEN 1 AND 3 "
        "GROUP BY title.production_year "
        "ORDER BY title.production_year DESC LIMIT 20",
        "SELECT * FROM title WHERE title.title LIKE '%star%'",
    ],
}

#: sha256 over every statement's (shape, vectors, cards) under the three
#: cardinality models, recorded from the front half as it stood before
#: the per-statement overhead was cut.
DIGESTS = {
    "tpch_sf1":
        "f33f146ee4bed616fa309ff8141bf9b7518eb73f2eb38fc6f329fb69f2621c10",
    "tpcds_sf1":
        "e9faea4111119cf31e63b21f79f0aae810654e5cbe8362fcecfad2efd531006d",
    "imdb":
        "b380050079406c11c88c9acd7ad801d0bc84df114511c49af78da797f2db3ded",
}


def _plans(instance_name):
    instance = get_instance(instance_name)
    for sql in STATEMENTS[instance_name]:
        logical = parse_sql(sql, instance.schema, instance.catalog)
        yield instance, Optimizer(instance.schema, instance.catalog).optimize(
            logical, "pinned")


def _front_half_digest(instance_name: str) -> str:
    registry = default_registry()
    digest = hashlib.sha256()
    for instance, plan in _plans(instance_name):
        for model in (ExactCardinalityModel(instance.catalog),
                      EstimatedCardinalityModel(instance.catalog),
                      DistortedCardinalityModel(
                          ExactCardinalityModel(instance.catalog), 4.0, 7)):
            vectors, cards = registry.vectors_for_plan(plan, model)
            digest.update(repr(vectors.shape).encode())
            digest.update(vectors.tobytes())
            digest.update(cards.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("instance_name", sorted(STATEMENTS))
def test_front_half_digest_is_pinned(instance_name):
    assert _front_half_digest(instance_name) == DIGESTS[instance_name]


def test_statement_set_exercises_small_table_elimination():
    """The pinned set keeps its coverage: every tiny dimension table its
    statements join is folded into an IN predicate, never scanned."""
    for name, tiny in (("tpch_sf1", {"region"}),
                       ("imdb", {"kind_type", "role_type"})):
        assert all(table in " ".join(STATEMENTS[name]) for table in tiny)
        scanned = {op.table for _, plan in _plans(name)
                   for op in plan.operators() if isinstance(op, PTableScan)}
        assert not tiny & scanned, name
