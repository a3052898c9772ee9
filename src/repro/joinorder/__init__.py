"""Join ordering with T3 as a cost model (Section 5.5).

* :mod:`repro.joinorder.joingraph` — join graphs with a cardinality
  oracle (exact cardinalities, like the paper's setup),
* :mod:`repro.joinorder.costmodels` — the C_out baseline and the
  incremental T3 cost model (two model rows per DP combination, with
  completed-pipeline caching, evaluated one DP level per model call),
* :mod:`repro.joinorder.dpsize` — the DPsize dynamic-programming
  enumerator [34] with pluggable, level-wise cost models,
* :mod:`repro.joinorder.greedy` — a greedy orderer on estimated
  cardinalities, standing in for the native optimizer row of Table 6.
"""

from .joingraph import JoinGraph, Relation, GraphEdge
from .costmodels import CoutJoinCost, T3JoinCost, JoinCostModel
from .dpsize import dpsize, DPResult, join_tree_tables
from .greedy import greedy_order

__all__ = [
    "JoinGraph",
    "Relation",
    "GraphEdge",
    "JoinCostModel",
    "CoutJoinCost",
    "T3JoinCost",
    "dpsize",
    "DPResult",
    "join_tree_tables",
    "greedy_order",
]
