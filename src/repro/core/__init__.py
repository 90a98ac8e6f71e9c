"""ReCache core: the paper's primary contribution.

The cache manager (:class:`~repro.core.cache_manager.ReCache`) coordinates

* cost-based **eviction** using a Greedy-Dual variant whose benefit metric is
  ``b(p) = n * (t + c - s - l) / log(B)`` (Section 5.1, Algorithm 1),
* reactive **admission** that starts eager and downgrades to lazy (offsets
  only) when the extrapolated caching overhead exceeds a threshold
  (Section 5.2),
* automatic **layout selection** between the Parquet-style nested columnar and
  the relational columnar layouts, driven by measured data and compute costs
  (Section 4),
* **exact matching and range-predicate subsumption** of cached operator
  results, backed by per-(source, field) R-trees (Section 3.2–3.3).
"""

from repro.core.config import ReCacheConfig
from repro.core.cache_entry import CacheEntry, CacheKey, CacheStats, LayoutObservation
from repro.core.benefit import benefit_metric
from repro.core.cache_manager import CacheManagerStats, CacheMatch, ReCache
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.layout_selector import LayoutSelector
from repro.core.cost_model import LayoutCostModel
from repro.core.eviction import EvictionPolicy, ReCacheGreedyDualPolicy
from repro.core.policies import (
    LFUPolicy,
    LRUPolicy,
    MonetDBPolicy,
    OfflineFarthestFirstPolicy,
    OfflineLogOptimalPolicy,
    ProteusLRUPolicy,
    VectorwisePolicy,
    make_policy,
)
from repro.core.subsumption import SubsumptionIndex

__all__ = [
    "ReCacheConfig",
    "CacheEntry",
    "CacheKey",
    "CacheStats",
    "LayoutObservation",
    "benefit_metric",
    "CacheManagerStats",
    "CacheMatch",
    "ReCache",
    "AdmissionController",
    "AdmissionDecision",
    "LayoutSelector",
    "LayoutCostModel",
    "EvictionPolicy",
    "ReCacheGreedyDualPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "ProteusLRUPolicy",
    "VectorwisePolicy",
    "MonetDBPolicy",
    "OfflineFarthestFirstPolicy",
    "OfflineLogOptimalPolicy",
    "make_policy",
    "SubsumptionIndex",
]
