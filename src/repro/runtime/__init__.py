"""Parallel batch-inference runtime: worker pools + sharded full-catalog top-K.

The execution engine behind full-ranking evaluation (:mod:`repro.eval.ranking`)
and bulk offline recommendation export.  Three pieces:

* :class:`~repro.runtime.pool.WorkerPool` — an order-preserving chunk mapper
  with ``process`` / ``thread`` / ``serial`` modes and graceful fallback;
* :class:`~repro.runtime.sharded.ShardedIndex` — an item-range partition of a
  frozen factorization whose per-shard top-K candidates merge through the
  deterministic :mod:`repro.eval.topk` kernels, bit-identical to unsharded
  selection;
* :class:`~repro.runtime.engine.BatchRuntime` — dispatches user chunks to the
  pool with preallocated per-worker score buffers, plus
  :func:`~repro.runtime.engine.recommend_all`, the bulk top-K exporter.

The determinism contract is the point: rankings and metrics are bit-identical
across worker counts and pool modes — parallelism changes wall time, never
results — and the item-shard layout is not a setting at all.
"""

from .engine import BatchRuntime, BulkRecommendations, RuntimeConfig, recommend_all
from .pool import WorkerPool
from .sharded import ShardedIndex

__all__ = [
    "BatchRuntime",
    "BulkRecommendations",
    "RuntimeConfig",
    "ShardedIndex",
    "WorkerPool",
    "recommend_all",
]
