"""Parallel batch-inference runtime: threaded chunks + sharded full-catalog top-K.

The execution engine behind full-ranking evaluation (:mod:`repro.eval.ranking`)
and bulk offline recommendation export.  Two pieces:

* :class:`~repro.runtime.sharded.ShardedIndex` — an item-range partition of a
  frozen factorization whose per-shard top-K candidates merge through the
  deterministic :mod:`repro.eval.topk` kernels, bit-identical to unsharded
  selection;
* :class:`~repro.runtime.engine.BatchRuntime` — runs user chunks on a thread
  pool with preallocated per-thread score buffers, plus
  :func:`~repro.runtime.engine.recommend_all`, the bulk top-K exporter.

The determinism contract is the point: rankings and metrics are bit-identical
across worker counts — parallelism changes wall time, never results — and
the item-shard layout is not a setting at all.
"""

from .engine import BatchRuntime, BulkRecommendations, RuntimeConfig, recommend_all
from .sharded import ShardedIndex

__all__ = [
    "BatchRuntime",
    "BulkRecommendations",
    "RuntimeConfig",
    "ShardedIndex",
    "recommend_all",
]
