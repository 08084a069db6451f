"""Approximate retrieval: IVF two-stage search, optionally with a residual
product-quantized fine stage.

Exact full-catalog retrieval costs one dense matmul over every item per
request — linear in catalog size, which caps throughput no matter how
parallel the runtime gets.  This package is the standard production
answer, built natively on the repo's numpy substrate.  There is one index
kind; what varies is its fine stage and where its bytes live
(``docs/performance.md`` records why the scalar-quantized tier and the
standalone full-scan PQ index were deleted: each lost on every axis):

* :class:`IVFIndex` (:func:`build_ivf`) — a k-means coarse quantizer with
  contiguous per-list storage and a two-stage search that re-ranks the
  probed pool *exactly* in the index dtype, so ``nprobe`` trades recall
  for time along a measured curve and full probe is bit-identical to
  exact search;
* ``build_ivf(..., pq=True)`` — IVF-PQ: per-branch *residual* product
  quantization (:class:`PQBranch`: subspace k-means, uint8 codes, an
  optional learned OPQ-style rotation) coded against each list's mean,
  scored by ADC lookup tables with a mandatory exact re-rank.  It is the
  tiered layout's memory arm, never faster than the exact fine stage in
  RAM;
* :class:`TieredIVFIndex` (:class:`TieredIndexConfig`) — the same IVF
  search over an mmap-ed archive, with the heaviest-probed lists
  resident in RAM and everything else OS-paged under an explicit memory
  ceiling: the 1M+ item layout.

One archive codec (:mod:`.archive`) saves every variant; :func:`load_ann`
re-attaches it.

Quickstart::

    from repro.serving import RecommenderService, export_index
    from repro.serving.ann import build_ivf

    index = export_index(trained_model, dataset)
    ann = build_ivf(index)                     # coarse probe + exact fine stage
    service = RecommenderService(index, ann=ann)
    service.recommend(user=42)                 # two-stage, filters at re-rank

docs/performance.md ("Measured curve") keeps the recorded ``nprobe`` x
{exact, pq} recall/speedup/memory curve and the tiered 1M-item run; the
test suite holds the default operating point at recall@50 and recall@10
>= 0.95, PQ codes at 16x under float32, and the declared memory ceiling.
"""

from .archive import load_ann
from .ivf import IVFIndex, build_ivf, combined_item_vectors, default_n_lists, default_nprobe
from .kmeans import assign_labels, kmeans
from .pq import PQBranch, score_candidates_exact, score_pq_block, subspace_splits
from .tiered import TieredIndexConfig, TieredIVFIndex

__all__ = [
    "load_ann",
    "IVFIndex",
    "build_ivf",
    "combined_item_vectors",
    "default_n_lists",
    "default_nprobe",
    "assign_labels",
    "kmeans",
    "PQBranch",
    "score_candidates_exact",
    "score_pq_block",
    "subspace_splits",
    "TieredIndexConfig",
    "TieredIVFIndex",
]
