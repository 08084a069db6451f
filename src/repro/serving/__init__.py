"""Serving: offline embedding export + online batched top-K recommendation.

The offline/online split mirrors how graph recommenders deploy in practice:
graph propagation — the only expensive part of PUP-style inference — runs
once at export time (:func:`export_index`), producing a frozen
:class:`EmbeddingIndex`; the online path (:class:`RecommenderService` over
a :class:`RetrievalEngine`) answers queries with dense matmuls, candidate
filters, train-item exclusion, micro-batching, and an LRU result cache.

Quickstart::

    from repro.serving import export_index, RecommenderService, PriceBandFilter

    index = export_index(trained_model, dataset)
    index.save("artifacts/pup_index")           # or EmbeddingIndex.load(...)
    service = RecommenderService(index, default_k=10)

    service.recommend(user=42).items                        # warm user
    service.recommend(user=10**9).items                     # cold -> fallback
    service.recommend(7, filters=[PriceBandFilter(0, 2)])   # budget items only
"""

from .index import EmbeddingIndex, INDEX_KIND
from .export import ExportError, export_index, export_index_from_checkpoint
from .ann import IVFIndex, build_ivf
from .filters import (
    AllOf,
    AllowListFilter,
    CategoryFilter,
    DenyListFilter,
    Filter,
    PriceBandFilter,
    combine_mask,
    combine_signature,
)
from .fallback import PriceProfileFallback
from .errors import (
    BackendError,
    DeadlineExceeded,
    FlusherCrashed,
    GatewayClosed,
    GatewayError,
    Overloaded,
    RateLimited,
)
from .resilience import (
    FALLBACK_STAGES,
    CircuitBreaker,
    ResilienceConfig,
    ResiliencePolicy,
    is_transient,
)
from .retrieval import RetrievalEngine, RetrievalResult
from .service import (
    COLD,
    WARM,
    DegradedResponse,
    PendingRecommendation,
    Recommendation,
    RecommenderService,
    Request,
    ResultTimeout,
)
from .gateway import (
    GatewayConfig,
    ServingGateway,
    TokenBucket,
)
from .stats import LatencyRecorder, ServingStats

__all__ = [
    "EmbeddingIndex",
    "INDEX_KIND",
    "IVFIndex",
    "build_ivf",
    "ExportError",
    "export_index",
    "export_index_from_checkpoint",
    "Filter",
    "PriceBandFilter",
    "CategoryFilter",
    "AllowListFilter",
    "DenyListFilter",
    "AllOf",
    "combine_mask",
    "combine_signature",
    "PriceProfileFallback",
    "RetrievalEngine",
    "RetrievalResult",
    "RecommenderService",
    "Recommendation",
    "DegradedResponse",
    "PendingRecommendation",
    "Request",
    "ResultTimeout",
    "ServingGateway",
    "GatewayConfig",
    "GatewayError",
    "Overloaded",
    "RateLimited",
    "GatewayClosed",
    "DeadlineExceeded",
    "FlusherCrashed",
    "BackendError",
    "TokenBucket",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResiliencePolicy",
    "FALLBACK_STAGES",
    "is_transient",
    "WARM",
    "COLD",
    "LatencyRecorder",
    "ServingStats",
]
