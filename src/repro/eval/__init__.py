"""Evaluation: ranking metrics, protocols, and user-group analyses.

Names load on first use, so the serving stack can import :mod:`repro.eval.topk`
without the model-side protocols.
"""

from .._lazy import lazy_exports

_LAZY = {
    **dict.fromkeys(("mean_metric", "ndcg_at_k", "recall_at_k"), ".metrics"),
    **dict.fromkeys(("masked_topk", "topk_indices", "topk_pairs"), ".topk"),
    **dict.fromkeys(("evaluate", "metrics_from_rankings", "topk_rankings"), ".ranking"),
    **dict.fromkeys(("ann_recall_at_k", "ann_recall_report"), ".ann"),
    **dict.fromkeys(("ColdStartTask", "build_cold_start_task", "evaluate_cold_start"), ".protocols"),
    **dict.fromkeys(("consistency_groups", "evaluate_user_groups"), ".groups"),
    **dict.fromkeys(
        (
            "average_precision_at_k",
            "category_coverage",
            "evaluate_extended",
            "hit_rate_at_k",
            "mrr_at_k",
            "precision_at_k",
            "preferred_price_level",
            "price_calibration_error",
            "price_level_coverage",
        ),
        ".extended_metrics",
    ),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
