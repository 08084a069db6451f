"""Table IV — uniform vs rank-based price quantization on Amazon-like data.

The Amazon-like generator draws heavy-tailed (lognormal) raw prices, the
regime where uniform quantization crowds most items into the bottom levels.
Paper shape: rank-based quantization beats uniform on every metric.
"""

import numpy as np

from benchmarks._harness import (
    PAPER_TABLE4,
    format_table,
    paper_spec,
    train_requantized,
    trained,
    write_report,
)
from repro.data import uniform_quantize

METRICS = ("Recall@50", "NDCG@50", "Recall@100", "NDCG@100")


def test_table4_quantization():
    spec = paper_spec("pup", "amazon")
    uniform = trained(spec)  # the generator quantizes uniformly: Table III's PUP
    base = uniform.dataset
    n_levels = base.n_price_levels
    assert np.array_equal(
        uniform_quantize(base.catalog.raw_prices, base.catalog.categories, n_levels),
        base.item_price_levels,
    )
    rank_metrics, rank_dataset = train_requantized(spec, n_levels)
    results = {"Uniform": uniform.metrics, "Rank": rank_metrics}
    occupancy = {}
    for name, dataset in (("Uniform", base), ("Rank", rank_dataset)):
        counts = np.bincount(dataset.item_price_levels, minlength=n_levels)
        occupancy[name] = counts / counts.sum()

    rows = [
        [name]
        + [f"{metrics[m]:.4f}" for m in METRICS]
        + [f"{p:.4f}" for p in PAPER_TABLE4[name]]
        for name, metrics in results.items()
    ]
    notes = [
        f"level occupancy (uniform): {np.round(occupancy['Uniform'], 2).tolist()}",
        f"level occupancy (rank):    {np.round(occupancy['Rank'], 2).tolist()}",
        "",
        "paper shape: rank quantization wins on every metric because the raw",
        "price distribution is heavy-tailed and uniform bins are unbalanced.",
    ]
    report = format_table(
        "Table IV — quantization methods, amazon-like (measured | paper)",
        ["method", *METRICS, *(f"paper:{m}" for m in METRICS)],
        rows,
        notes=notes,
    )
    write_report("table4_quantization", report)

    # Uniform bins are skewed; rank bins near-balanced.
    assert occupancy["Uniform"].max() > 2.0 * occupancy["Rank"].max()
    assert occupancy["Rank"].max() < 0.25
    for metric in METRICS:
        assert results["Rank"][metric] > results["Uniform"][metric] * 0.95
    assert results["Rank"]["Recall@50"] > results["Uniform"]["Recall@50"]
