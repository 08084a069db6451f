"""Figure 5 — recommendation quality vs number of price levels (Amazon-like).

The same interactions are requantized at 2/3/5/10/20/50/100 levels and PUP
is retrained for each.  Paper shape: an inverted U — too coarse (2 levels)
cannot express price preference, too fine (100 levels) fragments the price
nodes; the peak sits at a moderate level count.
"""

import numpy as np

from benchmarks._harness import (
    PAPER_FIG5_LEVELS,
    format_table,
    paper_spec,
    train_requantized,
    write_report,
)


def test_fig5_price_level_sweep():
    spec = paper_spec("pup", "amazon")
    series = {
        levels: train_requantized(spec, levels)[0]["Recall@100"] for levels in PAPER_FIG5_LEVELS
    }

    values = list(series.values())
    peak = max(values)
    rows = [
        [str(levels), f"{recall:.4f}", "#" * int(round(recall / peak * 40))]
        for levels, recall in series.items()
    ]
    report = format_table(
        "Fig 5 — Recall@100 vs number of price levels (amazon-like)",
        ["levels", "Recall@100", "bar"],
        rows,
        notes=[
            "paper shape: inverted U; coarse (2) and very fine (100) quantization",
            "both underperform a moderate number of levels.",
        ],
    )
    write_report("fig5_price_levels", report)

    levels = list(series)
    best_level = levels[int(np.argmax(values))]
    # The peak is interior: strictly better than both extremes.
    assert series[best_level] > series[levels[0]]
    assert series[best_level] > series[levels[-1]]
    assert 3 <= best_level <= 50
