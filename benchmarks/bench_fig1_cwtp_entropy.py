"""Figure 1 — histogram of users' CWTP entropy on the Beibei-like dataset.

Paper's claim: the distribution is skewed with wide support — many users
have distinctly positive entropy, i.e. price sensitivity is inconsistent
across categories for a large user population.
"""

import numpy as np

from benchmarks._harness import format_table, write_report
from repro.analysis import cwtp_entropy, entropy_histogram
from repro.data import load_dataset


def test_fig1_cwtp_entropy():
    dataset, _truth = load_dataset("beibei")
    entropies = np.array(list(cwtp_entropy(dataset).values()))
    edges, density = entropy_histogram(dataset, bins=12)

    rows = [
        [f"{lo:.2f}-{hi:.2f}", f"{d:.3f}", "#" * int(round(d * 40))]
        for lo, hi, d in zip(edges[:-1], edges[1:], density)
    ]
    stats = [
        f"users analyzed: {len(entropies)}",
        f"mean entropy:   {entropies.mean():.3f}",
        f"median entropy: {np.median(entropies):.3f}",
        f"max entropy:    {entropies.max():.3f}",
        f"share with entropy > 0: {np.mean(entropies > 0):.2%}",
        "",
        "paper shape: skewed density over [0, ~3] with substantial mass at",
        "positive entropy (price sensitivity inconsistent across categories).",
    ]
    report = format_table(
        "Fig 1 — CWTP entropy histogram (beibei-like)",
        ["bin", "density", "bar"],
        rows,
        notes=stats,
    )
    write_report("fig1_cwtp_entropy", report)

    # Shape assertions: wide support and plenty of inconsistent users.
    assert entropies.max() > 0.5
    assert np.mean(entropies > 0) > 0.3
