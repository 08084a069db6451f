"""Figure 2 — price-category purchase heatmaps of three sampled users.

Paper's claim: a user's consumption within a category concentrates on one
price level, and the preferred level differs between categories.
"""

import numpy as np

from benchmarks._harness import write_report
from repro.analysis import render_ascii, row_concentration, user_price_category_heatmap
from repro.data import load_dataset


def test_fig2_price_category_heatmap():
    dataset, _truth = load_dataset("beibei")
    rng = np.random.default_rng(7)
    active_users = np.unique(dataset.train.users)
    users = rng.choice(active_users, size=3, replace=False)
    heatmaps = {int(u): user_price_category_heatmap(dataset, int(u), normalize=False) for u in users}
    concentrations = [
        row_concentration(h) for h in heatmaps.values() if h.sum() > 0
    ]
    all_concentration = []
    for user in active_users[:200]:
        heatmap = user_price_category_heatmap(dataset, int(user), normalize=False)
        if heatmap.sum() > 0:
            all_concentration.append(row_concentration(heatmap))
    mean_concentration = float(np.mean(all_concentration))

    sections = ["Fig 2 — price-category purchase heatmaps (3 sampled users)", "=" * 58]
    for user, heatmap in heatmaps.items():
        sections.append(f"\nuser {user}  (rows=categories, cols=price levels)")
        sections.append(render_ascii(heatmap))
    sections.append("")
    sections.append(f"per-user row concentration (sampled 3): {[f'{c:.2f}' for c in concentrations]}")
    sections.append(f"mean row concentration over 200 users:  {mean_concentration:.3f}")
    sections.append("")
    sections.append("paper shape: within a category, purchases sit on ~one price level")
    sections.append("(row concentration near 1), and the peak level varies by category.")
    write_report("fig2_heatmap", "\n".join(sections))

    assert mean_concentration > 0.55
