"""Table V — embedding-size allocation between the two branches (Yelp-like).

With the holistic size fixed at 64, the split global/category is swept over
16/48, 32/32, 48/16, 56/8, 60/4.  Paper shape: performance improves as the
global branch takes the majority, peaks around 56/8, and degrades when the
category branch is squeezed to almost nothing.
"""

from benchmarks._harness import PAPER_TABLE5, format_table, paper_spec, trained, write_report

ALLOCATIONS = [(16, 48), (32, 32), (48, 16), (56, 8), (60, 4)]


def test_table5_embedding_allocation():
    results = {
        f"{g}/{c}": trained(
            paper_spec("pup", "yelp", hparams={"global_dim": g, "category_dim": c})
        ).metrics["Recall@50"]
        for g, c in ALLOCATIONS
    }

    rows = [
        [allocation, f"{recall:.4f}", f"{PAPER_TABLE5[allocation]:.4f}"]
        for allocation, recall in results.items()
    ]
    report = format_table(
        "Table V — embedding allocation global/category, yelp-like (measured | paper)",
        ["allocation", "Recall@50", "paper:Recall@50"],
        rows,
        notes=[
            "paper shape: global-branch majority wins; 16/48 clearly worst;",
            "peak near 56/8.",
        ],
    )
    write_report("table5_allocation", report)

    # A global-majority allocation must beat the category-majority one.
    best = max(results, key=results.get)
    global_dim = int(best.split("/")[0])
    assert global_dim >= 32, f"best allocation {best} should favour the global branch"
    assert results["48/16"] > results["16/48"]
    assert results["56/8"] > results["16/48"]
