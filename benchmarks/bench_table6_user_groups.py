"""Table VI — consistent vs inconsistent users on the Beibei-like dataset.

Users are split by CWTP entropy (Section II-A).  Paper shape: both DeepFM
and PUP do much better on consistent users; PUP's boost over DeepFM is
large on the consistent group and small (but non-negative) on the
inconsistent group.
"""

from benchmarks._harness import PAPER_TABLE6, format_table, paper_spec, trained, write_report
from repro.eval import consistency_groups, evaluate_user_groups
from repro.experiments import model_display_name


def test_table6_consistency_groups():
    experiments = {
        model_display_name(name): trained(paper_spec(name, "beibei")) for name in ("deepfm", "pup")
    }
    dataset = experiments["PUP"].dataset
    groups = consistency_groups(dataset)
    results = {
        name: evaluate_user_groups(experiment.model, dataset, groups, ks=(50,))
        for name, experiment in experiments.items()
    }
    sizes = {name: len(users) for name, users in groups.items()}

    rows = []
    for group in ("consistent", "inconsistent"):
        deepfm = results["DeepFM"][group]["NDCG@50"]
        pup = results["PUP"][group]["NDCG@50"]
        boost = (pup - deepfm) / deepfm * 100 if deepfm > 0 else float("inf")
        paper = PAPER_TABLE6[group]
        paper_boost = (paper["PUP"] - paper["DeepFM"]) / paper["DeepFM"] * 100
        rows.append(
            [
                group,
                f"{deepfm:.4f}",
                f"{pup:.4f}",
                f"{boost:+.1f}%",
                f"{paper['DeepFM']:.4f}",
                f"{paper['PUP']:.4f}",
                f"{paper_boost:+.1f}%",
            ]
        )
    report = format_table(
        "Table VI — NDCG@50 per consistency group, beibei-like (measured | paper)",
        ["group", "DeepFM", "PUP", "boost", "paper:DeepFM", "paper:PUP", "paper:boost"],
        rows,
        notes=[
            f"group sizes: {sizes}",
            "paper shape: PUP >= DeepFM on both groups; the boost is larger on",
            "consistent users; both models find inconsistent users harder.",
        ],
    )
    write_report("table6_user_groups", report)

    for group in ("consistent", "inconsistent"):
        assert results["PUP"][group]["NDCG@50"] >= results["DeepFM"][group]["NDCG@50"] * 0.98
    # Consistent users are easier for the price-aware model.
    assert results["PUP"]["consistent"]["NDCG@50"] > results["PUP"]["inconsistent"]["NDCG@50"]
