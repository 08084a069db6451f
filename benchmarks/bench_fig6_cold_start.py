"""Figure 6 — cold-start performance on unexplored categories (Yelp-like).

Five methods (FM, DeepFM, GC-MC, PUP−, PUP) under the CIR and UCIR
protocols.  Paper shape: GCN-based methods (GC-MC, PUP−, PUP) beat
factorization methods (FM, DeepFM); PUP and PUP− beat GC-MC thanks to the
price bridge; full PUP is best overall.
"""

from benchmarks._harness import format_table, paper_spec, trained, write_report
from repro.eval import build_cold_start_task, evaluate_cold_start
from repro.experiments import model_display_name

MODELS = ("fm", "deepfm", "gcmc", "pup-minus", "pup")


def test_fig6_cold_start():
    experiments = {model_display_name(n): trained(paper_spec(n, "yelp")) for n in MODELS}
    dataset = experiments["PUP"].dataset
    task = build_cold_start_task(dataset)
    results = {
        name: {
            protocol: evaluate_cold_start(
                experiment.model, dataset, protocol=protocol, ks=(50,), task=task
            )
            for protocol in ("CIR", "UCIR")
        }
        for name, experiment in experiments.items()
    }
    n_cold_users = len(task.users)

    rows = [
        [
            name,
            f"{metrics['CIR']['Recall@50']:.4f}",
            f"{metrics['CIR']['NDCG@50']:.4f}",
            f"{metrics['UCIR']['Recall@50']:.4f}",
            f"{metrics['UCIR']['NDCG@50']:.4f}",
        ]
        for name, metrics in results.items()
    ]
    report = format_table(
        "Fig 6 — cold-start on unexplored categories, yelp-like",
        ["method", "CIR R@50", "CIR N@50", "UCIR R@50", "UCIR N@50"],
        rows,
        notes=[
            f"cold-start users: {n_cold_users}",
            "paper shape: GCN methods (GC-MC, PUP-, PUP) > factorization methods",
            "(FM, DeepFM); PUP best in both protocols; PUP- also beats GC-MC.",
        ],
    )
    write_report("fig6_cold_start", report)

    for protocol in ("CIR", "UCIR"):
        recall = {name: m[protocol]["Recall@50"] for name, m in results.items()}
        assert recall["PUP"] >= max(recall.values()) * 0.97, f"PUP should lead {protocol}"
        # Price-aware graph methods at or above the factorization methods.
        assert max(recall["GC-MC"], recall["PUP-"], recall["PUP"]) >= 0.97 * max(
            recall["FM"], recall["DeepFM"]
        )
        # The price bridge helps beyond plain (price-blind) graph CF.
        assert recall["PUP"] > recall["GC-MC"]
        assert recall["PUP-"] > recall["GC-MC"]
