"""Table II — top-K recommendation comparison on Yelp-like and Beibei-like.

Eight methods, Recall@{50,100} and NDCG@{50,100}.  Expected shape (from the
paper): PUP best on every metric of both datasets; PaDQ below BPR-MF
("price should be an input, not a target"); attribute-aware and graph
methods above plain BPR-MF; ItemPop far below everything personalized.
"""

from benchmarks._harness import PAPER_TABLE2, format_table, paper_spec, trained, write_report
from repro.experiments import PAPER_HPARAMS, model_display_name

METRICS = ("Recall@50", "NDCG@50", "Recall@100", "NDCG@100")


def test_table2_main_comparison():
    results = {
        dataset_name: {
            model_display_name(name): trained(paper_spec(name, dataset_name)).metrics
            for name in PAPER_HPARAMS
        }
        for dataset_name in ("yelp", "beibei")
    }

    reports = []
    for dataset_name, method_metrics in results.items():
        rows = []
        for method, metrics in method_metrics.items():
            paper = PAPER_TABLE2[dataset_name][method]
            rows.append(
                [method]
                + [f"{metrics[m]:.4f}" for m in METRICS]
                + [f"{p:.4f}" for p in paper]
            )
        reports.append(
            format_table(
                f"Table II — {dataset_name}-like (measured | paper)",
                ["method", *METRICS, *(f"paper:{m}" for m in METRICS)],
                rows,
            )
        )
    write_report("table2_main", "\n\n".join(reports))

    for dataset_name, method_metrics in results.items():
        pup = method_metrics["PUP"]
        for metric in METRICS:
            for method, metrics in method_metrics.items():
                if method == "PUP":
                    continue
                assert pup[metric] > metrics[metric], (
                    f"{dataset_name}: PUP {metric}={pup[metric]:.4f} did not beat "
                    f"{method} ({metrics[metric]:.4f})"
                )
        # PaDQ's generative treatment of price underperforms plain BPR-MF.
        assert method_metrics["PaDQ"]["Recall@50"] < method_metrics["BPR-MF"]["Recall@50"] * 1.05
        # Non-personalized popularity is far below everything personalized.
        assert method_metrics["ItemPop"]["Recall@50"] < method_metrics["BPR-MF"]["Recall@50"]
