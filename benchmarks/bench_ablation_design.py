"""Design-choice ablations beyond the paper's tables.

docs/experiments.md calls out three implementation decisions the paper
motivates in prose but never tables; this bench quantifies each on the
Yelp-like dataset:

* **self-loops** in Â (Section IV-A cites SGC: "adding self-loops is of
  significant importance") — expected to help;
* **number of convolution layers** (the paper uses one; 0 = plain lookup,
  2 = deeper smoothing) — one layer expected near the best;
* **loss form** — the literal Eq. 4 ``-ln(sigma(s_i) - sigma(s_j))`` vs the
  standard BPR ``-ln sigma(s_i - s_j)`` the reference implementation uses.
"""

from benchmarks._harness import format_table, paper_spec, trained, write_report

CONFIGURATIONS = {
    "PUP (paper design)": paper_spec("pup", "yelp"),
    "no self-loops": paper_spec("pup", "yelp", hparams={"self_loops": False}),
    "0 conv layers (lookup)": paper_spec("pup", "yelp", hparams={"n_layers": 0}),
    "2 conv layers": paper_spec("pup", "yelp", hparams={"n_layers": 2}),
    "literal Eq.4 loss": paper_spec("pup", "yelp", loss="bpr_eq4"),
}


def test_design_choice_ablation():
    results = {name: trained(spec).metrics for name, spec in CONFIGURATIONS.items()}

    rows = [
        [name, f"{metrics['Recall@50']:.4f}", f"{metrics['NDCG@50']:.4f}"]
        for name, metrics in results.items()
    ]
    report = format_table(
        "Design ablation — PUP implementation choices (yelp-like)",
        ["configuration", "Recall@50", "NDCG@50"],
        rows,
        notes=[
            "expected: the paper design (1 conv layer, self-loops, BPR) is at",
            "or near the top; removing propagation (0 layers) costs accuracy;",
            "the literal Eq. 4 loss form trains but is less stable than BPR.",
        ],
    )
    write_report("ablation_design", report)

    paper = results["PUP (paper design)"]["Recall@50"]
    # Graph propagation is load-bearing.
    assert paper > results["0 conv layers (lookup)"]["Recall@50"]
    # The paper design should not be dominated by any single perturbation by
    # a wide margin (sanity that defaults are sensibly tuned).
    for name, metrics in results.items():
        assert paper >= metrics["Recall@50"] * 0.9, f"{name} dominates the paper design"
