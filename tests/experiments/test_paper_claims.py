"""The paper's orderings that survive at a quarter of the yelp-like dataset.

A fast slice of the ``benchmarks/bench_*.py`` claims, on the same recipe
(``paper_spec``) shortened to 10 epochs.  Each failure message prints the
margin, so a shrinking lead is visible before it flips; the margins at
seed 0 are recorded in ``docs/experiments.md`` beside the full-scale claims.
Table III's price ablation and the cold-start lead are left to the
full-scale scripts: at this size the first flips and the second saturates.
"""

from benchmarks._harness import paper_spec, trained


def recall_at_50(model, **hparams):
    spec = paper_spec(model, "yelp", hparams=hparams, scale=0.25, epochs=10)
    return trained(spec).metrics["Recall@50"]


def assert_beats(winner, loser, label):
    margin = (winner - loser) / loser * 100
    assert winner > loser, f"{label}: Recall@50 {winner:.4f} vs {loser:.4f} ({margin:+.1f} %)"


def test_pup_beats_bpr_mf():
    assert_beats(recall_at_50("pup"), recall_at_50("bpr-mf"), "PUP > BPR-MF")


def test_bpr_mf_beats_item_popularity():
    assert_beats(recall_at_50("bpr-mf"), recall_at_50("itempop"), "BPR-MF > ItemPop")


def test_graph_propagation_beats_lookup():
    assert_beats(recall_at_50("pup"), recall_at_50("pup", n_layers=0), "1-layer > 0-layer PUP")
