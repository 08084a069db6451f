"""Shared recipe for the per-table / per-figure paper-claim scripts.

Every ``bench_*.py`` file regenerates one artifact of the paper's evaluation
section: it trains the involved models on the corresponding synthetic
dataset, prints the same rows/series the paper reports (with the paper's
published numbers alongside for shape comparison), writes the report to
``benchmarks/results/<name>.txt``, and asserts the paper's ordering.

Models come from the experiment API: :func:`paper_spec` is the one
training recipe, and :func:`trained` runs each distinct spec once per
process, so a model several tables share (PUP on yelp appears in four) is
trained once; :func:`train_requantized` does the same for each (spec, level
count) pair.

Absolute numbers are not expected to match the paper (our substrate is a
calibrated synthetic generator, not the original datasets); the *shape* —
who wins, rough factors, where curves peak — is the reproduction target.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.data import rank_quantize
from repro.data.dataset import Dataset
from repro.experiments import (
    PAPER_HPARAMS,
    Experiment,
    ExperimentSpec,
    resolve_model_name,
    run,
)
from repro.train import train_model

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: paper: Adam @ 1e-2, batch 1024, BPR, lr cut by 10x twice; epochs reduced
#: for synthetic scale
EPOCHS = 45


def paper_spec(
    model: str,
    dataset: str,
    *,
    hparams: Optional[Dict[str, Any]] = None,
    epochs: int = EPOCHS,
    **overrides,
) -> ExperimentSpec:
    """The shared recipe for ``model`` on ``dataset``, seed 0.

    The learning rate decays 10x at 1/2 and 3/4 of the run; evaluation is
    Recall/NDCG at 50 and 100 on the test split, with no serving export.
    ``hparams`` is merged over ``PAPER_HPARAMS`` (PUP's ablation variants
    take PUP's sizes); other ``overrides`` go to
    :meth:`ExperimentSpec.create`, e.g. ``scale``, ``seed`` or a
    :class:`~repro.train.TrainConfig` field such as ``loss``.
    """
    canonical = resolve_model_name(model)
    variant_of_pup = canonical.startswith("pup")
    base = PAPER_HPARAMS.get(canonical, PAPER_HPARAMS["pup"] if variant_of_pup else {})
    recipe = dict(
        epochs=epochs,
        batch_size=1024,
        learning_rate=1e-2,
        l2_weight=1e-4,
        lr_milestones=(epochs // 2, (3 * epochs) // 4),
        ks=(50, 100),
        export=False,
    )
    recipe.update(overrides)
    return ExperimentSpec.create(canonical, dataset, hparams={**base, **(hparams or {})}, **recipe)


_TRAINED: Dict[str, Experiment] = {}


def trained(spec: ExperimentSpec) -> Experiment:
    """``run(spec)``, once per process: the :class:`Experiment` for ``spec``."""
    key = spec.to_json()
    if key not in _TRAINED:
        _TRAINED[key] = run(spec)
    return _TRAINED[key]


_REQUANTIZED: Dict[Tuple[str, int], Tuple[Dict[str, float], Dataset]] = {}


def train_requantized(spec: ExperimentSpec, n_levels: int) -> Tuple[Dict[str, float], Dataset]:
    """Train and evaluate ``spec`` on its dataset rank-quantized to ``n_levels``.

    The requantized dataset is not a registry dataset, so the spec does not
    name it and the run stays out of :func:`trained`'s memo.  It is a pure
    function of the spec and ``n_levels``, so the pair keys a memo of its own:
    Table IV's Rank arm and Fig 5's point at the same level count share a run.
    """
    key = (spec.to_json(), n_levels)
    if key not in _REQUANTIZED:
        base, _truth = spec.dataset.load()
        levels = rank_quantize(base.catalog.raw_prices, base.catalog.categories, n_levels)
        dataset = base.requantize(levels, n_levels)
        model = spec.model.build(dataset)
        train_model(model, dataset, spec.train)
        _REQUANTIZED[key] = (spec.eval.run(model, dataset), dataset)
    return _REQUANTIZED[key]


def format_table(
    title: str,
    header: List[str],
    rows: List[List[str]],
    notes: Optional[List[str]] = None,
) -> str:
    """Fixed-width text table matching the paper's row layout."""
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if notes:
        lines.append("")
        lines.extend(notes)
    return "\n".join(lines)


def write_report(name: str, text: str) -> str:
    """Print the report and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path


# ----------------------------------------------------------------------
# Paper-published numbers, for side-by-side shape comparison in reports.
# ----------------------------------------------------------------------

PAPER_TABLE2 = {
    "yelp": {
        "ItemPop": (0.0401, 0.0182, 0.0660, 0.0247),
        "BPR-MF": (0.1621, 0.0767, 0.2538, 0.1000),
        "PaDQ": (0.1241, 0.0572, 0.2000, 0.0767),
        "FM": (0.1635, 0.0771, 0.2538, 0.1001),
        "DeepFM": (0.1644, 0.0769, 0.2545, 0.0998),
        "GC-MC": (0.1670, 0.0770, 0.2621, 0.1011),
        "NGCF": (0.1679, 0.0769, 0.2619, 0.1008),
        "PUP": (0.1765, 0.0816, 0.2715, 0.1058),
    },
    "beibei": {
        "ItemPop": (0.0087, 0.0027, 0.0175, 0.0046),
        "BPR-MF": (0.0256, 0.0103, 0.0379, 0.0129),
        "PaDQ": (0.0131, 0.0056, 0.0186, 0.0068),
        "FM": (0.0259, 0.0104, 0.0384, 0.0130),
        "DeepFM": (0.0255, 0.0090, 0.0400, 0.0122),
        "GC-MC": (0.0231, 0.0100, 0.0343, 0.0124),
        "NGCF": (0.0256, 0.0107, 0.0383, 0.0134),
        "PUP": (0.0266, 0.0113, 0.0403, 0.0142),
    },
}

PAPER_TABLE3 = {
    "PUP w/o c,p": (0.0726, 0.0211, 0.1155, 0.0285),
    "PUP w/ c": (0.0633, 0.0222, 0.0944, 0.0276),
    "PUP w/ p": (0.0854, 0.0277, 0.1275, 0.0350),
    "PUP": (0.0890, 0.0293, 0.1336, 0.0370),
}

PAPER_TABLE4 = {
    "Uniform": (0.0807, 0.0264, 0.1192, 0.0331),
    "Rank": (0.0885, 0.0294, 0.1313, 0.0368),
}

PAPER_TABLE5 = {  # allocation -> Recall@50 on Yelp
    "16/48": 0.1460,
    "32/32": 0.1689,
    "48/16": 0.1757,
    "56/8": 0.1765,
    "60/4": 0.1745,
}

PAPER_TABLE6 = {  # NDCG@50 on Beibei
    "consistent": {"DeepFM": 0.0091, "PUP": 0.0129},
    "inconsistent": {"DeepFM": 0.0085, "PUP": 0.0086},
}

PAPER_FIG5_LEVELS = (2, 3, 5, 10, 20, 50, 100)
