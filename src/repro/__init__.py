"""repro — reproduction of "Price-aware Recommendation with Graph
Convolutional Networks" (PUP, ICDE 2020) in pure NumPy.

Public API tour:

* :mod:`repro.data`   — datasets, synthetic generators, quantization
* :mod:`repro.graph`  — the unified heterogeneous graph
* :mod:`repro.core`   — the PUP model and its ablation variants
* :mod:`repro.baselines` — ItemPop, BPR-MF, PaDQ, FM, DeepFM, GC-MC, NGCF
* :mod:`repro.train`  — BPR trainer
* :mod:`repro.eval`   — Recall/NDCG, cold-start protocols, user groups
* :mod:`repro.serving` — embedding export + batched top-K serving, plus the
  always-on concurrent gateway (admission control, dual-trigger batching,
  rate limits — docs/serving.md)
* :mod:`repro.loadgen` — deterministic zipfian/burst traffic generation and
  closed/open-loop load runners for the gateway
* :mod:`repro.experiments` — model registry, declarative experiment specs,
  artifact store (also the engine behind the ``python -m repro`` CLI)
* :mod:`repro.analysis` — CWTP entropy and price-category heatmaps
* :mod:`repro.nn`     — the NumPy autograd substrate (precision policy,
  fused kernels)
* :mod:`repro.scoring`, :mod:`repro.archive` — the NumPy-only leaves serving runs on
* :mod:`repro.obs`    — metrics registry (Prometheus/JSON exporters), span
  tracing (Chrome trace; the spans behind ``TrainResult.profile``), live
  ``/metrics`` endpoint (docs/observability.md)

Quickstart (declarative experiment API)::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec.create("pup", "yelp", scale=0.5, epochs=20)
    experiment = run_experiment(spec, artifacts_dir="runs/pup_yelp")
    print(experiment.metrics)

or layer by layer::

    from repro.data import load_dataset
    from repro.core import pup_full
    from repro.train import TrainConfig, train_model
    from repro.eval import evaluate

    dataset, _ = load_dataset("yelp", scale=0.5)
    model = pup_full(dataset)
    train_model(model, dataset, TrainConfig(epochs=20))
    print(evaluate(model, dataset, ks=(50,)))

The same pipeline is reachable from the shell: ``python -m repro train
--model pup --dataset yelp`` (see ``python -m repro --help``).
"""

__version__ = "1.2.0"

from ._lazy import lazy_exports

_LAZY = {
    **{name: "." + name for name in (
        "analysis", "baselines", "core", "data", "eval", "experiments", "graph",
        "loadgen", "nn", "obs", "serving", "train",
    )},
    "available_datasets": ".data.registry",
    "load_dataset": ".data.registry",
    **dict.fromkeys(
        ("Experiment", "ExperimentSpec", "ModelSpec", "available_models", "build_model"),
        ".experiments",
    ),
    "run_experiment": ".experiments:run",
    "precision": ".nn",
    "set_default_dtype": ".nn",
    **dict.fromkeys(("MetricsRegistry", "MetricsServer", "Tracer"), ".obs"),
}

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
