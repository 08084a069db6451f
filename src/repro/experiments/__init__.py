"""Unified experiment API: registry + declarative specs + artifact store.

The three pieces this package adds on top of the library layers:

* **model registry** (:mod:`repro.experiments.registry`) — the model-side
  twin of :func:`repro.data.load_dataset`: ``build_model("pup", dataset)``,
  :func:`available_models`, and a serializable :class:`ModelSpec`;
* **declarative pipeline** (:mod:`repro.experiments.spec` /
  :mod:`repro.experiments.runner`) — :class:`ExperimentSpec` names a
  dataset, a model, a :class:`~repro.train.TrainConfig` and an eval
  protocol; :func:`run` executes train → evaluate → export in one call;
* **artifact store** (:mod:`repro.experiments.artifacts`) — ``run`` writes
  a versioned directory (spec.json, checkpoint/, index/, metrics.json,
  loss_curve.json) that :meth:`Experiment.load` rehydrates
  into a serving-ready object.

Quickstart::

    from repro.experiments import ExperimentSpec, Experiment, run

    spec = ExperimentSpec.create(model="pup", dataset="yelp", epochs=20)
    experiment = run(spec, artifacts_dir="runs/pup_yelp")
    print(experiment.metrics)

    experiment = Experiment.load("runs/pup_yelp")   # later / elsewhere
    experiment.service().recommend(user=42)

The registry is imported eagerly, and then the model packages, which
register themselves through it; spec/runner/artifacts load lazily so that
registering a model during package import cannot create an import cycle.
"""

from .._lazy import lazy_exports
from .registry import (
    PAPER_HPARAMS,
    ModelSpec,
    available_models,
    build_model,
    model_display_name,
    model_info,
    register_model,
    resolve_model_name,
)
from .. import baselines, core  # noqa: F401 - importing the models registers them

_LAZY = {
    "DatasetSpec": ".spec",
    "EvalSpec": ".spec",
    "ExperimentSpec": ".spec",
    "Experiment": ".artifacts",
    "ARTIFACT_FORMAT_VERSION": ".artifacts",
    "run": ".runner",
}

__all__ = [
    "PAPER_HPARAMS",
    "ModelSpec",
    "available_models",
    "build_model",
    "model_display_name",
    "model_info",
    "register_model",
    "resolve_model_name",
    *sorted(_LAZY),
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
