"""Execute an :class:`~repro.experiments.spec.ExperimentSpec` end to end.

``run`` is the one-call pipeline that the examples, benchmarks, and the
``python -m repro`` CLI all share: load dataset → build model through the
registry → train → evaluate → (optionally) export the serving index and
write the artifact directory.

Every run is timed with :mod:`repro.obs.trace` spans.  The trainer's
spans become ``TrainResult.profile``, and the final evaluation's spans,
recorded into the caller's ``tracer`` or a private one, become
``eval_profile``; both are persisted in ``metrics.json``.  Passing a
``tracer`` keeps every span of the run for a Chrome trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..eval.ranking import eval_profile
from ..nn import precision
from ..obs.trace import Tracer
from ..train.trainer import train_model
from .artifacts import Experiment
from .registry import model_display_name
from .spec import ExperimentSpec


def run(
    spec: Union[ExperimentSpec, Dict],
    artifacts_dir: Optional[str] = None,
    verbose: bool = False,
    eval_workers: int = 0,
    tracer=None,
) -> Experiment:
    """Run one experiment; returns the live :class:`Experiment` handle.

    ``spec`` may be an :class:`ExperimentSpec` or its ``to_dict`` form.
    With ``artifacts_dir`` set, the full artifact directory (spec,
    checkpoint, index, metrics, loss curve) is written before returning.
    ``eval_workers`` parallelizes the final evaluation pass (results are
    bit-identical to serial; see :mod:`repro.runtime`).  ``tracer`` is an
    optional :class:`~repro.obs.Tracer` that receives every span of the run.
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)

    dataset, _truth = spec.dataset.load()
    if verbose:
        print(f"[{spec.name}] dataset {spec.dataset.name}: {dataset.summary()}")
    # The spec's precision scopes build + train + eval + export, so the whole
    # pipeline (including the frozen index) runs in the recorded dtype.
    with precision(spec.precision):
        model = spec.model.build(dataset)
        if verbose:
            print(
                f"[{spec.name}] training {model_display_name(spec.model.name)} "
                f"({model.num_parameters()} parameters, {spec.precision}) "
                f"for {spec.train.epochs} epochs"
            )
        train_result = train_model(model, dataset, spec.train, tracer=tracer)
        if verbose and train_result.triples_per_sec:
            print(f"[{spec.name}] trained at {train_result.triples_per_sec:,.0f} triples/s")
        model.eval()
        eval_tracer = tracer if tracer is not None else Tracer()
        mark = len(eval_tracer)
        metrics = spec.eval.run(model, dataset, workers=eval_workers, tracer=eval_tracer)
    if verbose:
        summary = "  ".join(f"{name}={value:.4f}" for name, value in metrics.items())
        print(f"[{spec.name}] {summary}")

    experiment = Experiment(
        spec, dataset, model, train_result=train_result, metrics=metrics,
        eval_profile=eval_profile(eval_tracer, mark),
    )
    if artifacts_dir is not None:
        experiment.save(artifacts_dir)
        if verbose:
            print(f"[{spec.name}] artifacts -> {artifacts_dir}")
    return experiment
