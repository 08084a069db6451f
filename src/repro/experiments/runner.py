"""Execute an :class:`~repro.experiments.spec.ExperimentSpec` end to end.

``run`` is the one-call pipeline that the examples, benchmarks, and the
``python -m repro`` CLI all share: load dataset → build model through the
registry → train → evaluate → (optionally) export the serving index and
write the artifact directory.

Every run is observable: training and evaluation profilers feed one
:class:`~repro.obs.MetricsRegistry`, whose snapshot is persisted as
``observability.json`` in the artifact directory.  Passing ``registry``
surfaces the same counters on a live ``/metrics`` endpoint; passing
``tracer`` records epoch/validation/eval spans for a Chrome trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..nn import precision
from ..obs.metrics import MetricsRegistry
from ..profiling import Profiler
from ..train.trainer import train_model
from .artifacts import Experiment
from .registry import model_display_name
from .spec import ExperimentSpec


def run(
    spec: Union[ExperimentSpec, Dict],
    artifacts_dir: Optional[str] = None,
    verbose: bool = False,
    eval_workers: int = 0,
    registry: Optional[MetricsRegistry] = None,
    tracer=None,
) -> Experiment:
    """Run one experiment; returns the live :class:`Experiment` handle.

    ``spec`` may be an :class:`ExperimentSpec` or its ``to_dict`` form.
    With ``artifacts_dir`` set, the full artifact directory (spec,
    checkpoint, index, metrics, loss curve, observability snapshot) is
    written before returning.  ``eval_workers`` parallelizes the final
    evaluation pass (results are bit-identical to serial; see
    :mod:`repro.runtime`).  ``registry`` / ``tracer`` are
    optional :mod:`repro.obs` sinks shared with the caller (e.g. a live
    metrics endpoint); omitted, a private registry still collects the run's
    counters for the artifact snapshot.
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if registry is None:
        registry = MetricsRegistry()

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
        train_result = train_model(
            model, dataset, spec.train, registry=registry, tracer=tracer
        )
        if verbose and train_result.triples_per_sec:
            print(f"[{spec.name}] trained at {train_result.triples_per_sec:,.0f} triples/s")
        model.eval()
        # The eval profiler gets a private registry so eval_profile stays a
        # pure evaluation summary (shares over eval time, not train+eval);
        # the series then merge into the shared registry, which therefore
        # holds the whole run: train phases + eval phases + counters.
        eval_registry = MetricsRegistry()
        eval_profiler = Profiler(registry=eval_registry)
        metrics = spec.eval.run(
            model, dataset, workers=eval_workers, profiler=eval_profiler, tracer=tracer,
        )
        registry.merge(eval_registry.to_json())
    if verbose:
        summary = "  ".join(f"{name}={value:.4f}" for name, value in metrics.items())
        print(f"[{spec.name}] {summary}")

    experiment = Experiment(
        spec, dataset, model, train_result=train_result, metrics=metrics,
        eval_profile=eval_profiler.summary(), obs_snapshot=registry.to_json(),
    )
    if artifacts_dir is not None:
        experiment.save(artifacts_dir)
        if verbose:
            print(f"[{spec.name}] artifacts -> {artifacts_dir}")
    return experiment
