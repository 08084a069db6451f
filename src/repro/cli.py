"""``python -m repro`` — the command-line face of the experiment API.

Subcommands:

* ``list``      — registered models and datasets
* ``train``     — run one experiment spec end to end, write an artifact dir
* ``evaluate``  — re-evaluate a saved artifact dir (``--workers``
  parallelizes the pass; results are bit-identical to serial)
* ``export``    — (re)build the serving index from a saved checkpoint
* ``recommend`` — bulk top-K export for every warm user via the parallel
  batch-inference runtime
* ``serve``     — answer recommendation queries from an artifact dir
  (``--metrics-port`` exposes a live Prometheus ``/metrics`` endpoint;
  ``--hold`` keeps it up for scraping)
* ``loadtest``  — drive synthetic load through the gateway (``--chaos``
  injects seeded faults and audits that every request resolved once)
* ``lifecycle`` — ``init`` / ``ingest`` / ``build`` / ``promote`` /
  ``rollback`` / ``status`` of a versioned, journaled serving catalog
  (a request the store refuses ends in ``error: <message>``, exit 1)
* ``compare``   — train several models on one dataset, print a table

``train`` / ``evaluate`` / ``recommend`` / ``serve`` accept ``--trace-out``
to record a Chrome-trace span timeline (see ``docs/observability.md``).

A flag that sets a config field takes its default and type from that
field, and the config's own checks are its bounds: each command builds its
configs before it loads an artifact or trains, so a value a config rejects
exits 2 with the usage line before any work.

Every subcommand goes through :mod:`repro.experiments`; nothing here
touches model factories or training loops directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .data.registry import available_datasets
from .eval.ranking import eval_profile
from .experiments import PAPER_HPARAMS
from .experiments.artifacts import (
    ANN_KINDS,
    INDEX_DIRNAME,
    RECOMMENDATIONS_DIRNAME,
    Experiment,
    build_ann,
    stage_ann,
)
from .experiments.registry import (
    available_models,
    model_display_name,
    model_info,
    resolve_model_name,
)
from .experiments.runner import run
from .experiments.spec import ExperimentSpec
from .faults import chaos_plan, describe_fault_points
from .lifecycle import (
    Event,
    GateConfig,
    LifecycleConfig,
    LifecycleController,
    StoreError,
    simulate_events,
)
from .lifecycle.journal import last_seq
from .loadgen import ArrivalSchedule, WorkloadConfig, build_workload
from .loadgen import run_chaos, run_closed_loop, run_open_loop
from .obs.trace import Tracer
from .runtime import RuntimeConfig, recommend_all
from .serving.export import ExportError
from .serving.gateway import GatewayConfig, ServingGateway
from .serving.resilience import ResilienceConfig

#: config field -> (option, metavar, help) for a group of config flags
_FlagTable = Dict[str, Tuple[str, Optional[str], Optional[str]]]


def _add_config_flags(parser: argparse.ArgumentParser, config: type, flags: _FlagTable) -> None:
    """One flag per ``flags`` entry, whose default and type are the field's.

    ``Optional[X]`` parses as ``X``; a bool field is a switch that flips
    its default (``--no-degrade`` for ``degrade=True``).  The flag stores
    under the field's name, where :func:`_config_from_args` reads it.
    """
    hints = typing.get_type_hints(config)
    defaults = {field.name: field.default for field in dataclasses.fields(config)}
    for name, (option, metavar, help) in flags.items():
        kind = hints[name]
        if typing.get_origin(kind) is typing.Union:
            kind = next(arg for arg in typing.get_args(kind) if arg is not type(None))
        if kind is bool:
            how = {"action": "store_false" if defaults[name] else "store_true"}
        else:
            how = {"type": kind, "metavar": metavar}
        parser.add_argument(option, dest=name, default=defaults[name], help=help, **how)


def _config_from_args(
    args: argparse.Namespace, factory: Callable, fields: Iterable[str] = (), **values
):
    """``factory(**values)`` plus the parsed flags named by ``fields``.

    A ``ValueError`` or ``KeyError`` from the factory's checks is a usage
    error: it exits 2 with the subcommand's usage line.
    """
    values.update((name, getattr(args, name)) for name in fields)
    try:
        return factory(**values)
    except (KeyError, ValueError) as error:
        args.parser.error(str(error.args[0]) if error.args else repr(error))


_GATEWAY_FLAGS: _FlagTable = {
    "max_queue_depth": ("--queue-depth", "N", "gateway admission-queue bound; requests "
                        "beyond it are shed with Overloaded (default: %(default)s)"),
    "max_wait_ms": ("--max-wait-ms", "MS", "gateway latency trigger: flush a partial batch "
                    "once its oldest request has waited this long (default: %(default)s)"),
    "rate_limit": ("--rate-limit", "RPS", "per-tenant token-bucket rate limit in "
                   "requests/second (default: unlimited)"),
    "deadline_ms": ("--deadline-ms", "MS", "per-request deadline: a request still queued "
                    "after this long fails with DeadlineExceeded instead of running late "
                    "(default: none)"),
}
_RESILIENCE_FLAGS: _FlagTable = {
    "retries": ("--retries", "N", "retry a failed batch up to N times before degrading "
                "(with --resilience; default: %(default)s)"),
    "degrade": ("--no-degrade", None, "fail with BackendError instead of serving degraded "
                "answers once retries are exhausted (with --resilience)"),
}
_WORKLOAD_FLAGS: _FlagTable = {
    "n_requests": ("--requests", "N", "workload size (default: %(default)s)"),
    "cold_fraction": ("--cold-fraction", "F", "fraction of requests from never-seen users "
                      "(default: %(default)s)"),
}
_ARRIVAL_FLAGS: _FlagTable = {
    "rate": ("--rate-qps", "QPS", "open-loop arrival rate (default: %(default)s)"),
}
_GATE_FLAGS: _FlagTable = {
    "seed": ("--seed", "SEED", None),
    "recall_floor": ("--recall-floor", "RECALL_FLOOR", "promotion gate: minimum recall@k "
                     "vs exact (default: %(default)s)"),
    "recall_k": ("--recall-k", "RECALL_K", "promotion gate recall depth (default: %(default)s)"),
    "nprobe": ("--gate-nprobe", "GATE_NPROBE", "operating point for the recall gate "
               "(default: the candidate's own nprobe)"),
}
_STALENESS_FLAGS: _FlagTable = {
    "staleness_threshold": ("--staleness-threshold", "STALENESS_THRESHOLD", "append-placed "
                            "catalog fraction that forces a full re-cluster "
                            "(default: %(default)s)"),
}


def _hparam(text: str) -> Tuple[str, Any]:
    """An argparse ``type=`` for ``--hparam key=value``; the value is read
    as JSON when it parses, else kept as a string."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, value = key.strip(), value.strip()
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse ``type=`` for integers ``>= floor``, for values no config
    owns: anything else exits 2 with a usage message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(f"expected an integer >= {floor}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _int_list(text: str) -> Tuple[int, ...]:
    """An argparse ``type=`` for comma-separated integers (``--ks 50,100``)."""
    try:
        return tuple(int(k) for k in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _print_metrics(metrics: Dict[str, float], indent: str = "  ") -> None:
    for name in sorted(metrics):
        print(f"{indent}{name}: {metrics[name]:.4f}")


def _make_tracer(args: argparse.Namespace, process_name: str):
    """A :class:`repro.obs.Tracer` when ``--trace-out`` was given, else None."""
    if getattr(args, "trace_out", None) is None:
        return None
    return Tracer(process_name=process_name)


def _write_trace(tracer, args: argparse.Namespace) -> None:
    if tracer is None:
        return
    path = tracer.write(args.trace_out)
    print(f"trace: {len(tracer)} spans -> {path}")


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a span trace of this command: Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing), or JSONL when FILE ends in "
        ".jsonl (see docs/observability.md)",
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    print("datasets:")
    for name in available_datasets():
        print(f"  {name}")
    print("\nmodels:")
    width = max(len(name) for name in available_models())
    for name in available_models():
        info = model_info(name)
        aliases = ", ".join(a for a in info["aliases"] if a != info["display"])
        suffix = f"  (aliases: {aliases})" if aliases else ""
        print(f"  {name.ljust(width)}  {info['display']:<12} {info['description']}{suffix}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    # The experiment flags are absent unless given (argparse.SUPPRESS), so
    # ExperimentSpec.create and TrainConfig supply every default.
    given = {
        dest: getattr(args, dest) for dest in args.experiment_flags if hasattr(args, dest)
    }
    if args.spec:
        # A spec file is the complete experiment; silently overriding parts
        # of it from flags would record the wrong experiment in spec.json.
        if given:
            conflicting = ", ".join(args.experiment_flags[dest] for dest in given)
            raise SystemExit(
                f"--spec is a complete experiment; drop {conflicting} "
                "or edit the spec file instead"
            )
        return ExperimentSpec.load(args.spec)
    if "model" not in given or "dataset" not in given:
        raise SystemExit("train needs --model and --dataset (or --spec FILE)")
    if "hparams" in given:
        given["hparams"] = dict(given["hparams"])
    return _config_from_args(args, ExperimentSpec.create, verbose=not args.quiet, **given)


def cmd_train(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    eval_workers = _config_from_args(args, RuntimeConfig, ["workers"]).workers
    artifacts_dir = args.out or os.path.join("runs", spec.name)
    tracer = _make_tracer(args, "repro-train")
    experiment = run(
        spec, artifacts_dir=artifacts_dir, verbose=not args.quiet,
        eval_workers=eval_workers, tracer=tracer,
    )
    result = experiment.train_result
    if result is not None and result.triples_per_sec:
        profile = result.profile
        phases = profile.get("phases", {})
        # Shares over pure-train time (summary()'s shares include validation,
        # which the quoted train_seconds window deliberately excludes).
        train_seconds = profile.get("train_seconds") or 0.0
        breakdown = " ".join(
            f"{name} {phases[name]['seconds'] / train_seconds:.0%}"
            for name in ("sampling", "forward", "backward", "step")
            if name in phases and train_seconds > 0
        )
        print(
            f"\ntraining throughput: {result.triples_per_sec:,.0f} triples/s "
            f"over {train_seconds:.2f}s ({breakdown})"
        )
    print(f"\n{spec.name} metrics ({spec.eval.split}):")
    _print_metrics(experiment.metrics)
    print(f"artifacts: {artifacts_dir}")
    _write_trace(tracer, args)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    workers = _config_from_args(args, RuntimeConfig, ["workers"]).workers
    experiment = Experiment.load(args.artifacts)
    trace = _make_tracer(args, "repro-evaluate")
    tracer = trace if trace is not None else Tracer()
    metrics = experiment.evaluate(ks=args.ks, split=args.split, workers=workers, tracer=tracer)
    _write_trace(trace, args)
    label = args.split or experiment.spec.eval.split
    print(f"{experiment.spec.name} metrics ({label}):")
    _print_metrics(metrics)
    profile = eval_profile(tracer)
    users = profile["counters"]["evaluated_users"]
    wall = profile["counters"]["eval_wall_seconds"]
    if users and wall > 0:
        # Phase shares are of summed span seconds (worker threads overlap);
        # throughput is over the ``eval`` span's wall time, which leaves out
        # rebuilding the model from its checkpoint.
        breakdown = " ".join(
            f"{name} {phase['share']:.0%}" for name, phase in profile["phases"].items()
        )
        # "requested": a model whose score does not factorize is evaluated
        # serially whatever the count, which this process cannot observe here.
        workers_note = f", {workers} workers requested" if workers else ""
        print(
            f"evaluated {users:.0f} users in {wall:.2f}s "
            f"({users / wall:,.0f} users/s{workers_note}; {breakdown})"
        )
    if experiment.metrics and args.ks is None and args.split is None:
        drift = {
            name: abs(metrics[name] - stored)
            for name, stored in experiment.metrics.items()
            if name in metrics
        }
        worst = max(drift.values(), default=0.0)
        print(f"stored metrics.json reproduced to within {worst:.2e}")
        if args.check and worst > 1e-12:
            print(
                f"FAIL: reproduced metrics drift {worst:.2e} from stored "
                "metrics.json exceeds 1e-12 (--check)",
                file=sys.stderr,
            )
            return 1
    elif args.check:
        raise SystemExit("--check needs stored metrics and default --ks/--split")

    if args.ann_check:
        # Runs its own exact ranking pass (via the frozen index) on top of
        # the metrics pass above (via the live model): the recall gate must
        # compare the ANN against the surface it approximates — the index —
        # and reusing the protocol pass would couple the gate to eval ks /
        # split internals for a diagnostic command that runs offline.
        from .eval.ann import ann_recall_report

        try:
            ann = _ann_from_args(experiment, args, force=True)
        except ExportError as error:
            print(f"--ann-check needs a servable index: {error}", file=sys.stderr)
            return 1
        eval_users = sorted(
            experiment.dataset.split_positive_sets(args.split or experiment.spec.eval.split)
        )
        report = ann_recall_report(
            experiment.index, ann, eval_users, k=args.ann_k, scorers=ann.scorers,
            nprobes=None if args.ann_nprobe is None else (args.ann_nprobe,),
        )
        failed = False
        for label, arm in report["arms"].items():
            recall = arm["recall_at_k"]
            # every arm is gated: both fine scorers return exact scores
            # (the pq arm after its re-rank), so a miss is a lost candidate
            status = ""
            if recall < args.ann_recall_floor:
                status = f"  FAIL (< {args.ann_recall_floor})"
                failed = True
            print(
                f"ann {label} (lists={ann.n_lists}): "
                f"recall@{report['k']}={recall:.4f} vs exact over "
                f"{report['evaluated_users']} users{status}"
            )
        if failed:
            print(
                f"FAIL: ANN recall@{report['k']} below the "
                f"{args.ann_recall_floor} floor (--ann-check)",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    experiment = Experiment.load(args.artifacts)
    try:
        index = experiment.export(force=True)
    except ExportError as error:
        print(f"export failed: {error}", file=sys.stderr)
        return 1
    path = index.save(args.out or os.path.join(args.artifacts, INDEX_DIRNAME))
    print(
        f"exported {index.model_name} index: {index.n_users} users x "
        f"{index.n_items} items, {len(index.branches)} branches, "
        f"{index.memory_bytes() / 1e3:.0f} kB -> {path}"
    )
    if args.ann or args.ann_kind is not None or args.memory_ceiling is not None:
        ann = build_ann(
            index, args.ann_kind, n_lists=args.ann_lists, nprobe=args.ann_nprobe
        )
        ann_path = stage_ann(ann, args.artifacts, tiered=args.memory_ceiling is not None)
        report = ann.memory_report()
        tier_note = (
            f", ceiling {args.memory_ceiling / 1e6:.0f} MB (tiered archive)"
            if args.memory_ceiling is not None
            else ""
        )
        print(
            f"exported ANN index ({report['kind']}): "
            f"{ann.n_lists} lists, default nprobe {ann.nprobe}, "
            f"{report['bytes_per_item']:.1f} B/item"
            f"{tier_note} -> {ann_path}"
        )
    return 0


def _ann_from_args(experiment: Experiment, args: argparse.Namespace, force: bool = False):
    """The ANN index the ``_add_ann_build_flags`` flags ask for, or None.

    ``--ann``, an explicit ``--ann-kind`` or a ``--memory-ceiling`` each
    ask for one; ``force`` builds with the flag values regardless.
    """
    if not (force or args.ann or args.ann_kind is not None or args.memory_ceiling is not None):
        return None
    return experiment.ann_index(
        n_lists=args.ann_lists,
        nprobe=args.ann_nprobe,
        kind=args.ann_kind,
        memory_ceiling_bytes=args.memory_ceiling,
    )


def cmd_recommend(args: argparse.Namespace) -> int:
    workers = _config_from_args(args, RuntimeConfig, ["workers"]).workers
    experiment = Experiment.load(args.artifacts)
    try:
        index = experiment.index
    except ExportError as error:
        print(f"cannot build recommendations for this artifact: {error}", file=sys.stderr)
        return 1
    users = [int(u) for u in args.users.split(",")] if args.users else None
    ann = _ann_from_args(experiment, args)
    tracer = _make_tracer(args, "repro-recommend")
    start = time.perf_counter()
    recommendations = recommend_all(
        index, k=args.k, users=users, workers=workers, ann=ann, tracer=tracer
    )
    wall = time.perf_counter() - start
    _write_trace(tracer, args)
    path = recommendations.save(
        args.out or os.path.join(args.artifacts, RECOMMENDATIONS_DIRNAME)
    )
    n = len(recommendations.users)
    rate = n / wall if wall > 0 else 0.0
    workers_note = f", {workers} workers requested" if workers else ""
    ann_note = ""
    if ann is not None:
        ann_note = f", ann nprobe {ann.nprobe}/{ann.n_lists} ({ann.kind})"
    print(
        f"exported top-{recommendations.k} for {n} users in {wall:.2f}s "
        f"({rate:,.0f} users/s{workers_note}{ann_note}) -> {path}"
    )
    return 0


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Retry/breaker/degradation knobs shared by serve and loadtest."""
    parser.add_argument(
        "--resilience", action="store_true",
        help="enable the resilience policy: retry transient backend errors "
        "with exponential backoff, trip a circuit breaker on sustained "
        "failure, degrade to cached/profile answers (docs/robustness.md)",
    )
    _add_config_flags(parser, ResilienceConfig, _RESILIENCE_FLAGS)


def _start_metrics_server(service, gateway, args: argparse.Namespace):
    """Serve /metrics, /stats and /healthz when --metrics-port asks for it."""
    if args.metrics_port is None:
        return None
    from .obs.server import MetricsServer

    server = MetricsServer(
        service.registry,
        port=args.metrics_port,
        stats_fn=service.stats.extended_snapshot,
        update_fn=gateway.sync_gauges if gateway is not None else service._sync_gauges,
    ).start()
    print(f"metrics: {server.url('/metrics')} (also /stats, /healthz)")
    return server


def cmd_serve(args: argparse.Namespace) -> int:
    if args.hold and args.metrics_port is None:
        raise SystemExit("--hold keeps the metrics endpoint up; it needs --metrics-port")
    gateway_config = _config_from_args(args, GatewayConfig, _GATEWAY_FLAGS)
    resilience = _config_from_args(args, ResilienceConfig, _RESILIENCE_FLAGS)
    experiment = Experiment.load(args.artifacts)
    tracer = _make_tracer(args, "repro-serve")
    try:
        ann = _ann_from_args(experiment, args)
        if ann is not None:
            print(
                f"approximate retrieval ({ann.kind}): {ann.n_lists} lists, "
                f"nprobe {ann.nprobe} (filters and exclusions apply at re-rank)"
            )
        service = experiment.service(
            default_k=args.k, ann=ann, tracer=tracer,
            resilience=resilience if args.resilience else None,
        )
    except ExportError as error:
        print(f"cannot serve this artifact: {error}", file=sys.stderr)
        return 1
    if service.resilience is not None:
        print(
            f"resilience: {resilience.retries} retries, "
            "circuit breaker armed, degradation ladder on"
        )

    gateway = None
    if args.gateway:
        gateway = ServingGateway(service, gateway_config)
        limit_note = (
            f", {gateway_config.rate_limit:g} req/s per tenant"
            if gateway_config.rate_limit else ""
        )
        print(
            f"gateway: queue depth {gateway_config.max_queue_depth}, "
            f"max wait {gateway_config.max_wait_ms:g} ms{limit_note}"
        )

    server = _start_metrics_server(service, gateway, args)

    if args.users and not args.dry_run:
        users = [int(u) for u in args.users.split(",")]
    else:
        # Dry run: a few warm users plus one unknown id to exercise fallback.
        warm = [u for u in range(service.index.n_users) if service.index.is_warm(u)]
        users = warm[:3] + [service.index.n_users + 10_000]
    if gateway is not None:
        # Through the admission queue: flushes come from the gateway's
        # dual trigger, so the demo exercises the full serving pipeline.
        pendings = [gateway.submit(user) for user in users]
        answers = [pending.result(timeout=30.0) for pending in pendings]
    else:
        answers = service.recommend_many(users)
    for recommendation in answers:
        items = ", ".join(str(int(item)) for item in recommendation.items)
        print(f"user {recommendation.user} [{recommendation.source}]: {items}")
    snapshot = service.stats.snapshot()
    print(
        f"served {snapshot['requests']:.0f} requests | "
        f"p50 {snapshot['latency_p50_ms']:.3f} ms | {snapshot['qps']:.0f} QPS"
    )
    # The trace is written before any --hold loop so a scraper driving this
    # process (CI smoke) can validate it without waiting for shutdown.
    _write_trace(tracer, args)
    if server is not None:
        if args.hold:
            print(f"holding metrics endpoint on port {server.port}; Ctrl-C to exit",
                  flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
        server.stop()
    if gateway is not None:
        gateway.close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive a synthetic workload through the full gateway stack.

    ``--chaos`` installs a deterministic fault plan (seeded, reproducible)
    across the scorer, the ANN path, and the gateway flusher, then audits
    the end-of-run books: every admitted request must resolve exactly once
    as ok / degraded / failed.  Exit code 1 on an accounting violation.
    """
    if args.list_fault_points:
        for point, description in describe_fault_points().items():
            print(f"{point:28s} {description}")
        return 0
    if args.artifacts is None:
        args.parser.error("artifacts directory is required (or use --list-fault-points)")
    gateway_config = _config_from_args(args, GatewayConfig, _GATEWAY_FLAGS)
    resilience = _config_from_args(args, ResilienceConfig, _RESILIENCE_FLAGS)
    workload = _config_from_args(args, WorkloadConfig, _WORKLOAD_FLAGS)
    schedule = _config_from_args(args, ArrivalSchedule, _ARRIVAL_FLAGS)

    experiment = Experiment.load(args.artifacts)
    plan = None
    if args.chaos:
        plan = chaos_plan(
            seed=args.chaos_seed,
            scorer_errors=args.chaos_scorer_errors,
            ann_failures=args.chaos_ann_failures if args.ann else 0,
            flusher_crashes=args.chaos_flusher_crashes,
            scorer_delays=args.chaos_scorer_delays,
        )

    try:
        ann = None
        if args.ann:
            ann = experiment.ann_index()
        service = experiment.service(
            default_k=args.k,
            ann=ann,
            # Chaos without resilience just proves requests fail; the
            # interesting run is faults + the ladder, so --chaos turns it on.
            resilience=resilience if args.resilience or args.chaos else None,
            fault_plan=plan,
        )
    except ExportError as error:
        print(f"cannot serve this artifact: {error}", file=sys.stderr)
        return 1

    gateway = ServingGateway(service, gateway_config, fault_plan=plan)
    server = _start_metrics_server(service, gateway, args)

    requests = build_workload(
        dataclasses.replace(workload, n_users=service.index.n_users),
        seed=args.workload_seed,
    )
    exit_code = 0
    try:
        if args.chaos:
            chaos_report = run_chaos(gateway, requests, plan=plan, threads=args.threads)
            payload = chaos_report.to_dict()
            if chaos_report.ok:
                print("chaos audit: books balance "
                      "(admitted == ok + degraded + failed)")
            else:
                for violation in chaos_report.violations:
                    print(f"chaos audit FAILED: {violation}", file=sys.stderr)
                exit_code = 1
        elif args.mode == "closed":
            payload = run_closed_loop(gateway, requests, threads=args.threads).to_dict()
        else:
            payload = run_open_loop(gateway, requests, schedule=schedule).to_dict()
        report = payload["load"] if args.chaos else payload
        print(
            f"{report['n_requests']} requests: {report['n_ok']} ok, "
            f"{report['n_degraded']} degraded, {report['failed_total']} failed, "
            f"{report['shed_total']} shed, {report['n_timeout']} timeout | "
            f"{report['qps']:.0f} QPS, p99 {report['p99_ms']:.3f} ms"
        )
        if args.out:
            with open(args.out, "w") as sink:
                json.dump(payload, sink, indent=2, sort_keys=True)
            print(f"report written to {args.out}")
    finally:
        if server is not None:
            server.stop()
        gateway.close()
    return exit_code


def _controller(
    args: argparse.Namespace, config: Optional[LifecycleConfig] = None
) -> LifecycleController:
    """The ``lifecycle`` store's controller; opening it runs crash recovery."""
    controller = LifecycleController(args.store, config=config)
    if controller.recovery["swept"] or controller.recovery["restamped"]:
        print(f"recovery: {controller.recovery}")
    return controller


def _store_refusals_exit_1(command: Callable[[argparse.Namespace], int]) -> Callable:
    """``command``, with a request the store refuses (rolling back with no
    parent, promoting with no candidate, ...) ending in one line —
    ``error: <message>`` on stderr — and exit 1, not a traceback."""

    def run_command(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except StoreError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    return run_command


def cmd_lifecycle_init(args: argparse.Namespace) -> int:
    controller = _controller(args)
    experiment = Experiment.load(args.artifacts)
    ann = experiment.ann_index(n_lists=args.ann_lists, nprobe=args.ann_nprobe)
    name = controller.bootstrap(experiment.index, ann)
    print(f"bootstrapped {name} (live)")
    return 0


def cmd_lifecycle_ingest(args: argparse.Namespace) -> int:
    controller = _controller(args)
    if args.simulate is not None:
        live = controller.store.current()
        if live is None:
            raise StoreError("store has no live version; run `lifecycle init` first")
        manifest = controller.store.read_manifest(live)
        events = simulate_events(
            n_users=int(manifest["n_users"]),
            n_items=int(manifest["n_items"]),
            count=args.simulate,
            seed=args.seed,
            start_seq=last_seq(controller.store.journal_dir) + 1,
        )
    else:
        with open(args.events, "r", encoding="utf-8") as fh:
            events = [Event(**json.loads(line)) for line in fh if line.strip()]
    stats = controller.ingest(events)
    print(
        f"ingested {stats['appended']} events "
        f"({stats['skipped']} duplicates skipped), "
        f"journal at seq {stats['last_seq']}"
    )
    return 0


def cmd_lifecycle_build(args: argparse.Namespace) -> int:
    controller = _controller(
        args, _config_from_args(args, LifecycleConfig, _STALENESS_FLAGS)
    )
    name = controller.build()
    if name is None:
        print("journal holds nothing past the live version; no candidate built")
        return 0
    manifest = controller.store.read_manifest(name)
    fold = manifest["fold"]
    print(
        f"candidate {name}: +{fold['new_users']} users, "
        f"+{fold['new_items']} items, {fold['interactions']} interactions, "
        f"{fold['reprices']} reprices; "
        f"{'re-clustered' if manifest['reclustered'] else 'delta build'} "
        f"(staleness {manifest.get('staleness', 0):.3f})"
    )
    return 0


def cmd_lifecycle_promote(args: argparse.Namespace) -> int:
    """Gate the candidate and flip CURRENT on a pass; exit 1 on a rejection."""
    gates = _config_from_args(args, GateConfig, _GATE_FLAGS)
    controller = _controller(args, LifecycleConfig(gates=gates))
    name, report = controller.promote(candidate=args.candidate)
    for gate, result in report.gates.items():
        print(f"gate {gate}: {result}")
    if name is None:
        for failure in report.failures:
            print(f"promotion REJECTED: {failure}", file=sys.stderr)
        return 1
    print(f"promoted {name} (live)")
    return 0


def cmd_lifecycle_rollback(args: argparse.Namespace) -> int:
    name = _controller(args).rollback(reason=args.reason)
    print(f"rolled back; {name} is live")
    return 0


def cmd_lifecycle_status(args: argparse.Namespace) -> int:
    print(json.dumps(_controller(args).status(), indent=2, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = args.models.split(",") if args.models else list(PAPER_HPARAMS)
    metric_names = [f"{metric}@{k}" for k in args.ks for metric in ("Recall", "NDCG")]

    def spec(model: str) -> ExperimentSpec:
        return ExperimentSpec.create(
            model,
            args.dataset,
            hparams=dict(PAPER_HPARAMS.get(resolve_model_name(model), {})),
            seed=args.seed,
            scale=args.scale,
            epochs=args.epochs,
            lr_milestones=(args.epochs // 2, (3 * args.epochs) // 4),
            ks=args.ks,
            export=False,
        )

    # every spec is resolved and checked before the first one trains
    specs = [_config_from_args(args, spec, model=name) for name in names]
    rows: List[List[str]] = []
    for spec in specs:
        experiment = run(spec, verbose=not args.quiet)
        rows.append(
            [model_display_name(spec.model.name)]
            + [f"{experiment.metrics[m]:.4f}" for m in metric_names]
        )

    header = ["method", *metric_names]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    print(f"\ndataset: {args.dataset} (scale {args.scale}, {args.epochs} epochs)")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_ann_build_flags(parser: argparse.ArgumentParser, layout: bool = True) -> None:
    """ANN construction knobs shared by export/serve/recommend/evaluate
    (and, without the ``layout`` pair, ``lifecycle init``)."""
    parser.add_argument(
        "--ann-lists", type=_positive_int, default=None,
        help="IVF list count (default: ~sqrt(n_items)/2)",
    )
    parser.add_argument(
        "--ann-nprobe", type=_positive_int, default=None,
        help="default lists probed per query (default: 1/8 of the lists)",
    )
    if not layout:
        return
    parser.add_argument(
        "--ann-kind", choices=ANN_KINDS, default=None,
        help="index family: exact-fine IVF (default), or IVF with residual "
        "product-quantized ADC candidates + exact re-rank (the tiered "
        "layout's memory arm)",
    )
    parser.add_argument(
        "--memory-ceiling", type=_non_negative_int, default=None, metavar="BYTES",
        help="tiered layout: keep the ANN index's resident footprint under "
        "this many bytes (hot lists in RAM, the rest mmap-paged)",
    )


def _command(commands, name: str, func: Callable, **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser; ``func`` runs it, and its own usage line reports
    the values its configs reject."""
    parser = commands.add_parser(name, **kwargs)
    parser.set_defaults(func=func, parser=parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment CLI for the PUP reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    _command(commands, "list", cmd_list, help="registered models and datasets")

    train = _command(commands, "train", cmd_train, help="run one experiment, write artifacts")
    experiment_flags: Dict[str, str] = {}

    def experiment_flag(option: str, **kwargs) -> None:
        """A flag that becomes an ``ExperimentSpec.create`` argument only
        when given."""
        action = train.add_argument(option, default=argparse.SUPPRESS, **kwargs)
        experiment_flags[action.dest] = option

    experiment_flag("--model", help="registry name (see `list`)")
    experiment_flag("--dataset", help="dataset name (see `list`)")
    train.add_argument("--spec", help="load a full ExperimentSpec JSON instead of flags")
    experiment_flag("--scale", type=float, help="dataset scale (default 1.0)")
    experiment_flag("--seed", type=int, help="model init + training seed (default 0)")
    experiment_flag("--data-seed", type=int)
    experiment_flag("--epochs", type=int, help="default 40")
    experiment_flag("--batch-size", type=int)
    experiment_flag("--lr", type=float, dest="learning_rate", metavar="LR")
    experiment_flag("--l2", type=float, dest="l2_weight", metavar="L2")
    experiment_flag("--lr-milestones", type=_int_list, help="comma-separated epoch numbers")
    experiment_flag("--eval-every", type=int)
    experiment_flag(
        "--ks", type=_int_list, help="eval cutoffs, comma-separated (default 50,100)"
    )
    experiment_flag("--split", choices=("train", "validation", "test"))
    experiment_flag(
        "--hparam", type=_hparam, action="append", dest="hparams", metavar="KEY=VALUE",
        help="model hyper-parameter",
    )
    experiment_flag("--name", help="experiment name (default: <model>_<dataset>)")
    train.add_argument("--out", help="artifact directory (default: runs/<name>)")
    experiment_flag(
        "--no-export", action="store_false", dest="export", help="skip the serving index"
    )
    experiment_flag(
        "--precision",
        choices=("float32", "float64"),
        help="compute precision for build+train+export, recorded in spec.json "
        "(default float64; float32 is ~2x training throughput, see "
        "docs/performance.md)",
    )
    _add_config_flags(train, RuntimeConfig, {"workers": (
        "--eval-workers", "EVAL_WORKERS",
        "parallel workers for the final evaluation pass (results identical)",
    )})
    train.add_argument("--quiet", action="store_true")
    _add_trace_flag(train)
    train.set_defaults(experiment_flags=experiment_flags)

    evaluate = _command(
        commands, "evaluate", cmd_evaluate, help="re-evaluate a saved artifact dir"
    )
    evaluate.add_argument("artifacts", help="artifact directory written by `train`")
    evaluate.add_argument("--ks", type=_int_list, help="override eval cutoffs")
    evaluate.add_argument("--split", choices=("train", "validation", "test"))
    _add_config_flags(evaluate, RuntimeConfig, {"workers": (
        "--workers", "WORKERS",
        "parallel evaluation workers (0 = serial; results are identical)",
    )})
    evaluate.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless stored metrics.json is reproduced to 1e-12 "
        "(CI guardrail for the parallel == serial determinism contract)",
    )
    evaluate.add_argument(
        "--ann-check", action="store_true",
        help="measure ANN recall vs exact rankings over the eval users; exit "
        "non-zero if the exact-fine arm falls below --ann-recall-floor",
    )
    evaluate.add_argument(
        "--ann-k", type=_positive_int, default=50, help="recall cutoff (default 50)"
    )
    evaluate.add_argument(
        "--ann-recall-floor", type=float, default=0.95,
        help="minimum acceptable recall@K for --ann-check (default 0.95)",
    )
    _add_ann_build_flags(evaluate)
    _add_trace_flag(evaluate)

    export = _command(commands, "export", cmd_export, help="rebuild the serving index")
    export.add_argument("artifacts", help="artifact directory written by `train`")
    export.add_argument("--out", help="index archive path (default: <artifacts>/index)")
    export.add_argument(
        "--ann", action="store_true",
        help="also build and save the approximate-retrieval index "
        "(IVF lists) next to the embedding index",
    )
    _add_ann_build_flags(export)

    recommend = _command(
        commands, "recommend", cmd_recommend, help="bulk top-K export for every warm user"
    )
    recommend.add_argument("artifacts", help="artifact directory written by `train`")
    recommend.add_argument("--k", type=_positive_int, default=10)
    recommend.add_argument("--users", help="comma-separated user ids (default: all warm users)")
    recommend.add_argument(
        "--out", help="output archive (default: <artifacts>/recommendations)"
    )
    _add_config_flags(recommend, RuntimeConfig, {"workers": (
        "--workers", "WORKERS", "parallel workers (0 = serial; results are identical)",
    )})
    recommend.add_argument(
        "--ann", action="store_true",
        help="candidate-generation mode: rank through the saved/built ANN "
        "index instead of exact full-catalog scoring",
    )
    _add_ann_build_flags(recommend)
    _add_trace_flag(recommend)

    serve = _command(commands, "serve", cmd_serve, help="answer queries from an artifact dir")
    serve.add_argument("artifacts", help="artifact directory written by `train`")
    serve.add_argument("--users", help="comma-separated user ids")
    serve.add_argument("--k", type=_positive_int, default=10)
    serve.add_argument(
        "--dry-run",
        action="store_true",
        help="serve a sample of warm users plus one cold id, then exit; "
        "overrides --users (also the default when --users is omitted)",
    )
    serve.add_argument(
        "--ann", action="store_true",
        help="serve through approximate retrieval (saved ann/ if present, "
        "else built with defaults); filters apply at re-rank",
    )
    serve.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="serve /metrics (Prometheus exposition), /stats (JSON), and "
        "/healthz on 127.0.0.1:PORT while this command runs (0 = ephemeral; "
        "the bound port is printed)",
    )
    serve.add_argument(
        "--hold", action="store_true",
        help="after answering the queries, keep the --metrics-port endpoint "
        "up until Ctrl-C (for scraping a live process)",
    )
    serve.add_argument(
        "--gateway", action="store_true",
        help="serve through the concurrent gateway (bounded admission queue, "
        "dual-trigger batching, per-tenant rate limits; docs/serving.md)",
    )
    _add_config_flags(serve, GatewayConfig, _GATEWAY_FLAGS)
    _add_resilience_flags(serve)
    _add_ann_build_flags(serve)
    _add_trace_flag(serve)

    loadtest = _command(
        commands, "loadtest", cmd_loadtest,
        help="drive synthetic load through the gateway; --chaos injects "
        "deterministic faults and audits the accounting",
    )
    loadtest.add_argument(
        "artifacts", nargs="?", default=None,
        help="artifact directory written by `train`",
    )
    loadtest.add_argument(
        "--list-fault-points", action="store_true",
        help="print every named fault-injection point (the registry all "
        "chaos plans and docs draw from) and exit",
    )
    loadtest.add_argument("--k", type=_positive_int, default=10)
    _add_config_flags(loadtest, WorkloadConfig, _WORKLOAD_FLAGS)
    # a smaller default run than the library's WorkloadConfig
    loadtest.set_defaults(n_requests=500)
    loadtest.add_argument(
        "--threads", type=_positive_int, default=8, metavar="N",
        help="closed-loop client threads (default: %(default)s)",
    )
    loadtest.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="load discipline: closed loop (sustainable throughput) or "
        "open loop (wall-clock arrivals; exposes backpressure)",
    )
    _add_config_flags(loadtest, ArrivalSchedule, _ARRIVAL_FLAGS)
    loadtest.add_argument(
        "--workload-seed", type=int, default=0,
        help="workload generation seed (same seed → identical request list)",
    )
    loadtest.add_argument(
        "--ann", action="store_true",
        help="serve through approximate retrieval (enables the ANN-failure "
        "fault under --chaos, which falls back to exact search)",
    )
    loadtest.add_argument(
        "--chaos", action="store_true",
        help="install a seeded fault plan (scorer errors/delays, flusher "
        "crashes, ANN failures with --ann), run closed-loop, then audit "
        "that every admitted request resolved exactly once; implies "
        "--resilience",
    )
    loadtest.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-plan seed (same seed → identical fault schedule)",
    )
    for fault, default, what in (
        ("scorer-errors", 2, "deterministic scorer exceptions to inject"),
        ("scorer-delays", 1, "slow-scorer stalls to inject"),
        ("flusher-crashes", 1, "gateway flusher crashes to inject"),
        ("ann-failures", 1, "ANN search failures to inject with --ann"),
    ):
        loadtest.add_argument(
            f"--chaos-{fault}", type=_non_negative_int, default=default, metavar="N",
            help=f"{what} (default: %(default)s)",
        )
    _add_config_flags(loadtest, GatewayConfig, _GATEWAY_FLAGS)
    loadtest.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="expose /metrics on 127.0.0.1:PORT for the duration of the run "
        "(0 = ephemeral; the bound port is printed)",
    )
    loadtest.add_argument("--out", metavar="PATH", help="write the full report as JSON")
    _add_resilience_flags(loadtest)

    lifecycle = commands.add_parser(
        "lifecycle",
        help="crash-safe streaming catalog lifecycle: journaled ingest, "
        "delta builds, health-gated versioned rollout",
    )
    lc_commands = lifecycle.add_subparsers(dest="lifecycle_command", required=True)

    def lifecycle_command(name: str, func: Callable, help: str) -> argparse.ArgumentParser:
        sub = _command(lc_commands, name, _store_refusals_exit_1(func), help=help)
        sub.add_argument("store", help="version-store root directory")
        return sub

    lc_init = lifecycle_command(
        "init", cmd_lifecycle_init, "bootstrap the store from a trained artifact dir"
    )
    lc_init.add_argument("--artifacts", required=True,
                         help="artifact directory written by `train`")
    _add_ann_build_flags(lc_init, layout=False)

    lc_ingest = lifecycle_command(
        "ingest", cmd_lifecycle_ingest, "journal catalog events (exactly-once)"
    )
    lc_ingest.add_argument("--seed", type=int, default=0)
    source = lc_ingest.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--simulate", type=int, metavar="N",
        help="synthesize N deterministic events against the live catalog",
    )
    source.add_argument(
        "--events", metavar="PATH",
        help="JSONL file of events (seq/kind/user/item/price/category)",
    )

    lc_build = lifecycle_command(
        "build", cmd_lifecycle_build, "fold the journal into a candidate version"
    )
    _add_config_flags(lc_build, LifecycleConfig, _STALENESS_FLAGS)

    lc_promote = lifecycle_command(
        "promote", cmd_lifecycle_promote, "gate a candidate; flip CURRENT on pass"
    )
    _add_config_flags(lc_promote, GateConfig, _GATE_FLAGS)
    lc_promote.add_argument(
        "--candidate", default=None,
        help="candidate version name (default: newest candidate)",
    )

    lc_rollback = lifecycle_command(
        "rollback", cmd_lifecycle_rollback, "return to the live version's parent"
    )
    lc_rollback.add_argument("--reason", default="manual rollback")

    lifecycle_command(
        "status", cmd_lifecycle_status, "print the store + journal state as JSON"
    )

    compare = _command(
        commands, "compare", cmd_compare, help="train several models, print a table"
    )
    compare.add_argument(
        "--models", help="comma-separated registry names (default: the Table II eight)"
    )
    compare.add_argument("--dataset", default="yelp")
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("--epochs", type=int, default=25)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--ks", type=_int_list, default="50,100")
    compare.add_argument("--quiet", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
