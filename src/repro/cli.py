"""``python -m repro`` — the command-line face of the experiment API.

Subcommands:

* ``list``      — registered models and datasets
* ``train``     — run one experiment spec end to end, write an artifact dir
* ``evaluate``  — re-evaluate a saved artifact dir (``--workers``
  parallelizes the pass; results are bit-identical to serial)
* ``export``    — (re)build the serving index from a saved checkpoint
  (``--format dir`` writes the mmap-able uncompressed layout)
* ``recommend`` — bulk top-K export for every warm user via the parallel
  batch-inference runtime
* ``serve``     — answer recommendation queries from an artifact dir
  (``--metrics-port`` exposes a live Prometheus ``/metrics`` endpoint;
  ``--hold`` keeps it up for scraping)
* ``compare``   — train several models on one dataset, print a table

``train`` / ``evaluate`` / ``recommend`` / ``serve`` accept ``--trace-out``
to record a Chrome-trace span timeline (see ``docs/observability.md``).

Every subcommand goes through :mod:`repro.experiments`; nothing here
touches model factories or training loops directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from .data.registry import available_datasets
from .experiments import PAPER_HPARAMS
from .experiments.artifacts import ANN_KINDS, INDEX_FILENAME, Experiment, build_ann, stage_ann
from .experiments.registry import (
    available_models,
    model_display_name,
    model_info,
    resolve_model_name,
)
from .experiments.runner import run
from .experiments.spec import ExperimentSpec
from .profiling import Profiler
from .serving.export import ExportError


def _parse_value(text: str) -> Any:
    """Best-effort typed parse of a ``--hparam key=value`` value."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_hparams(pairs: Optional[Sequence[str]]) -> Dict[str, Any]:
    hparams: Dict[str, Any] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--hparam expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        hparams[key.strip()] = _parse_value(value.strip())
    return hparams


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse ``type=`` for integers ``>= floor``: anything else exits 2
    with a usage message instead of failing deep inside a command."""

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


def _parse_ks(text: str, flag: str = "--ks") -> tuple:
    try:
        return tuple(int(k) for k in text.split(","))
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated integers, got {text!r}")


def _print_metrics(metrics: Dict[str, float], indent: str = "  ") -> None:
    for name in sorted(metrics):
        print(f"{indent}{name}: {metrics[name]:.4f}")


def _make_tracer(args: argparse.Namespace, process_name: str):
    """A :class:`repro.obs.Tracer` when ``--trace-out`` was given, else None."""
    if getattr(args, "trace_out", None) is None:
        return None
    from .obs.trace import Tracer

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
    if args.spec:
        # A spec file is the complete experiment; silently overriding parts
        # of it from flags would record the wrong experiment in spec.json.
        conflicting = [
            flag
            for flag, value in (
                ("--model", args.model),
                ("--dataset", args.dataset),
                ("--scale", args.scale),
                ("--seed", args.seed),
                ("--data-seed", args.data_seed),
                ("--epochs", args.epochs),
                ("--batch-size", args.batch_size),
                ("--lr", args.lr),
                ("--l2", args.l2),
                ("--lr-milestones", args.lr_milestones),
                ("--eval-every", args.eval_every),
                ("--ks", args.ks),
                ("--split", args.split),
                ("--hparam", args.hparam),
                ("--name", args.name),
                ("--precision", args.precision),
            )
            if value is not None
        ] + (["--no-export"] if args.no_export else [])
        if conflicting:
            raise SystemExit(
                f"--spec is a complete experiment; drop {', '.join(conflicting)} "
                "or edit the spec file instead"
            )
        return ExperimentSpec.load(args.spec)
    if not args.model or not args.dataset:
        raise SystemExit("train needs --model and --dataset (or --spec FILE)")
    train_kwargs: Dict[str, Any] = {"epochs": 40 if args.epochs is None else args.epochs}
    if args.batch_size is not None:
        train_kwargs["batch_size"] = args.batch_size
    if args.lr is not None:
        train_kwargs["learning_rate"] = args.lr
    if args.l2 is not None:
        train_kwargs["l2_weight"] = args.l2
    if args.lr_milestones is not None:
        train_kwargs["lr_milestones"] = _parse_ks(args.lr_milestones, "--lr-milestones")
    if args.eval_every is not None:
        train_kwargs["eval_every"] = args.eval_every
    train_kwargs["verbose"] = not args.quiet
    return ExperimentSpec.create(
        args.model,
        args.dataset,
        hparams=_parse_hparams(args.hparam),
        seed=0 if args.seed is None else args.seed,
        scale=1.0 if args.scale is None else args.scale,
        data_seed=0 if args.data_seed is None else args.data_seed,
        ks=_parse_ks(args.ks or "50,100"),
        split=args.split or "test",
        export=not args.no_export,
        name=args.name,
        precision=args.precision or "float64",
        **train_kwargs,
    )


def cmd_train(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    artifacts_dir = args.out or os.path.join("runs", spec.name)
    tracer = _make_tracer(args, "repro-train")
    experiment = run(
        spec, artifacts_dir=artifacts_dir, verbose=not args.quiet,
        eval_workers=args.eval_workers, tracer=tracer,
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
    import time

    experiment = Experiment.load(args.artifacts)
    ks = _parse_ks(args.ks) if args.ks else None
    profiler = Profiler()
    tracer = _make_tracer(args, "repro-evaluate")
    start = time.perf_counter()
    metrics = experiment.evaluate(
        ks=ks, split=args.split, workers=args.workers, profiler=profiler, tracer=tracer,
    )
    wall = time.perf_counter() - start
    _write_trace(tracer, args)
    label = args.split or experiment.spec.eval.split
    print(f"{experiment.spec.name} metrics ({label}):")
    _print_metrics(metrics)
    users = profiler.counter("evaluated_users")
    if users and wall > 0:
        # Phase shares come from the profiler (summed worker CPU seconds in
        # parallel modes); throughput is quoted over wall time.
        breakdown = profiler.format_phases()
        # "requested": non-factorizable models and restricted sandboxes fall
        # back to serial execution, which this process cannot observe here.
        workers_note = f", {args.workers} workers requested" if args.workers else ""
        print(
            f"evaluated {users:.0f} users in {wall:.2f}s "
            f"({users / wall:,.0f} users/s{workers_note}; {breakdown})"
        )
    if experiment.metrics and ks is None and args.split is None:
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
    if args.out:
        out = args.out
    elif args.format == "dir":
        out = os.path.join(args.artifacts, "index")
    else:
        out = os.path.join(args.artifacts, INDEX_FILENAME)
    try:
        index = experiment.export(force=True)
    except ExportError as error:
        print(f"export failed: {error}", file=sys.stderr)
        return 1
    path = index.save(out, format=args.format)
    print(
        f"exported {index.model_name} index ({args.format}): {index.n_users} users x "
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
            f", ceiling {args.memory_ceiling / 1e6:.0f} MB (tiered dir archive)"
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
    import time

    from .runtime import recommend_all

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
        index,
        k=args.k,
        users=users,
        workers=args.workers,
        ann=ann,
        tracer=tracer,
    )
    wall = time.perf_counter() - start
    _write_trace(tracer, args)
    out = args.out or os.path.join(args.artifacts, "recommendations.npz")
    path = recommendations.save(out)
    n = len(recommendations.users)
    rate = n / wall if wall > 0 else 0.0
    workers_note = f", {args.workers} workers requested" if args.workers else ""
    ann_note = ""
    if ann is not None:
        ann_note = f", ann nprobe {ann.nprobe}/{ann.n_lists} ({ann.kind})"
    print(
        f"exported top-{recommendations.k} for {n} users in {wall:.2f}s "
        f"({rate:,.0f} users/s{workers_note}{ann_note}) -> {path}"
    )
    return 0


def _resilience_from_args(args: argparse.Namespace):
    """A ResilienceConfig when --resilience asked for one, else None."""
    if not getattr(args, "resilience", False):
        return None
    from .serving.resilience import ResilienceConfig

    return ResilienceConfig(retries=args.retries, degrade=not args.no_degrade)


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Retry/breaker/degradation knobs shared by serve and loadtest."""
    parser.add_argument(
        "--resilience", action="store_true",
        help="enable the resilience policy: retry transient backend errors "
        "with exponential backoff, trip a circuit breaker on sustained "
        "failure, degrade to cached/profile answers (docs/robustness.md)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry a failed batch up to N times before degrading "
        "(with --resilience; default: %(default)s)",
    )
    parser.add_argument(
        "--no-degrade", action="store_true",
        help="fail with BackendError instead of serving degraded answers "
        "once retries are exhausted (with --resilience)",
    )


def _add_gateway_flags(parser: argparse.ArgumentParser) -> None:
    """Admission/timer knobs (the GatewayConfig fields) shared by serve and loadtest."""
    parser.add_argument(
        "--queue-depth", type=int, default=1024, metavar="N",
        help="gateway admission-queue bound; requests beyond it are shed "
        "with Overloaded (default: %(default)s)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0, metavar="MS",
        help="gateway latency trigger: flush a partial batch once its oldest "
        "request has waited this long (default: %(default)s)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-tenant token-bucket rate limit in requests/second "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline: a request still queued after this long "
        "fails with DeadlineExceeded instead of running late "
        "(default: none)",
    )


def _gateway_from_args(service, args: argparse.Namespace, fault_plan=None):
    """A ServingGateway over ``service`` configured by ``_add_gateway_flags``."""
    from .serving.gateway import GatewayConfig, ServingGateway

    return ServingGateway(
        service,
        GatewayConfig(
            max_queue_depth=args.queue_depth,
            max_wait_ms=args.max_wait_ms,
            rate_limit=args.rate_limit,
            deadline_ms=args.deadline_ms,
        ),
        fault_plan=fault_plan,
    )


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
    import time

    if args.hold and args.metrics_port is None:
        raise SystemExit("--hold keeps the metrics endpoint up; it needs --metrics-port")
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
            resilience=_resilience_from_args(args),
        )
    except ExportError as error:
        print(f"cannot serve this artifact: {error}", file=sys.stderr)
        return 1
    if service.resilience is not None:
        print(
            f"resilience: {service.resilience.config.retries} retries, "
            "circuit breaker armed, degradation ladder on"
        )

    gateway = None
    if args.gateway:
        gateway = _gateway_from_args(service, args)
        limit_note = (
            f", {args.rate_limit:g} req/s per tenant" if args.rate_limit else ""
        )
        print(
            f"gateway: queue depth {args.queue_depth}, "
            f"max wait {args.max_wait_ms:g} ms{limit_note}"
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
    import json as _json

    if args.list_fault_points:
        from .faults import describe_fault_points

        for point, description in describe_fault_points().items():
            print(f"{point:28s} {description}")
        return 0
    if args.artifacts is None:
        print("artifacts directory is required (or use --list-fault-points)",
              file=sys.stderr)
        return 2

    experiment = Experiment.load(args.artifacts)
    from .loadgen import (
        ArrivalSchedule,
        WorkloadConfig,
        build_workload,
        run_chaos,
        run_closed_loop,
        run_open_loop,
    )

    plan = None
    if args.chaos:
        from .faults import chaos_plan

        plan = chaos_plan(
            seed=args.chaos_seed,
            worker_crashes=0,  # the CLI service runs an in-process scorer
            scorer_errors=args.chaos_scorer_errors,
            ann_failures=args.chaos_ann_failures if args.ann else 0,
            flusher_crashes=args.chaos_flusher_crashes,
            scorer_delays=args.chaos_scorer_delays,
        )
        if not args.resilience:
            # Chaos without resilience just proves requests fail; the
            # interesting run is faults + the ladder, so default it on.
            args.resilience = True

    try:
        ann = None
        if args.ann:
            ann = experiment.ann_index()
        service = experiment.service(
            default_k=args.k,
            ann=ann,
            resilience=_resilience_from_args(args),
            fault_plan=plan,
        )
    except ExportError as error:
        print(f"cannot serve this artifact: {error}", file=sys.stderr)
        return 1

    gateway = _gateway_from_args(service, args, fault_plan=plan)
    server = _start_metrics_server(service, gateway, args)

    workload = build_workload(
        WorkloadConfig(
            n_requests=args.requests,
            n_users=service.index.n_users,
            cold_fraction=args.cold_fraction,
        ),
        seed=args.workload_seed,
    )
    exit_code = 0
    try:
        if args.chaos:
            chaos_report = run_chaos(
                gateway, workload, plan=plan, threads=args.threads
            )
            payload = chaos_report.to_dict()
            if chaos_report.ok:
                print("chaos audit: books balance "
                      "(admitted == ok + degraded + failed)")
            else:
                for violation in chaos_report.violations:
                    print(f"chaos audit FAILED: {violation}", file=sys.stderr)
                exit_code = 1
        elif args.mode == "closed":
            payload = run_closed_loop(
                gateway, workload, threads=args.threads
            ).to_dict()
        else:
            payload = run_open_loop(
                gateway, workload, schedule=ArrivalSchedule(rate=args.rate_qps)
            ).to_dict()
        report = payload["load"] if args.chaos else payload
        print(
            f"{report['n_requests']} requests: {report['n_ok']} ok, "
            f"{report['n_degraded']} degraded, {report['failed_total']} failed, "
            f"{report['shed_total']} shed, {report['n_timeout']} timeout | "
            f"{report['qps']:.0f} QPS, p99 {report['p99_ms']:.3f} ms"
        )
        if args.out:
            with open(args.out, "w") as sink:
                _json.dump(payload, sink, indent=2, sort_keys=True)
            print(f"report written to {args.out}")
    finally:
        if server is not None:
            server.stop()
        gateway.close()
    return exit_code


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Drive the streaming catalog lifecycle against a version store.

    ``init`` bootstraps the store from a trained artifact dir; ``ingest``
    journals events (``--simulate`` synthesizes a deterministic stream,
    ``--events`` reads JSONL); ``build`` folds the journal into a
    candidate version; ``promote`` gates and flips; ``rollback`` returns
    to the live version's parent; ``status`` prints the store state.
    Exit code 1 when a promotion is rejected by the gates.
    """
    import json as _json

    from .lifecycle import (
        Event,
        GateConfig,
        LifecycleConfig,
        LifecycleController,
        simulate_events,
    )

    gates = GateConfig(
        recall_k=args.recall_k,
        recall_floor=args.recall_floor,
        nprobe=args.gate_nprobe,
        seed=args.seed,
    )
    controller = LifecycleController(
        args.store,
        config=LifecycleConfig(
            gates=gates, staleness_threshold=args.staleness_threshold
        ),
    )
    if controller.recovery["swept"] or controller.recovery["restamped"]:
        print(f"recovery: {controller.recovery}")

    if args.lifecycle_command == "init":
        experiment = Experiment.load(args.artifacts)
        ann = experiment.ann_index(
            n_lists=args.ann_lists, nprobe=args.ann_nprobe
        )
        name = controller.bootstrap(experiment.index, ann)
        print(f"bootstrapped {name} (live)")
        return 0

    if args.lifecycle_command == "ingest":
        if args.simulate is not None:
            live = controller.store.current()
            if live is None:
                print("store has no live version; run `lifecycle init` first",
                      file=sys.stderr)
                return 1
            manifest = controller.store.read_manifest(live)
            from .lifecycle.journal import last_seq as _last_seq

            events = simulate_events(
                n_users=int(manifest["n_users"]),
                n_items=int(manifest["n_items"]),
                count=args.simulate,
                seed=args.seed,
                start_seq=_last_seq(controller.store.journal_dir) + 1,
            )
        else:
            with open(args.events, "r", encoding="utf-8") as fh:
                events = [
                    Event(**_json.loads(line))
                    for line in fh
                    if line.strip()
                ]
        stats = controller.ingest(events)
        print(
            f"ingested {stats['appended']} events "
            f"({stats['skipped']} duplicates skipped), "
            f"journal at seq {stats['last_seq']}"
        )
        return 0

    if args.lifecycle_command == "build":
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

    if args.lifecycle_command == "promote":
        name, report = controller.promote(candidate=args.candidate)
        for gate, result in report.gates.items():
            print(f"gate {gate}: {result}")
        if name is None:
            for failure in report.failures:
                print(f"promotion REJECTED: {failure}", file=sys.stderr)
            return 1
        print(f"promoted {name} (live)")
        return 0

    if args.lifecycle_command == "rollback":
        name = controller.rollback(reason=args.reason)
        print(f"rolled back; {name} is live")
        return 0

    # status
    payload = controller.status()
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = args.models.split(",") if args.models else list(PAPER_HPARAMS)
    ks = _parse_ks(args.ks)
    metric_names = [f"{metric}@{k}" for k in ks for metric in ("Recall", "NDCG")]

    rows: List[List[str]] = []
    for name in names:
        spec = ExperimentSpec.create(
            name,
            args.dataset,
            hparams=dict(PAPER_HPARAMS.get(resolve_model_name(name), {})),
            seed=args.seed,
            scale=args.scale,
            epochs=args.epochs,
            lr_milestones=(args.epochs // 2, (3 * args.epochs) // 4),
            ks=ks,
            export=False,
        )
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
def _add_ann_build_flags(parser: argparse.ArgumentParser) -> None:
    """ANN construction knobs shared by export/serve/recommend/evaluate."""
    parser.add_argument(
        "--ann-lists", type=_positive_int, default=None,
        help="IVF list count (default: ~sqrt(n_items)/2)",
    )
    parser.add_argument(
        "--ann-nprobe", type=_positive_int, default=None,
        help="default lists probed per query (default: 1/8 of the lists)",
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment CLI for the PUP reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="registered models and datasets").set_defaults(
        func=cmd_list
    )

    train = commands.add_parser("train", help="run one experiment, write artifacts")
    train.add_argument("--model", help="registry name (see `list`)")
    train.add_argument("--dataset", help="dataset name (see `list`)")
    train.add_argument("--spec", help="load a full ExperimentSpec JSON instead of flags")
    train.add_argument("--scale", type=float, help="dataset scale (default 1.0)")
    train.add_argument("--seed", type=int, help="model init + training seed (default 0)")
    train.add_argument("--data-seed", type=int)
    train.add_argument("--epochs", type=int, help="default 40")
    train.add_argument("--batch-size", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--l2", type=float)
    train.add_argument("--lr-milestones", help="comma-separated epoch numbers")
    train.add_argument("--eval-every", type=int)
    train.add_argument("--ks", help="eval cutoffs, comma-separated (default 50,100)")
    train.add_argument("--split", choices=("train", "validation", "test"))
    train.add_argument(
        "--hparam", action="append", metavar="KEY=VALUE", help="model hyper-parameter"
    )
    train.add_argument("--name", help="experiment name (default: <model>_<dataset>)")
    train.add_argument("--out", help="artifact directory (default: runs/<name>)")
    train.add_argument("--no-export", action="store_true", help="skip the serving index")
    train.add_argument(
        "--precision",
        choices=("float32", "float64"),
        help="compute precision for build+train+export, recorded in spec.json "
        "(default float64; float32 is ~2x training throughput, see "
        "docs/performance.md)",
    )
    train.add_argument(
        "--eval-workers", type=int, default=0,
        help="parallel workers for the final evaluation pass (results identical)",
    )
    train.add_argument("--quiet", action="store_true")
    _add_trace_flag(train)
    train.set_defaults(func=cmd_train)

    evaluate = commands.add_parser("evaluate", help="re-evaluate a saved artifact dir")
    evaluate.add_argument("artifacts", help="artifact directory written by `train`")
    evaluate.add_argument("--ks", help="override eval cutoffs")
    evaluate.add_argument("--split", choices=("train", "validation", "test"))
    evaluate.add_argument(
        "--workers", type=int, default=0,
        help="parallel evaluation workers (0 = serial; results are identical)",
    )
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
    evaluate.set_defaults(func=cmd_evaluate)

    export = commands.add_parser("export", help="rebuild the serving index")
    export.add_argument("artifacts", help="artifact directory written by `train`")
    export.add_argument(
        "--out", help="index path (default: <artifacts>/index.npz, or <artifacts>/index for --format dir)"
    )
    export.add_argument(
        "--format", choices=("npz", "dir"), default="npz",
        help="container: compressed .npz (default) or an uncompressed per-array "
        "directory that loads with mmap (what parallel workers attach to)",
    )
    export.add_argument(
        "--ann", action="store_true",
        help="also build and save the approximate-retrieval index "
        "(IVF lists) next to the embedding index",
    )
    _add_ann_build_flags(export)
    export.set_defaults(func=cmd_export)

    recommend = commands.add_parser(
        "recommend", help="bulk top-K export for every warm user"
    )
    recommend.add_argument("artifacts", help="artifact directory written by `train`")
    recommend.add_argument("--k", type=int, default=10)
    recommend.add_argument("--users", help="comma-separated user ids (default: all warm users)")
    recommend.add_argument(
        "--out", help="output archive (default: <artifacts>/recommendations.npz)"
    )
    recommend.add_argument(
        "--workers", type=int, default=0,
        help="parallel workers (0 = serial; results are identical)",
    )
    recommend.add_argument(
        "--ann", action="store_true",
        help="candidate-generation mode: rank through the saved/built ANN "
        "index instead of exact full-catalog scoring",
    )
    _add_ann_build_flags(recommend)
    _add_trace_flag(recommend)
    recommend.set_defaults(func=cmd_recommend)

    serve = commands.add_parser("serve", help="answer queries from an artifact dir")
    serve.add_argument("artifacts", help="artifact directory written by `train`")
    serve.add_argument("--users", help="comma-separated user ids")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument(
        "--dry-run",
        action="store_true",
        help="serve a sample of warm users plus one cold id, then exit; "
        "overrides --users (also the default when --users is omitted)",
    )
    serve.add_argument(
        "--ann", action="store_true",
        help="serve through approximate retrieval (saved ann.npz if present, "
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
    _add_gateway_flags(serve)
    _add_resilience_flags(serve)
    _add_ann_build_flags(serve)
    _add_trace_flag(serve)
    serve.set_defaults(func=cmd_serve)

    loadtest = commands.add_parser(
        "loadtest",
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
    loadtest.add_argument("--k", type=int, default=10)
    loadtest.add_argument(
        "--requests", type=int, default=500, metavar="N",
        help="workload size (default: %(default)s)",
    )
    loadtest.add_argument(
        "--threads", type=int, default=8, metavar="N",
        help="closed-loop client threads (default: %(default)s)",
    )
    loadtest.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="load discipline: closed loop (sustainable throughput) or "
        "open loop (wall-clock arrivals; exposes backpressure)",
    )
    loadtest.add_argument(
        "--rate-qps", type=float, default=1000.0, metavar="QPS",
        help="open-loop arrival rate (default: %(default)s)",
    )
    loadtest.add_argument(
        "--cold-fraction", type=float, default=0.05, metavar="F",
        help="fraction of requests from never-seen users (default: %(default)s)",
    )
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
    loadtest.add_argument(
        "--chaos-scorer-errors", type=int, default=2, metavar="N",
        help="deterministic scorer exceptions to inject (default: %(default)s)",
    )
    loadtest.add_argument(
        "--chaos-scorer-delays", type=int, default=1, metavar="N",
        help="slow-scorer stalls to inject (default: %(default)s)",
    )
    loadtest.add_argument(
        "--chaos-flusher-crashes", type=int, default=1, metavar="N",
        help="gateway flusher crashes to inject (default: %(default)s)",
    )
    loadtest.add_argument(
        "--chaos-ann-failures", type=int, default=1, metavar="N",
        help="ANN search failures to inject with --ann (default: %(default)s)",
    )
    _add_gateway_flags(loadtest)
    loadtest.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="expose /metrics on 127.0.0.1:PORT for the duration of the run "
        "(0 = ephemeral; the bound port is printed)",
    )
    loadtest.add_argument(
        "--out", metavar="PATH", help="write the full report as JSON"
    )
    _add_resilience_flags(loadtest)
    loadtest.set_defaults(func=cmd_loadtest)

    lifecycle = commands.add_parser(
        "lifecycle",
        help="crash-safe streaming catalog lifecycle: journaled ingest, "
        "delta builds, health-gated versioned rollout",
    )
    lc_commands = lifecycle.add_subparsers(dest="lifecycle_command", required=True)

    def _lc_parser(name: str, help: str) -> argparse.ArgumentParser:
        sub = lc_commands.add_parser(name, help=help)
        sub.add_argument("store", help="version-store root directory")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--recall-floor", type=float, default=0.95,
            help="promotion gate: minimum recall@k vs exact (default: %(default)s)",
        )
        sub.add_argument(
            "--recall-k", type=int, default=50,
            help="promotion gate recall depth (default: %(default)s)",
        )
        sub.add_argument(
            "--gate-nprobe", type=_positive_int, default=None,
            help="operating point for the recall gate (default: the "
            "candidate's own nprobe)",
        )
        sub.add_argument(
            "--staleness-threshold", type=float, default=0.25,
            help="append-placed catalog fraction that forces a full "
            "re-cluster (default: %(default)s)",
        )
        sub.set_defaults(func=cmd_lifecycle)
        return sub

    lc_init = _lc_parser("init", "bootstrap the store from a trained artifact dir")
    lc_init.add_argument("--artifacts", required=True,
                         help="artifact directory written by `train`")
    lc_init.add_argument("--ann-lists", type=_positive_int, default=None)
    lc_init.add_argument("--ann-nprobe", type=_positive_int, default=None)

    lc_ingest = _lc_parser("ingest", "journal catalog events (exactly-once)")
    source = lc_ingest.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--simulate", type=int, metavar="N",
        help="synthesize N deterministic events against the live catalog",
    )
    source.add_argument(
        "--events", metavar="PATH",
        help="JSONL file of events (seq/kind/user/item/price/category)",
    )

    _lc_parser("build", "fold the journal into a candidate version")

    lc_promote = _lc_parser("promote", "gate a candidate; flip CURRENT on pass")
    lc_promote.add_argument(
        "--candidate", default=None,
        help="candidate version name (default: newest candidate)",
    )

    lc_rollback = _lc_parser("rollback", "return to the live version's parent")
    lc_rollback.add_argument("--reason", default="manual rollback")

    _lc_parser("status", "print the store + journal state as JSON")

    compare = commands.add_parser("compare", help="train several models, print a table")
    compare.add_argument(
        "--models", help="comma-separated registry names (default: the Table II eight)"
    )
    compare.add_argument("--dataset", default="yelp")
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("--epochs", type=int, default=25)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--ks", default="50,100")
    compare.add_argument("--quiet", action="store_true")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
