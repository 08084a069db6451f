"""Chaos runs: closed-loop load under a deterministic fault plan, then audit.

A chaos run is an ordinary :func:`~repro.loadgen.runner.run_closed_loop`
pass against a gateway whose stack has a :class:`~repro.faults.FaultPlan`
installed — workers crash, scorers throw, the ANN index goes dark, the
flusher dies mid-batch — followed by an *accounting audit*: because every
fault is injected deterministically, the run can assert exactly where
every request went.  The invariant a fault-tolerant gateway must hold:

    admitted == ok + degraded + failed        (server view, exactly once)

and on the client side every admitted request resolves to exactly one of
ok / degraded / timeout / typed failure — no hangs, no silent drops.
:func:`verify_accounting` checks both views against the live metric
registry (the same counters ``/metrics`` exports), so a passing chaos run
certifies the observability story as well as the resilience one.

The audit assumes a *fresh* gateway/service pair (counters start at
zero); reusing a gateway across runs double-counts and fails the audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultPlan
from ..serving.gateway import SHED_REASONS, ServingGateway
from ..serving.stats import OUTCOMES
from .runner import LoadReport, run_closed_loop
from .workload import LoadRequest


@dataclass
class ChaosReport:
    """One chaos run: the load report, what the plan fired, and the audit."""

    load: LoadReport
    #: per-point ``{"occurrences": n, "fires": m}`` from FaultPlan.snapshot()
    fault_fires: Dict[str, Dict[str, int]] = field(default_factory=dict)
    accounting: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "load": self.load.to_dict(),
            "fault_fires": dict(self.fault_fires),
            "accounting": dict(self.accounting),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def verify_accounting(
    gateway: ServingGateway,
    report: Optional[LoadReport] = None,
) -> Tuple[Dict[str, float], List[str]]:
    """Audit the gateway's books against the serving outcome counters.

    Returns ``(accounting, violations)``; an empty violations list means
    every admitted request was resolved exactly once and the client-side
    tallies (when a report is supplied) agree with the server's counters.
    """
    stats = gateway.service.stats
    snap = gateway.snapshot()
    admitted = snap["admitted"]
    accounting: Dict[str, float] = {"admitted": admitted}
    for outcome in OUTCOMES:
        accounting[outcome] = float(stats.outcome_count(outcome))
    for reason in SHED_REASONS:
        accounting[f"shed_{reason}"] = snap[f"shed_{reason}"]
    accounting["retries"] = float(stats.retries)
    accounting["deadline_exceeded"] = float(stats.deadline_exceeded)
    accounting["fallbacks"] = float(stats.fallback_count())
    accounting["flusher_restarts"] = snap["flusher_restarts"]

    violations: List[str] = []
    resolved = sum(accounting[outcome] for outcome in OUTCOMES)
    if resolved != admitted:
        violations.append(
            f"server books do not balance: admitted={admitted:.0f} but "
            f"ok+degraded+failed={resolved:.0f}"
        )
    if accounting["degraded"] > accounting["fallbacks"]:
        violations.append(
            f"{accounting['degraded']:.0f} degraded outcomes but only "
            f"{accounting['fallbacks']:.0f} fallback stages recorded"
        )
    if report is not None:
        client_resolved = (
            report.n_ok + report.n_degraded + report.failed_total + report.n_timeout
        )
        if client_resolved != admitted:
            violations.append(
                "client view does not balance: "
                f"ok={report.n_ok} degraded={report.n_degraded} "
                f"failed={report.failed_total} timeout={report.n_timeout} "
                f"!= admitted={admitted:.0f}"
            )
        shed_counters = sum(accounting[f"shed_{reason}"] for reason in SHED_REASONS)
        if report.shed_total != shed_counters:
            violations.append(
                f"runner counted {report.shed_total} sheds but "
                f"gateway_shed_total says {shed_counters:.0f}"
            )
        if report.n_requests != admitted + report.shed_total:
            violations.append(
                f"{report.n_requests} requests offered but "
                f"admitted+shed={admitted + report.shed_total:.0f}"
            )
    return accounting, violations


def run_chaos(
    gateway: ServingGateway,
    requests: Sequence[LoadRequest],
    plan: Optional[FaultPlan] = None,
    threads: int = 8,
    result_timeout_s: float = 30.0,
) -> ChaosReport:
    """Drive a closed-loop run under fault injection and audit the books.

    ``plan`` defaults to the plan already installed in the gateway; pass
    it explicitly only to snapshot a plan shared more widely.  The audit
    runs after a full drain, so in-flight work cannot smear the counters.
    """
    plan = plan if plan is not None else gateway.fault_plan
    report = run_closed_loop(
        gateway, requests, threads=threads, result_timeout_s=result_timeout_s
    )
    gateway.drain()
    accounting, violations = verify_accounting(gateway, report)
    fires = plan.snapshot() if plan is not None else {}
    return ChaosReport(
        load=report,
        fault_fires=fires,
        accounting=accounting,
        violations=violations,
    )
