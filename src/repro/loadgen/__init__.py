"""Deterministic traffic generation shaped like millions of users.

The serving gateway (:mod:`repro.serving.gateway`) only earns its keep
under realistic concurrent load, and realistic recommendation traffic has
a very particular shape: a zipfian head of hot users who dominate request
volume, a long tail, a steady trickle of cold users the index has never
seen, bursts, and a mix of request parameters.  This package generates
exactly that — deterministically, from a seed — and drives it through a
gateway in either of the two canonical load-testing disciplines:

* **Closed loop** (:func:`run_closed_loop`) — N worker threads, each
  submitting its next request the moment the previous one resolves.
  Measures sustainable throughput: the system is never overdriven, so QPS
  converges to capacity.

* **Open loop** (:func:`run_open_loop`) — requests arrive on a wall-clock
  schedule that does not care whether the system keeps up (the only
  discipline that exposes queueing collapse and coordinated omission).
  Arrival schedules: uniform rate, on/off bursts, or a sinusoidal
  diurnal-style wave.

Everything is plain data in, plain data out: :func:`build_workload` turns
a :class:`WorkloadConfig` into a list of :class:`LoadRequest`,
:func:`arrival_times` turns an :class:`ArrivalSchedule` into timestamps,
and the runners return a :class:`LoadReport` combining client-side
end-to-end percentiles with the service's own
:class:`~repro.serving.stats.ServingStats` view.  Used by ``repro
loadtest`` and ``benchmarks/chaos_smoke.py``; see docs/serving.md.

:func:`run_chaos` layers deterministic fault injection on top of the
closed-loop discipline and audits the end-of-run books — every admitted
request must resolve exactly once as ok / degraded / failed; see
docs/robustness.md.
"""

from .workload import (
    ArrivalSchedule,
    LoadRequest,
    WorkloadConfig,
    arrival_times,
    build_workload,
    zipf_users,
)
from .runner import LoadReport, run_closed_loop, run_open_loop
from .chaos import ChaosReport, run_chaos, verify_accounting

__all__ = [
    "ArrivalSchedule",
    "LoadRequest",
    "WorkloadConfig",
    "arrival_times",
    "build_workload",
    "zipf_users",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "ChaosReport",
    "run_chaos",
    "verify_accounting",
]
