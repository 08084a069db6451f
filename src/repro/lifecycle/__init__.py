"""Crash-safe streaming catalog lifecycle.

The pipeline that *produces* serving indexes, built to the same
robustness bar PRs 5-9 set for the path that serves them:

* :mod:`.journal` — write-ahead event journal (checksummed segments,
  torn-tail recovery, bit-identical replay),
* :mod:`.foldin` — least-squares fold-in of new users/items against
  frozen branches (no retrain),
* :mod:`.delta` — delta IVF list appends with staleness accounting and
  threshold-triggered re-clustering,
* :mod:`.store` — versioned artifact store with manifest-last commits
  and an atomic CURRENT pointer,
* :mod:`.gates` — promotion health gates (recall floor, price-band
  probes, exact-parity sampling),
* :mod:`.controller` — the orchestrator wiring it into faults/obs/CLI.

See ``docs/lifecycle.md`` for the journal format, the fold-in math, and
the gate/rollback state machine.
"""

from .controller import (
    LifecycleConfig,
    LifecycleController,
    OUTCOMES,
    simulate_events,
)
from .delta import DeltaConfig, DeltaStats, DeltaMismatch, DeltaUnsupported, delta_build
from .foldin import FoldInConfig, FoldInError, FoldInStats, fold_in
from .gates import GateConfig, GateReport, run_gates
from .journal import (
    Event,
    JournalCorrupted,
    JournalStats,
    JournalWriter,
    journal_digest,
    last_seq,
    replay,
)
from .store import StoreError, VersionStore

__all__ = [
    "LifecycleConfig",
    "LifecycleController",
    "OUTCOMES",
    "simulate_events",
    "DeltaConfig",
    "DeltaStats",
    "DeltaMismatch",
    "DeltaUnsupported",
    "delta_build",
    "FoldInConfig",
    "FoldInError",
    "FoldInStats",
    "fold_in",
    "GateConfig",
    "GateReport",
    "run_gates",
    "Event",
    "JournalCorrupted",
    "JournalStats",
    "JournalWriter",
    "journal_digest",
    "last_seq",
    "replay",
    "StoreError",
    "VersionStore",
]
