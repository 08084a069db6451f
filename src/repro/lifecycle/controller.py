"""Lifecycle controller: journal → fold-in → delta build → gated rollout.

One object owns the full index-production pipeline over a
:class:`~repro.lifecycle.store.VersionStore`:

* :meth:`ingest` appends catalog events to the write-ahead journal —
  exactly-once (events at or below the journal's last sequence number are
  skipped, so re-driving the same stream after a crash cannot duplicate),
* :meth:`build` replays everything past the live version's watermark,
  folds it into the live index (:mod:`.foldin`), extends the live ANN
  layout (:mod:`.delta`), and publishes a *candidate* version,
* :meth:`promote` runs the health gates (:mod:`.gates`) and — only on a
  clean pass — flips the store's CURRENT pointer and hot-swaps a running
  service via its existing ``swap_index()``,
* :meth:`rollback` flips CURRENT back to the live version's parent.

Crash safety is inherited, not re-implemented: the journal tolerates torn
tails, candidate dirs commit manifest-last, and the CURRENT flip is
atomic — so the controller's own recovery step is just
``VersionStore.recover()`` at construction.  The three named fault points
(``lifecycle.ingest_crash``, ``lifecycle.build_crash``,
``lifecycle.promote_crash``) are consulted at exactly the moments a real
crash is most damaging: mid-ingest, after a candidate's archives but
before its manifest, and after gates pass but before the pointer flip.

Observability: ``lifecycle_versions_total{outcome}`` counts terminal
outcomes (built/promoted/rejected/rolled_back), ``lifecycle_journal_lag``
gauges how many journaled events the live version has not absorbed, and
the expensive stages run under ``lifecycle.fold_in`` /
``lifecycle.delta_build`` / ``lifecycle.promote`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import (
    LIFECYCLE_BUILD_CRASH,
    LIFECYCLE_INGEST_CRASH,
    LIFECYCLE_PROMOTE_CRASH,
    FaultPlan,
)
from ..obs.trace import maybe_span
from ..serving.ann.ivf import IVFIndex, build_ivf
from ..serving.index import EmbeddingIndex
from .delta import DeltaConfig, DeltaStats, DeltaUnsupported, delta_build
from .foldin import FoldInConfig, fold_in
from .gates import GateConfig, GateReport, run_gates
from .journal import Event, JournalWriter, last_seq, replay
from .store import StoreError, VersionStore

#: terminal outcomes the version counter is pre-seeded with (so a scrape
#: before the first build still shows every series at 0)
OUTCOMES = ("built", "promoted", "rejected", "rolled_back")


@dataclass(frozen=True)
class LifecycleConfig:
    foldin: FoldInConfig = field(default_factory=FoldInConfig)
    gates: GateConfig = field(default_factory=GateConfig)
    staleness_threshold: float = 0.25
    segment_records: int = 4096
    #: cap on re-priced/new item ids recorded per manifest for gate probes
    probe_items_cap: int = 64


def _pq_settings(ann: IVFIndex) -> dict:
    """:func:`build_ivf` arguments that rebuild ``ann``'s residual-PQ
    companion with the same subspace width, codebook size and rotation.

    Subspaces split each branch into near-equal widths, so the widest one
    is a ``pq_subspace_dim`` that gives every branch its subspace count
    back."""
    if ann.pq is None:
        return {}
    return {
        "pq": True,
        "pq_subspace_dim": max(hi - lo for branch in ann.pq for lo, hi in branch.splits),
        "pq_centroids": max(cb.shape[0] for branch in ann.pq for cb in branch.codebooks),
        "pq_rotation": ann.pq[0].rotation is not None,
    }


class LifecycleController:
    """Drives one version store's journal → build → promote loop."""

    def __init__(
        self,
        root: str,
        config: Optional[LifecycleConfig] = None,
        metrics=None,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config or LifecycleConfig()
        self.store = VersionStore(root)
        self.recovery = self.store.recover()  # startup = crash recovery
        self.tracer = tracer
        self.fault_plan = fault_plan
        self._versions_total = None
        self._journal_lag = None
        if metrics is not None:
            self._versions_total = metrics.counter(
                "lifecycle_versions_total",
                "lifecycle version outcomes",
                labels=("outcome",),
            )
            for outcome in OUTCOMES:
                self._versions_total.labels(outcome=outcome)
            self._journal_lag = metrics.gauge(
                "lifecycle_journal_lag",
                "journaled events not yet absorbed by the live version",
            )
            self._refresh_lag()

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _count(self, outcome: str) -> None:
        if self._versions_total is not None:
            self._versions_total.labels(outcome=outcome).inc()

    def journal_lag(self) -> int:
        """Events in the journal beyond the live version's watermark."""
        tail = last_seq(self.store.journal_dir)
        live = self.store.current()
        if live is None:
            return tail + 1
        watermark = int(self.store.read_manifest(live).get("journal_seq", -1))
        return max(0, tail - watermark)

    def _refresh_lag(self) -> None:
        if self._journal_lag is not None:
            self._journal_lag.set(float(self.journal_lag()))

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self, index: EmbeddingIndex, ann: Optional[IVFIndex] = None) -> str:
        """Publish and promote the first version from a trained index.

        The baseline is promoted without gates — it *defines* the quality
        reference every later candidate is gated against.
        """
        if self.store.current() is not None:
            raise StoreError("store already has a live version; bootstrap is once")
        if ann is None:
            ann = build_ivf(index)
        name = self.store.write_candidate(
            index,
            ann,
            {
                "parent": None,
                "journal_seq": last_seq(self.store.journal_dir),
                "appended_since_recluster": 0,
                "reclustered": True,
                "probe_items": [],
            },
        )
        self.store.set_current(name)
        self._count("promoted")
        self._refresh_lag()
        return name

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[Event]) -> Dict[str, int]:
        """Append events to the journal, exactly once.

        Events whose ``seq`` is at or below the journal's last durable
        sequence are skipped — re-driving the same deterministic stream
        after a crash resumes where the journal actually got to, which is
        what makes crashed and uncrashed runs converge byte-for-byte.
        The ingest fault point is consulted once per appended event.
        """
        appended = skipped = 0
        with JournalWriter(
            self.store.journal_dir, segment_records=self.config.segment_records
        ) as writer:
            start = writer.next_seq
            for event in events:
                if event.seq < start:
                    skipped += 1
                    continue
                if self.fault_plan is not None:
                    self.fault_plan.maybe_fail(LIFECYCLE_INGEST_CRASH)
                writer.append(event)
                appended += 1
        self._refresh_lag()
        return {"appended": appended, "skipped": skipped, "last_seq": start + appended - 1}

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> Optional[str]:
        """Fold journaled events into the live version; publish a candidate.

        Returns the candidate's name, or ``None`` when the journal holds
        nothing past the live watermark.  The build fault point fires
        between the candidate's archives and its manifest — the window
        where a crash leaves a torn dir for recovery to sweep.
        """
        live = self.store.current()
        if live is None:
            raise StoreError("no live version; bootstrap the store first")
        manifest = self.store.read_manifest(live)
        watermark = int(manifest.get("journal_seq", -1))
        events = replay(self.store.journal_dir, after_seq=watermark)
        if not events:
            return None
        index, ann = self.store.load_version(live)

        with maybe_span(
            self.tracer, "lifecycle.fold_in", cat="lifecycle",
            attrs={"events": len(events), "parent": live},
        ):
            new_index, fold_stats = fold_in(index, events, self.config.foldin)

        delta_cfg = DeltaConfig(
            staleness_threshold=self.config.staleness_threshold,
            appended_since_recluster=int(manifest.get("appended_since_recluster", 0)),
        )
        with maybe_span(
            self.tracer, "lifecycle.delta_build", cat="lifecycle",
            attrs={"new_items": fold_stats.new_items},
        ):
            try:
                new_ann, delta_stats = delta_build(ann, new_index, delta_cfg)
            except DeltaUnsupported:
                # Typed refusal (e.g. a PQ companion): fall back to a full
                # rebuild with the live index's operating point and
                # companion rather than degrade the layout silently.
                new_ann = build_ivf(
                    new_index, nprobe=ann.nprobe, seed=ann.seed,
                    rerank_factor=ann.rerank_factor, **_pq_settings(ann),
                )
                delta_stats = DeltaStats(
                    n_new_items=fold_stats.new_items,
                    appended_since_recluster=0,
                    reclustered=True,
                )

        probe_items = self._probe_items(events, index.n_items)
        crash_hook = None
        if self.fault_plan is not None:
            crash_hook = lambda: self.fault_plan.maybe_fail(LIFECYCLE_BUILD_CRASH)
        name = self.store.write_candidate(
            new_index,
            new_ann,
            {
                "parent": live,
                "journal_seq": fold_stats.last_seq,
                "appended_since_recluster": delta_stats.appended_since_recluster,
                "reclustered": delta_stats.reclustered,
                "staleness": delta_stats.staleness,
                "fold": {
                    "new_users": fold_stats.new_users,
                    "new_items": fold_stats.new_items,
                    "interactions": fold_stats.interactions,
                    "reprices": fold_stats.reprices,
                    "refreshed_users": fold_stats.refreshed_users,
                },
                "probe_items": probe_items,
            },
            crash_hook=crash_hook,
        )
        self._count("built")
        return name

    def _probe_items(self, events: Sequence[Event], n_items_before: int) -> List[int]:
        """Item ids the gates should probe: re-priced first, then new."""
        repriced = sorted({e.item for e in events if e.kind == "reprice"})
        added = sorted({e.item for e in events if e.kind == "add_item"})
        return (repriced + added)[: self.config.probe_items_cap]

    # ------------------------------------------------------------------
    # Promote / rollback
    # ------------------------------------------------------------------
    def promote(
        self, candidate: Optional[str] = None, service=None
    ) -> Tuple[Optional[str], GateReport]:
        """Gate a candidate; flip CURRENT (and hot-swap) only on a pass.

        ``candidate`` defaults to the newest committed non-live version.
        Returns ``(promoted_name_or_None, gate_report)``.  A gate failure
        stamps the candidate rejected and leaves the live version — and a
        running service — untouched.  The promote fault point fires after
        the gates pass and *before* the pointer flip: a crash there
        leaves the candidate committed and re-promotable, never a
        half-flipped pointer.
        """
        if candidate is None:
            candidate = self._newest_candidate()
        if candidate is None:
            raise StoreError("no candidate version to promote")
        manifest = self.store.read_manifest(candidate)
        index, ann = self.store.load_version(candidate)
        with maybe_span(
            self.tracer, "lifecycle.promote", cat="lifecycle",
            attrs={"candidate": candidate},
        ):
            report = run_gates(
                index, ann, self.config.gates,
                probe_items=manifest.get("probe_items") or None,
            )
            if not report.passed:
                self.store.reject(candidate, "; ".join(report.failures))
                self._count("rejected")
                return None, report
            if self.fault_plan is not None:
                self.fault_plan.maybe_fail(LIFECYCLE_PROMOTE_CRASH)
            self.store.set_current(candidate)
        if service is not None:
            service.swap_index(index, ann=ann)
        self._count("promoted")
        self._refresh_lag()
        return candidate, report

    def _newest_candidate(self) -> Optional[str]:
        for name in reversed(self.store.list_versions()):
            if self.store.read_manifest(name).get("status") == "candidate":
                return name
        return None

    def rollback(self, reason: str = "manual rollback", service=None) -> str:
        """Flip CURRENT back to the live version's parent (and hot-swap)."""
        name = self.store.rollback(reason)
        if service is not None:
            index, ann = self.store.load_version(name)
            service.swap_index(index, ann=ann)
        self._count("rolled_back")
        self._refresh_lag()
        return name

    # ------------------------------------------------------------------
    def status(self) -> Dict:
        """Store summary + journal watermarks (the CLI status payload)."""
        payload = self.store.status()
        payload["journal"] = {
            "last_seq": last_seq(self.store.journal_dir),
            "lag": self.journal_lag(),
        }
        payload["recovery"] = self.recovery
        self._refresh_lag()
        return payload


# ---------------------------------------------------------------------------
# Deterministic event synthesis (CLI --simulate, drills, benchmarks)
# ---------------------------------------------------------------------------
def simulate_events(
    n_users: int,
    n_items: int,
    count: int,
    seed: int = 0,
    start_seq: int = 0,
    new_user_rate: float = 0.05,
    new_item_rate: float = 0.05,
    reprice_rate: float = 0.10,
    price_range: Tuple[float, float] = (1.0, 60.0),
    n_categories: int = 1,
) -> List[Event]:
    """A reproducible catalog event stream.

    Pure function of its arguments (one seeded generator, consumed in a
    fixed order), so a crashed drill can regenerate the identical stream
    and lean on the journal's exactly-once ingest to converge with the
    uncrashed run.  New user/item ids are allocated contiguously above
    ``n_users``/``n_items``; interactions and reprices may reference
    entities added earlier in the same stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, start_seq]))
    events: List[Event] = []
    users, items = n_users, n_items
    lo, hi = price_range
    for offset in range(count):
        seq = start_seq + offset
        draw = rng.random()
        if draw < new_user_rate:
            events.append(Event(seq=seq, kind="add_user", user=users))
            users += 1
        elif draw < new_user_rate + new_item_rate:
            events.append(
                Event(
                    seq=seq,
                    kind="add_item",
                    item=items,
                    price=float(np.round(lo + (hi - lo) * rng.random(), 4)),
                    category=int(rng.integers(max(1, n_categories))),
                )
            )
            items += 1
        elif draw < new_user_rate + new_item_rate + reprice_rate:
            events.append(
                Event(
                    seq=seq,
                    kind="reprice",
                    item=int(rng.integers(items)),
                    price=float(np.round(lo + (hi - lo) * rng.random(), 4)),
                )
            )
        else:
            events.append(
                Event(
                    seq=seq,
                    kind="interaction",
                    user=int(rng.integers(users)),
                    item=int(rng.integers(items)),
                )
            )
    return events
