"""Promotion health gates: no candidate goes live without passing these.

Three independent probes, each targeting a distinct way an incremental
build can rot:

* **recall-vs-exact floor** — a seeded user sample is ranked exactly (the
  batch runtime, train exclusions applied) and through the candidate ANN
  index at its default operating point; mean recall@k below the floor
  fails the gate.  This is the end-to-end quality check that catches
  centroid staleness and bad fold-in solves alike.

* **price-band probes** — for each re-priced/new item (the rows a flash
  sale touches), assert the candidate's own metadata is self-consistent:
  a band pinned to the item's level must include it, a band excluding the
  level must not, and a *filtered ANN search* over that band must return
  only in-band items.  PUP conditions on price; an index whose filter
  masks disagree with its price levels would serve category-correct but
  price-wrong recommendations, which no recall metric notices.

* **parity sampling** — full-probe exact-scorer ANN search must be
  bit-identical to exact ranking for a user sample.  This pins the
  structural invariant delta builds rely on (ids ascending within lists,
  permutation is a true permutation); if an append ever broke the
  layout, parity fails even when recall still looks fine.

Gates only *read* the candidate; pass/fail is returned as a
:class:`GateReport` and the controller decides promotion vs rejection.
Every probe is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.ann import ann_recall_at_k, exact_rankings
from ..serving.ann.ivf import IVFIndex
from ..serving.filters import PriceBandFilter
from ..serving.index import EmbeddingIndex


class GateFailed(RuntimeError):
    """A candidate failed a promotion gate; names the gate and evidence."""

    def __init__(self, gate: str, detail: str) -> None:
        super().__init__(f"gate {gate!r} failed: {detail}")
        self.gate = gate
        self.detail = detail


@dataclass(frozen=True)
class GateConfig:
    recall_k: int = 50
    recall_floor: float = 0.95
    recall_users: int = 64
    #: operating point for the recall gate; None = the candidate's own
    #: default nprobe (gate what will actually be served)
    nprobe: Optional[int] = None
    parity_users: int = 16
    parity_k: int = 10
    probe_items: int = 32  # cap on per-promotion price-band probes
    seed: int = 0

    def __post_init__(self) -> None:
        if self.recall_k < 1:
            raise ValueError(f"recall_k must be >= 1, got {self.recall_k}")
        if not 0.0 <= self.recall_floor <= 1.0:
            raise ValueError(f"recall_floor must be in [0, 1], got {self.recall_floor}")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError(f"nprobe must be None or >= 1, got {self.nprobe}")


@dataclass
class GateReport:
    passed: bool = True
    gates: Dict[str, Dict] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def ensure(self) -> None:
        """Raise :class:`GateFailed` for the first failure, if any."""
        if not self.passed:
            first = self.failures[0]
            gate, _, detail = first.partition(": ")
            raise GateFailed(gate, detail or first)


def _sample_users(n_users: int, count: int, seed: int, salt: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    count = min(count, n_users)
    return np.sort(rng.choice(n_users, size=count, replace=False))


def _recall_gate(
    index: EmbeddingIndex, ann: IVFIndex, config: GateConfig, report: GateReport
) -> None:
    users = _sample_users(index.n_users, config.recall_users, config.seed, 0)
    k = min(config.recall_k, index.n_items)
    exact = exact_rankings(index, users, k)
    ids, _ = ann.search(
        users,
        k,
        nprobe=config.nprobe,
        exclude_csr=(index.exclude_indptr, index.exclude_indices),
    )
    approx = {int(u): ids[row] for row, u in enumerate(users)}
    recall = ann_recall_at_k(exact, approx, k)
    result = {
        "recall": float(recall),
        "floor": config.recall_floor,
        "k": k,
        "users": len(users),
        "nprobe": config.nprobe if config.nprobe is not None else ann.nprobe,
    }
    report.gates["recall"] = result
    if recall < config.recall_floor:
        report.passed = False
        report.failures.append(
            f"recall: recall@{k} {recall:.4f} below floor {config.recall_floor}"
        )


def _price_band_gate(
    index: EmbeddingIndex,
    ann: IVFIndex,
    config: GateConfig,
    report: GateReport,
    probe_items: Sequence[int],
) -> None:
    levels = index.item_price_levels
    probes = list(probe_items)[: config.probe_items]
    users = _sample_users(index.n_users, min(8, index.n_users), config.seed, 1)
    violations: List[str] = []
    bands_checked = 0
    # The masks and the filtered search depend on the probe's level alone:
    # each is computed once per distinct level, reported once per probe.
    masks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    leaks: Dict[int, List[int]] = {}
    for item in probes:
        level = int(levels[item])
        if level not in masks:
            masks[level] = (
                PriceBandFilter(level, level).mask(index),
                PriceBandFilter(level + 1, None).mask(index),
            )
        in_band, out_band = masks[level]
        if not in_band[item]:
            violations.append(f"item {item} excluded from its own level {level}")
            continue
        if out_band[item]:
            violations.append(f"item {item} leaks into band >= {level + 1}")
            continue
        if level not in leaks:
            # End-to-end: a filtered search must never return an out-of-band
            # item — the mask applied at the fine stage must agree with the
            # candidate's own metadata.
            ids, _ = ann.search(users, min(10, index.n_items), candidate_mask=in_band)
            served = ids[ids >= 0]
            leaks[level] = sorted(set(int(b) for b in served[levels[served] != level]))
        if leaks[level]:
            violations.append(
                f"band [{level},{level}] search returned out-of-band items {leaks[level][:5]}"
            )
        bands_checked += 1
    report.gates["price_band"] = {
        "probed_items": len(probes),
        "bands_searched": bands_checked,
        "violations": violations,
    }
    if violations:
        report.passed = False
        report.failures.append(f"price_band: {violations[0]}")


def _parity_gate(
    index: EmbeddingIndex, ann: IVFIndex, config: GateConfig, report: GateReport
) -> None:
    users = _sample_users(index.n_users, config.parity_users, config.seed, 2)
    k = min(config.parity_k, index.n_items)
    exact = exact_rankings(index, users, k)
    ids, _ = ann.search(
        users,
        k,
        nprobe=ann.n_lists,  # full probe: candidate pool == catalog
        scorer="exact",
        exclude_csr=(index.exclude_indptr, index.exclude_indices),
    )
    mismatches = [
        int(u) for row, u in enumerate(users) if not np.array_equal(ids[row], exact[int(u)])
    ]
    report.gates["parity"] = {
        "users": len(users),
        "k": k,
        "mismatched_users": mismatches,
    }
    if mismatches:
        report.passed = False
        report.failures.append(
            f"parity: full-probe search diverged from exact for users {mismatches[:5]}"
        )


def run_gates(
    index: EmbeddingIndex,
    ann: IVFIndex,
    config: Optional[GateConfig] = None,
    probe_items: Optional[Sequence[int]] = None,
) -> GateReport:
    """Run every promotion gate against a candidate; never raises.

    ``probe_items`` are the item ids the price-band gate exercises —
    the controller passes the ids re-priced or added since the parent
    version (the rows most likely to be wrong).  Defaults to a seeded
    catalog sample so the gate never silently no-ops.
    """
    config = config or GateConfig()
    report = GateReport()
    if probe_items is None or len(probe_items) == 0:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
        count = min(config.probe_items, index.n_items)
        probe_items = np.sort(rng.choice(index.n_items, size=count, replace=False))
    _recall_gate(index, ann, config, report)
    _price_band_gate(index, ann, config, report, probe_items)
    _parity_gate(index, ann, config, report)
    return report
