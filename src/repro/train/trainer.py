"""The BPR training loop shared by PUP and every trainable baseline.

Implements the paper's semi-supervised graph auto-encoder training: the
encoder runs on the full graph, the decoder only reconstructs user-item
edges via the BPR pairwise objective (Eq. 4) with L2 regularization on the
batch embeddings, Adam, and a step lr decay.

Every fit is profiled: wall time is attributed to ``sampling`` / ``forward``
/ ``backward`` / ``step`` (plus ``validate``) via :class:`repro.profiling.Profiler`,
surfaced on :attr:`TrainResult.profile` and — with ``verbose`` — as a
per-epoch progress line with throughput (triples/sec).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.base import Recommender
from ..data.dataset import Dataset
from ..data.sampling import NegativeSampler
from ..eval.ranking import _export_branches, evaluate
from ..runtime.engine import BatchRuntime, RuntimeConfig
from ..nn import (
    Adam,
    StepDecay,
    bpr_loss,
    bpr_loss_paper_eq4,
    fused_bpr_loss,
    fused_l2_on_batch,
    l2_on_batch,
)
from ..profiling import Profiler
from .config import TrainConfig

#: the phases that make up pure training time (excludes validation)
TRAIN_PHASES = ("sampling", "forward", "backward", "step")


@dataclass
class TrainResult:
    """Loss curve, validation history, profile, and the best checkpoint."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_history: List[Dict[str, float]] = field(default_factory=list)
    best_metric: float = -np.inf
    best_epoch: int = -1
    epochs_run: int = 0
    #: JSON-safe profiler summary (phase seconds/shares, triples/sec); None
    #: for non-trainable models that skip the loop
    profile: Optional[Dict] = None

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs were run")
        return self.epoch_losses[-1]

    @property
    def triples_per_sec(self) -> Optional[float]:
        """Training throughput over the whole fit (None if not profiled)."""
        if not self.profile:
            return None
        return self.profile.get("triples_per_sec")

    def to_dict(self) -> Dict:
        """JSON-safe summary of the run.

        When validation tracking is off, ``best_metric``/``best_epoch`` keep
        their ``-inf``/``-1`` sentinels in memory but serialize as ``None``:
        ``-Infinity`` is not valid JSON and a fake epoch ``-1`` would be
        indistinguishable from real data in metrics files.
        """
        tracked = np.isfinite(self.best_metric)
        return {
            "epoch_losses": [float(loss) for loss in self.epoch_losses],
            "validation_history": [
                {name: float(value) for name, value in metrics.items()}
                for metrics in self.validation_history
            ],
            "best_metric": float(self.best_metric) if tracked else None,
            "best_epoch": int(self.best_epoch) if self.best_epoch >= 0 else None,
            "epochs_run": int(self.epochs_run),
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrainResult":
        """Inverse of :meth:`to_dict` (restores the in-memory sentinels)."""
        result = cls(
            epoch_losses=list(payload.get("epoch_losses") or []),
            validation_history=list(payload.get("validation_history") or []),
            epochs_run=int(payload.get("epochs_run") or 0),
            profile=payload.get("profile"),
        )
        if payload.get("best_metric") is not None:
            result.best_metric = float(payload["best_metric"])
        if payload.get("best_epoch") is not None:
            result.best_epoch = int(payload["best_epoch"])
        return result


class Trainer:
    """Trains a :class:`Recommender` on a :class:`Dataset` with BPR."""

    def __init__(
        self,
        model: Recommender,
        dataset: Dataset,
        config: Optional[TrainConfig] = None,
        registry=None,
        tracer=None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self._rng = np.random.default_rng(self.config.seed)
        #: populated by :meth:`fit`; inspectable afterwards.  Passing a
        #: ``registry`` surfaces the phase counters on a shared /metrics
        #: endpoint; a ``tracer`` records one span per epoch and per
        #: validation pass.
        self.profiler = Profiler(registry=registry)
        self.tracer = tracer
        #: one batch runtime reused across every validation pass of a fit
        #: (pool startup is paid once, not per epoch); see :meth:`_validate`
        self._eval_runtime = None

    def fit(self) -> TrainResult:
        """Run the training loop; returns the loss/validation history.

        Non-trainable models (ItemPop) return an empty result immediately.
        If validation tracking is enabled, the model is restored to its best
        validation checkpoint before returning.
        """
        result = TrainResult()
        if not self.model.trainable:
            return result

        config = self.config
        profiler = self.profiler
        profiler.reset()
        sampler = NegativeSampler(self.dataset, self._rng, rate=config.negative_rate)
        optimizer = Adam(self.model.parameters(), lr=config.learning_rate)
        schedule = StepDecay(optimizer, milestones=config.lr_milestones, factor=config.lr_decay)
        best_state = None
        bad_evals = 0

        from ..obs.trace import maybe_span

        try:
            for epoch in range(1, config.epochs + 1):
                self.model.train()
                epoch_loss, n_batches, epoch_triples = 0.0, 0, 0
                epoch_start = time.perf_counter()
                batches = sampler.epoch_batches(config.batch_size)
                with maybe_span(
                    self.tracer, "train.epoch", cat="train", attrs={"epoch": epoch}
                ) as epoch_span:
                    while True:
                        with profiler.phase("sampling"):
                            batch = next(batches, None)
                        if batch is None:
                            break
                        users, pos_items, neg_items = batch
                        epoch_loss += self._step(optimizer, users, pos_items, neg_items)
                        n_batches += 1
                        epoch_triples += len(users)
                    epoch_span.set_attr("n_batches", n_batches)
                schedule.step()
                epoch_seconds = time.perf_counter() - epoch_start
                profiler.count("triples", epoch_triples)
                profiler.count("batches", n_batches)
                profiler.count("epochs")
                result.epoch_losses.append(epoch_loss / max(n_batches, 1))
                result.epochs_run = epoch
                if config.verbose:
                    throughput = epoch_triples / epoch_seconds if epoch_seconds > 0 else 0.0
                    print(
                        f"[{self.model.name}] epoch {epoch:3d}/{config.epochs} "
                        f"loss={result.epoch_losses[-1]:.4f} lr={schedule.current_lr:g} "
                        f"{throughput:,.0f} triples/s ({profiler.format_phases()})"
                    )

                if config.eval_every and epoch % config.eval_every == 0:
                    with maybe_span(
                        self.tracer, "train.validate", cat="train", attrs={"epoch": epoch}
                    ):
                        with profiler.phase("validate"):
                            metrics = self._validate()
                    result.validation_history.append(metrics)
                    metric = metrics[f"Recall@{config.eval_k}"]
                    if metric > result.best_metric:
                        result.best_metric = metric
                        result.best_epoch = epoch
                        best_state = self._snapshot_state()
                        bad_evals = 0
                    else:
                        bad_evals += 1
                        if config.early_stop_patience and bad_evals >= config.early_stop_patience:
                            break
        finally:
            if self._eval_runtime is not None:
                self._eval_runtime.close()
                self._eval_runtime = None

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        result.profile = self._profile_summary()
        return result

    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, np.ndarray]:
        """Deep-copied checkpoint of the model for early-stopping restore.

        ``state_dict`` copies every array, but the restored checkpoint being
        silently mutated by later epochs would be a correctness bug of the
        worst kind — so the no-aliasing property is asserted here rather
        than assumed.
        """
        state = self.model.state_dict()
        params = dict(self.model.named_parameters())
        for name, value in state.items():
            assert not np.shares_memory(value, params[name].data), (
                f"state_dict returned a view for {name!r}; best-epoch "
                "checkpoint would be mutated by subsequent training"
            )
        return state

    def _profile_summary(self) -> Dict:
        """Profiler summary with throughput computed over pure-train time."""
        profiler = self.profiler
        summary = profiler.summary()
        train_seconds = sum(profiler.seconds(p) for p in TRAIN_PHASES)
        summary["train_seconds"] = train_seconds
        if train_seconds > 0:
            summary["triples_per_sec"] = profiler.counter("triples") / train_seconds
        return summary

    def _step(
        self, optimizer: Adam, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> float:
        config = self.config
        profiler = self.profiler
        with profiler.phase("forward"):
            pos_scores, neg_scores, reg_tensors = self.model.bpr_forward(
                users, pos_items, neg_items
            )
            if config.loss == "bpr":
                ranking = fused_bpr_loss if config.fused_kernels else bpr_loss
            else:
                ranking = bpr_loss_paper_eq4
            loss = ranking(pos_scores, neg_scores)
            if config.l2_weight > 0 and reg_tensors:
                penalty = fused_l2_on_batch if config.fused_kernels else l2_on_batch
                loss = loss + penalty(reg_tensors, config.l2_weight, len(users))
            auxiliary = self.model.auxiliary_loss(users, pos_items)
            if auxiliary is not None:
                loss = loss + auxiliary
        with profiler.phase("backward"):
            optimizer.zero_grad()
            loss.backward()
        with profiler.phase("step"):
            optimizer.step()
        return loss.item()

    def _validate(self) -> Dict[str, float]:
        """One validation pass, through a runtime reused across epochs.

        The first validation builds a :class:`~repro.runtime.BatchRuntime`
        (with ``eval_workers`` / ``eval_mode`` from the config); later epochs :meth:`~repro.runtime.BatchRuntime.refresh`
        it with the epoch's re-frozen branches — the worker pool survives,
        so per-epoch cost is one export + one broadcast instead of pool
        startup (~28 ms per 4-process pool, docs/performance.md, paid every
        epoch before this).  Metrics are identical either way.  Models
        without a factorizable score fall back to plain per-call
        evaluation.
        """
        self.model.eval()
        if len(self.dataset.validation) == 0:
            raise ValueError("validation tracking enabled but the validation split is empty")
        config = self.config
        branches = _export_branches(self.model)
        if branches is None:
            return evaluate(
                self.model, self.dataset, split="validation", ks=(config.eval_k,),
                tracer=self.tracer,
            )
        if self._eval_runtime is None:
            self._eval_runtime = BatchRuntime(
                branches,
                RuntimeConfig(workers=config.eval_workers, mode=config.eval_mode),
                exclude_csr=self.dataset.train_exclusion_csr(),
            )
        else:
            self._eval_runtime.refresh(branches)
        return evaluate(
            self.model,
            self.dataset,
            split="validation",
            ks=(config.eval_k,),
            runtime=self._eval_runtime,
            tracer=self.tracer,
        )


def train_model(
    model: Recommender,
    dataset: Dataset,
    config: Optional[TrainConfig] = None,
    registry=None,
    tracer=None,
) -> TrainResult:
    """Convenience one-liner used by examples and benchmarks."""
    return Trainer(model, dataset, config, registry=registry, tracer=tracer).fit()
