"""The BPR training loop shared by PUP and every trainable baseline.

Implements the paper's semi-supervised graph auto-encoder training: the
encoder runs on the full graph (PUP's last layer computes only the rows a
batch reads), the decoder only reconstructs user-item edges via the BPR
pairwise objective (Eq. 4) with L2 regularization on the batch embeddings,
Adam, and a step lr decay.

Every fit is timed with spans: ``train.sampling`` / ``train.forward`` /
``train.backward`` / ``train.step`` under each ``train.epoch``, and
``train.validate``.  They go into the caller's tracer, or into a private
one made per epoch, so an untraced fit holds at most one epoch of records.
:func:`repro.obs.trace.span_profile` folds them into
:attr:`TrainResult.profile`, which ``verbose`` also prints per epoch with
the throughput (triples/sec).
"""

from __future__ import annotations

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
from ..obs.trace import Tracer, span_profile
from .config import TrainConfig

#: the phases that make up pure training time (excludes validation)
TRAIN_PHASES = ("sampling", "forward", "backward", "step")

#: span name -> ``TrainResult.profile`` phase
TRAIN_SPANS = {**{f"train.{phase}": phase for phase in TRAIN_PHASES}, "train.validate": "validate"}


@dataclass
class TrainResult:
    """Loss curve, validation history, profile, and the best checkpoint."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_history: List[Dict[str, float]] = field(default_factory=list)
    best_metric: float = -np.inf
    best_epoch: int = -1
    epochs_run: int = 0
    #: JSON-safe span summary (phase seconds/shares, triples/sec); None
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
        tracer=None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self._rng = np.random.default_rng(self.config.seed)
        #: records every span of a fit, and its validation passes' spans
        self.tracer = tracer
        #: one batch runtime reused across every validation pass of a fit
        #: (pool startup is paid once, not per epoch); see :meth:`_validate`
        self._eval_runtime = None

    def fit(self) -> TrainResult:
        """Run the training loop; returns the loss/validation history.

        Non-trainable models (ItemPop) return an empty result immediately.
        If validation tracking is enabled, the model is restored to its best
        validation checkpoint before returning.  The parameters' gradients
        are released on the way out, so a fitted model holds no ``.grad``.
        """
        result = TrainResult()
        if not self.model.trainable:
            return result

        config = self.config
        sampler = NegativeSampler(self.dataset, self._rng, rate=config.negative_rate)
        optimizer = Adam(self.model.parameters(), lr=config.learning_rate)
        schedule = StepDecay(optimizer, milestones=config.lr_milestones, factor=config.lr_decay)
        best_state = None
        bad_evals = 0
        profile = None
        fit_triples = fit_batches = 0

        try:
            for epoch in range(1, config.epochs + 1):
                tracer = self.tracer if self.tracer is not None else Tracer()
                mark = len(tracer)
                self.model.train()
                epoch_loss, n_batches, epoch_triples = 0.0, 0, 0
                batches = sampler.epoch_batches(config.batch_size)
                with tracer.span("train.epoch", cat="train", attrs={"epoch": epoch}) as epoch_span:
                    while True:
                        with tracer.span("train.sampling", cat="train"):
                            batch = next(batches, None)
                        if batch is None:
                            break
                        users, pos_items, neg_items = batch
                        epoch_loss += self._step(tracer, optimizer, users, pos_items, neg_items)
                        n_batches += 1
                        epoch_triples += len(users)
                    epoch_span.set_attr("n_batches", n_batches)
                schedule.step()
                fit_triples += epoch_triples
                fit_batches += n_batches
                profile = span_profile(tracer, TRAIN_SPANS, mark, profile)
                result.epoch_losses.append(epoch_loss / max(n_batches, 1))
                result.epochs_run = epoch
                if config.verbose:
                    seconds = epoch_span.end - epoch_span.start
                    throughput = epoch_triples / seconds if seconds > 0 else 0.0
                    shares = " ".join(
                        f"{name} {phase['share']:.0%}" for name, phase in profile["phases"].items()
                    )
                    print(
                        f"[{self.model.name}] epoch {epoch:3d}/{config.epochs} "
                        f"loss={result.epoch_losses[-1]:.4f} lr={schedule.current_lr:g} "
                        f"{throughput:,.0f} triples/s ({shares})"
                    )

                if config.eval_every and epoch % config.eval_every == 0:
                    mark = len(tracer)
                    with tracer.span("train.validate", cat="train", attrs={"epoch": epoch}):
                        metrics = self._validate()
                    profile = span_profile(tracer, TRAIN_SPANS, mark, profile)
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
            # A finished model holds no gradients: the next fit in the same
            # process would otherwise build its tables beside them.
            optimizer.zero_grad()
            if self._eval_runtime is not None:
                self._eval_runtime.close()
                self._eval_runtime = None

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        profile["counters"] = {
            "triples": fit_triples, "batches": fit_batches, "epochs": result.epochs_run,
        }
        # Throughput over pure-train time: validation is a phase of its own.
        phases = profile["phases"]
        train_seconds = sum(phases[name]["seconds"] for name in TRAIN_PHASES if name in phases)
        profile["train_seconds"] = train_seconds
        if train_seconds > 0:
            profile["triples_per_sec"] = fit_triples / train_seconds
        result.profile = profile
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

    def _step(
        self,
        tracer: Tracer,
        optimizer: Adam,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
    ) -> float:
        config = self.config
        with tracer.span("train.forward", cat="train"):
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
        with tracer.span("train.backward", cat="train"):
            optimizer.zero_grad()
            loss.backward()
        with tracer.span("train.step", cat="train"):
            optimizer.step()
        return loss.item()

    def _validate(self) -> Dict[str, float]:
        """One validation pass, through a runtime reused across epochs.

        The first validation builds a :class:`~repro.runtime.BatchRuntime`
        with ``eval_workers`` threads; later epochs
        :meth:`~repro.runtime.BatchRuntime.refresh` it with the epoch's
        re-frozen branches, so its threads live for the whole fit.  Metrics
        are identical either way.  Models without a factorizable score fall
        back to plain per-call evaluation.
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
                RuntimeConfig(workers=config.eval_workers),
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
    tracer=None,
) -> TrainResult:
    """Convenience one-liner used by examples and benchmarks."""
    return Trainer(model, dataset, config, tracer=tracer).fit()
