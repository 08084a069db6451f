"""``train``: fit PUP and validate it; the only workload serving does no work in.

PUP with the paper's hyper-parameters, float32, fused kernels, batch 1024,
on the synthetic Yelp dataset.  One slice is one ``Trainer.fit()`` of
``EPOCHS_PER_SLICE`` epochs on the same model (``fit`` restarts Adam every
call; that is part of the fixed protocol) followed by one validation pass.
"""

from __future__ import annotations

import math
import time
from typing import Dict

import numpy as np

from repro.data import load_dataset
from repro.data.registry import clear_cache
from repro.data.sampling import NegativeSampler
from repro.eval import evaluate
from repro.experiments import PAPER_HPARAMS, build_model
from repro.graph import HeteroGraph
from repro.nn import Adam, fused_bpr_loss, fused_l2_on_batch, precision
from repro.train import TrainConfig, Trainer


DTYPE = "float32"
BATCH_SIZE = 1024
EPOCHS_PER_SLICE = 2
RECALL_K = 50

SIZES = {
    "full": dict(scale=6.0),
    "smoke": dict(scale=0.5),
}


class TrainWorkload:
    name = "train"
    #: about how long a slice takes on the reference box in its slow state (2 s in its fast one)
    SLICE_SECONDS = 3.0
    SPARE_SLICES = True

    def __init__(self, name: str, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.cfg = dict(SIZES[size])
        self.layer: Dict[str, float] = {}
        clear_cache()  # the registry caches by (name, seed, scale)
        start = time.perf_counter()
        self.dataset, _ = load_dataset("yelp", seed=seed, scale=self.cfg["scale"])
        self.layer["data.load_dataset_s"] = time.perf_counter() - start
        self.triples_per_epoch = len(self.dataset.train)
        self.validation_users = len(self.dataset.split_positive_sets("validation"))
        self.attempted = 0
        self.failed = 0
        self.losses = []
        self.request_log = []

    def _config(self, epochs: int) -> TrainConfig:
        return TrainConfig(
            epochs=epochs, batch_size=BATCH_SIZE, seed=self.seed,
            lr_milestones=(), fused_kernels=True,
        )

    def setup(self) -> None:
        """Dataset in memory -> a model one warm-up epoch in, evaluator warm."""
        with precision(DTYPE):
            self.model = build_model(
                "pup", self.dataset, seed=self.seed, **PAPER_HPARAMS["pup"]
            )
            Trainer(self.model, self.dataset, self._config(1)).fit()
            evaluate(self.model, self.dataset, split="validation", ks=(RECALL_K,))
            self.trainer = Trainer(self.model, self.dataset, self._config(EPOCHS_PER_SLICE))
        self.losses = []

    def attach(self, tracer) -> None:
        self._tracer = tracer

    def run_slice(self, part: int, traced: bool = False) -> Dict[str, float]:
        fit, validate = self.trainer.fit, self._validate
        if traced:
            fit = self._tracer.wrap(fit, "train.fit")
            validate = self._tracer.wrap(validate, "eval.evaluate")
        with precision(DTYPE):
            cpu = time.process_time()
            start = time.perf_counter()
            result = fit()
            seconds = time.perf_counter() - start
            cpu = time.process_time() - cpu
            start = time.perf_counter()
            metrics = validate()
            validate_s = time.perf_counter() - start
        # Output check: the loss is finite and strictly below the last slice's.
        loss = float(result.final_loss)
        self.attempted += 2
        if not math.isfinite(loss) or (self.losses and loss >= self.losses[-1]):
            self.failed += 1
        if not math.isfinite(metrics[f"Recall@{RECALL_K}"]):
            self.failed += 1
        self.losses.append(loss)
        triples = self.triples_per_epoch * EPOCHS_PER_SLICE
        return {
            "throughput_per_s": triples / seconds,
            "cpu_us_per_op": cpu / triples * 1e6,
            "latency_p50_ms": validate_s * 1e3,
        }

    def _validate(self) -> Dict[str, float]:
        return evaluate(self.model, self.dataset, split="validation", ks=(RECALL_K,))

    def finish(self) -> float:
        with precision(DTYPE):
            metrics = evaluate(self.model, self.dataset, split="test", ks=(RECALL_K,))
        return float(metrics[f"Recall@{RECALL_K}"])

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def ledger(self, tracer) -> Dict[str, float]:
        """One epoch through the benchmark's own copy of ``Trainer._step``.

        ``fit`` times its phases with its own profiler; here the four
        phases are spans around the public calls a step is made of, and
        what ``fit`` spends beyond them is reported as unattributed.
        """
        out = dict(self.layer)
        dataset, model = self.dataset, self.model
        with precision(DTYPE):
            with tracer.span("ledger.graph.adjacency_build") as span:
                graph = HeteroGraph(dataset)
                graph.normalized_adjacency(dtype=np.float32)
                graph.normalized_adjacency_transpose(dtype=np.float32)
            out["graph.adjacency_build_s"] = span.duration

            config = self._config(1)
            sampler = NegativeSampler(
                dataset, np.random.default_rng(self.seed), rate=config.negative_rate
            )
            optimizer = Adam(model.parameters(), lr=config.learning_rate)
            phases = {"data.sample": 0.0, "core.forward": 0.0,
                      "nn.backward": 0.0, "nn.optim_step": 0.0}
            steps = 0
            model.train()
            batches = sampler.epoch_batches(config.batch_size)
            with tracer.span("ledger.train.epoch"):
                while True:
                    with tracer.span("ledger.data.sample") as span:
                        batch = next(batches, None)
                    phases["data.sample"] += span.duration
                    if batch is None:
                        break
                    users, pos_items, neg_items = batch
                    with tracer.span("ledger.core.forward") as span:
                        pos, neg, reg = model.bpr_forward(users, pos_items, neg_items)
                        loss = fused_bpr_loss(pos, neg)
                        loss = loss + fused_l2_on_batch(reg, config.l2_weight, len(users))
                    phases["core.forward"] += span.duration
                    with tracer.span("ledger.nn.backward") as span:
                        optimizer.zero_grad()
                        loss.backward()
                    phases["nn.backward"] += span.duration
                    with tracer.span("ledger.nn.optim_step") as span:
                        optimizer.step()
                    phases["nn.optim_step"] += span.duration
                    steps += 1
            model.eval()
            for name, total in phases.items():
                out[f"{name}_ms_per_step"] = total / steps * 1e3

            with tracer.span("ledger.train.fit") as span:
                Trainer(model, dataset, config).fit()
            out["train.unattributed_ms_per_step"] = (
                span.duration / steps * 1e3 - sum(phases.values()) / steps * 1e3
            )
            with tracer.span("ledger.eval.evaluate") as span:
                self._validate()
        out["eval.validation_pass_ms"] = span.duration * 1e3
        out["eval.rank_users_per_s"] = self.validation_users / span.duration
        return out
