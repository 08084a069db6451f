"""The versioned experiment artifact directory and its in-memory handle.

One :func:`repro.experiments.run` call materializes as a directory:

======================  ==================================================
``spec.json``           format version + the full :class:`ExperimentSpec`
``checkpoint/``         model parameters (:mod:`repro.train.persistence`)
``index/``              frozen :class:`~repro.serving.EmbeddingIndex`
                        (absent for non-factorizable models, e.g. DeepFM)
``metrics.json``        eval metrics + training summary (validation-off runs
                        serialize ``best_metric``/``best_epoch`` as null)
``loss_curve.json``     per-epoch losses + validation history
``observability.json``  :meth:`repro.obs.MetricsRegistry.to_json` snapshot
                        of the run (train + eval phase counters)
======================  ==================================================

``repro export --ann`` adds ``ann/`` and ``repro recommend`` adds
``recommendations/``.  Every ``*/`` entry is a checksummed archive
directory (:mod:`repro.archive`).

:class:`Experiment` is the live handle over those pieces — the trained
model, its dataset, metrics, and the serving index — whether it came fresh
out of a run or was rehydrated with :meth:`Experiment.load`.  Rehydration
reads the JSON files and ``index/``; the dataset and the model are rebuilt
on first use, so serving a saved index never touches them.  It is exact:
the reloaded model serves the same top-K as the in-process model did
before saving.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Optional, Sequence

import numpy as np

from .. import __version__
from ..archive import clean_stale_archives, read_archive_metadata
from ..eval.ranking import topk_rankings
from ..nn import precision
from ..serving.ann import TieredIndexConfig, build_ivf, load_ann
from ..serving.export import ExportError, export_index
from ..serving.index import EmbeddingIndex
from ..serving.service import RecommenderService
from ..train.persistence import load_checkpoint, save_checkpoint
from ..train.trainer import TrainResult
from .spec import ExperimentSpec

SPEC_FILENAME = "spec.json"
CHECKPOINT_DIRNAME = "checkpoint"
INDEX_DIRNAME = "index"
ANN_DIRNAME = "ann"
RECOMMENDATIONS_DIRNAME = "recommendations"
METRICS_FILENAME = "metrics.json"
LOSS_CURVE_FILENAME = "loss_curve.json"
OBS_FILENAME = "observability.json"

#: bump when the directory layout changes incompatibly (v2: every archive
#: is a directory; v1 held ``checkpoint`` and ``index`` as single files)
ARTIFACT_FORMAT_VERSION = 2

#: index families ``repro export --ann-kind`` builds
ANN_KINDS = ("ivf", "ivf-pq")


def _write_json(path: str, payload: Dict) -> str:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _read_json(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def build_ann(
    index: EmbeddingIndex,
    kind: Optional[str] = None,
    n_lists: Optional[int] = None,
    nprobe: Optional[int] = None,
):
    """Build a fresh ANN index of ``kind`` (default ``ivf``) over ``index``."""
    if kind is not None and kind not in ANN_KINDS:
        raise ValueError(f"kind must be one of {ANN_KINDS}, got {kind!r}")
    return build_ivf(index, n_lists=n_lists, nprobe=nprobe, pq=(kind == "ivf-pq"))


def stage_ann(ann, artifacts_dir: str, tiered: bool = False) -> str:
    """Write ``ann`` to ``ann/``, where :meth:`Experiment.ann_index` looks for it.

    Tiered serving pages the permuted item payload, so a ``tiered`` archive
    carries it; any other archive leaves it out.
    """
    return ann.save(os.path.join(artifacts_dir, ANN_DIRNAME), include_items=tiered)


class Experiment:
    """A spec plus everything it produced: model, metrics, serving index.

    ``dataset`` and ``model`` may be None when ``artifacts_dir`` holds the
    checkpoint: each is then rebuilt on first access.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        dataset=None,
        model=None,
        train_result: Optional[TrainResult] = None,
        metrics: Optional[Dict[str, float]] = None,
        index: Optional[EmbeddingIndex] = None,
        artifacts_dir: Optional[str] = None,
        eval_profile: Optional[Dict] = None,
        obs_snapshot: Optional[Dict] = None,
    ) -> None:
        self.spec = spec
        self._dataset = dataset
        self._model = model
        self.train_result = train_result
        self.metrics = dict(metrics or {})
        self._index = index
        self.artifacts_dir = artifacts_dir
        #: profiler summary of the evaluation pass (score/topk/merge/metrics
        #: phases); persisted in metrics.json next to the training profile
        self.eval_profile = eval_profile
        #: full :meth:`repro.obs.MetricsRegistry.to_json` snapshot of the
        #: run's registry (train + eval phase counters); persisted as
        #: ``observability.json``
        self.obs_snapshot = obs_snapshot

    @property
    def dataset(self):
        """The spec's dataset, regenerated on first access (deterministic)."""
        if self._dataset is None:
            self._dataset, _truth = self.spec.dataset.load()
        return self._dataset

    @property
    def model(self):
        """The trained model, rebuilt from ``checkpoint/`` on first access.

        Rebuilt in the recorded precision: a float32 experiment must come
        back as a float32 model, or live scores would drift from the saved
        float32 index.
        """
        if self._model is None:
            with precision(self.spec.precision):
                model = self.spec.model.build(self.dataset)
            load_checkpoint(model, os.path.join(self.artifacts_dir, CHECKPOINT_DIRNAME))
            model.eval()
            self._model = model
        return self._model

    # ------------------------------------------------------------------
    # Serving surface
    # ------------------------------------------------------------------
    @property
    def index(self) -> EmbeddingIndex:
        """The frozen serving index; exported on first access if needed."""
        return self.export()

    def export(self, force: bool = False) -> EmbeddingIndex:
        """(Re)freeze the serving index from the live model.

        ``force=True`` re-runs the export even when an index is already in
        hand (e.g. one loaded from disk that may predate the checkpoint).
        """
        if force or self._index is None:
            self._index = export_index(
                self.model, self.dataset, extra={"experiment": self.spec.to_dict()}
            )
        return self._index

    def service(self, **kwargs) -> RecommenderService:
        """A ready :class:`RecommenderService` over this experiment's index."""
        return RecommenderService(self.index, **kwargs)

    def ann_index(
        self,
        n_lists: Optional[int] = None,
        nprobe: Optional[int] = None,
        kind: Optional[str] = None,
        memory_ceiling_bytes: Optional[int] = None,
    ):
        """The experiment's ANN index: saved structure if present, else built.

        A saved ``ann/`` archive (written by ``repro export --ann`` /
        ``--ann-kind``) is re-attached to the experiment's embedding
        index; otherwise an index of the requested ``kind`` (``ivf`` — the
        default, or ``ivf-pq``) is built fresh.
        Explicit arguments always win over the saved artifact: a requested
        ``nprobe`` overrides the stored default operating point in place,
        and a requested ``n_lists`` or ``kind`` that disagrees with the
        saved layout triggers a fresh build (both are baked into the build;
        silently serving the old one would ignore the request).

        ``memory_ceiling_bytes`` selects the **tiered** loader: a saved
        archive is used only if it carries the permuted item payload
        (``repro export --ann-kind ... --memory-ceiling``), which is then
        mmap-opened with only the hottest lists resident; otherwise one is
        built and staged.
        """
        tiered = memory_ceiling_bytes is not None
        config = (
            TieredIndexConfig(memory_ceiling_bytes=memory_ceiling_bytes) if tiered else None
        )

        path = self.artifacts_dir and os.path.join(self.artifacts_dir, ANN_DIRNAME)
        # Only an archive that holds the item payload can back a cold tier.
        if path and os.path.exists(path) and (
            not tiered or read_archive_metadata(path)["include_items"]
        ):
            saved = load_ann(path, self.index, mmap=tiered, tiered=config)
            # A different kind or list count was requested: rebuild.
            if kind in (None, saved.kind.removeprefix("tiered-")) and (
                n_lists is None or int(n_lists) == saved.n_lists
            ):
                if nprobe is not None:
                    saved.nprobe = max(1, min(int(nprobe), saved.n_lists))
                return saved

        ann = build_ann(self.index, kind, n_lists=n_lists, nprobe=nprobe)
        if not tiered:
            return ann
        # Tiered serving needs an archive to page from: stage one next to
        # the other artifacts and reopen it mmap-backed.
        if self.artifacts_dir is None:
            raise ValueError(
                "tiered ANN loading needs an artifacts directory to stage "
                "the mmap archive in (save the experiment first, or use "
                "`repro export --ann-kind ... --memory-ceiling`)"
            )
        path = stage_ann(ann, self.artifacts_dir, tiered=True)
        return load_ann(path, self.index, mmap=True, tiered=config)

    def topk(
        self, users: Sequence[int], k: int = 10, exclude_train: bool = True, workers: int = 0,
    ) -> Dict[int, np.ndarray]:
        """Offline top-K rankings from the live model (evaluator semantics)."""
        return topk_rankings(
            self.model, self.dataset, users, k=k, exclude_train=exclude_train, workers=workers,
        )

    def evaluate(
        self, ks: Optional[Sequence[int]] = None, split: Optional[str] = None,
        workers: int = 0, profiler=None, tracer=None,
    ):
        """Re-run the spec's eval protocol (optionally overriding ks/split).

        ``workers`` parallelizes the pass without changing any result bit
        (see :mod:`repro.runtime`); ``profiler`` / ``tracer`` observe it
        without changing any result bit either.
        """
        protocol = self.spec.eval
        if ks is not None or split is not None:
            protocol = type(protocol)(
                split=split or protocol.split,
                ks=tuple(ks) if ks is not None else protocol.ks,
                exclude_train=protocol.exclude_train,
            )
        return protocol.run(
            self.model, self.dataset, workers=workers, profiler=profiler, tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Artifact store
    # ------------------------------------------------------------------
    def save(self, artifacts_dir: str) -> str:
        """Write the full artifact directory; returns its path."""
        os.makedirs(artifacts_dir, exist_ok=True)
        _write_json(
            os.path.join(artifacts_dir, SPEC_FILENAME),
            {
                "format_version": ARTIFACT_FORMAT_VERSION,
                "repro_version": __version__,
                "experiment": self.spec.to_dict(),
            },
        )
        save_checkpoint(
            self.model,
            os.path.join(artifacts_dir, CHECKPOINT_DIRNAME),
            extra={"experiment": self.spec.name, "model": self.spec.model.to_dict()},
        )

        index_file = None
        if self.spec.export:
            try:
                index = self.index
            except ExportError as error:
                warnings.warn(
                    f"[{self.spec.name}] serving index skipped: {error}", stacklevel=2
                )
            else:
                index.save(os.path.join(artifacts_dir, INDEX_DIRNAME))
                index_file = INDEX_DIRNAME

        train_summary = None
        if self.train_result is not None:
            curves = self.train_result.to_dict()
            train_summary = {
                key: value
                for key, value in curves.items()
                if key not in ("epoch_losses", "validation_history")
            }
            _write_json(
                os.path.join(artifacts_dir, LOSS_CURVE_FILENAME),
                {
                    "epoch_losses": curves["epoch_losses"],
                    "validation_history": curves["validation_history"],
                },
            )
        _write_json(
            os.path.join(artifacts_dir, METRICS_FILENAME),
            {
                "metrics": self.metrics,
                "train": train_summary,
                "eval": self.spec.eval.to_dict(),
                "eval_profile": self.eval_profile,
                "index": index_file,
            },
        )
        if self.obs_snapshot is not None:
            _write_json(os.path.join(artifacts_dir, OBS_FILENAME), self.obs_snapshot)
        self.artifacts_dir = artifacts_dir
        return artifacts_dir

    @classmethod
    def load(cls, artifacts_dir: str) -> "Experiment":
        """Rehydrate a saved experiment into a serving-ready handle.

        Reads ``spec.json``, the metrics, the loss curve, the observability
        snapshot and the saved index.  The dataset (rebuilt from its spec;
        synthetic generation is deterministic) and the model (rebuilt
        through the registry, restored from the checkpoint) are built on
        first use, and so is the index when none was saved.
        """
        spec_path = os.path.join(artifacts_dir, SPEC_FILENAME)
        if not os.path.exists(spec_path):
            raise FileNotFoundError(
                f"{artifacts_dir!r} is not an experiment artifact directory "
                f"(missing {SPEC_FILENAME})"
            )
        payload = _read_json(spec_path)
        version = payload.get("format_version", 1)
        if version > ARTIFACT_FORMAT_VERSION:
            raise ValueError(
                f"artifact format v{version} is newer than this reader "
                f"(v{ARTIFACT_FORMAT_VERSION})"
            )
        if version < ARTIFACT_FORMAT_VERSION:
            raise ValueError(
                f"{artifacts_dir!r} holds artifact format v{version}, whose "
                "checkpoint and index are single files this reader no longer "
                f"loads (v{ARTIFACT_FORMAT_VERSION} stores archive directories); "
                "re-run `repro train` to write it again"
            )
        # Finish or sweep what writers that died mid-publish left: every
        # archive write stages to a `*.tmp-<pid>` sibling and renames.
        for stale in clean_stale_archives(artifacts_dir):
            warnings.warn(
                f"swept staging leftover of an interrupted write: {stale}",
                RuntimeWarning,
                stacklevel=2,
            )
        spec = ExperimentSpec.from_dict(payload["experiment"])

        metrics: Dict[str, float] = {}
        train_result = None
        eval_profile = None
        metrics_path = os.path.join(artifacts_dir, METRICS_FILENAME)
        if os.path.exists(metrics_path):
            stored = _read_json(metrics_path)
            metrics = stored.get("metrics") or {}
            eval_profile = stored.get("eval_profile")
            curves_path = os.path.join(artifacts_dir, LOSS_CURVE_FILENAME)
            curves = _read_json(curves_path) if os.path.exists(curves_path) else {}
            if stored.get("train") is not None or curves:
                train_result = TrainResult.from_dict({**(stored.get("train") or {}), **curves})

        obs_path = os.path.join(artifacts_dir, OBS_FILENAME)
        obs_snapshot = _read_json(obs_path) if os.path.exists(obs_path) else None

        index_path = os.path.join(artifacts_dir, INDEX_DIRNAME)
        index = EmbeddingIndex.load(index_path) if os.path.exists(index_path) else None
        return cls(
            spec,
            train_result=train_result,
            metrics=metrics,
            index=index,
            artifacts_dir=artifacts_dir,
            eval_profile=eval_profile,
            obs_snapshot=obs_snapshot,
        )
