"""Declarative, serializable experiment specifications.

An :class:`ExperimentSpec` is the complete, JSON-serializable description
of one experiment — the thing every example and benchmark used to
hand-wire: which dataset (:class:`DatasetSpec`), which model
(:class:`~repro.experiments.registry.ModelSpec`), which training recipe
(:class:`~repro.train.TrainConfig`) and which evaluation protocol
(:class:`EvalSpec`), plus whether to export a serving index.  ``to_dict`` /
``from_dict`` round-trip losslessly, which is what makes experiment
artifact directories self-describing (spec.json) and reloadable.

Execution lives in :func:`repro.experiments.runner.run`; this module is
pure description.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..data.registry import available_datasets, load_dataset
from ..eval.ranking import evaluate
from ..train.config import TrainConfig
from .registry import ModelSpec, _jsonify

_SPLITS = ("train", "validation", "test")


@dataclass
class DatasetSpec:
    """One loadable dataset configuration (registry name + builder args)."""

    name: str
    scale: float = 1.0
    seed: int = 0
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in available_datasets():
            raise KeyError(
                f"unknown dataset {self.name!r}; available: {available_datasets()}"
            )
        self.scale = float(self.scale)
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        self.seed = int(self.seed)
        self.kwargs = _jsonify(dict(self.kwargs))

    def load(self):
        """Build (or fetch from the registry cache) dataset + ground truth."""
        return load_dataset(self.name, seed=self.seed, scale=self.scale, **self.kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "kwargs": dict(self.kwargs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DatasetSpec":
        unknown = set(payload) - {"name", "scale", "seed", "kwargs"}
        if unknown:
            raise ValueError(f"unknown DatasetSpec fields: {sorted(unknown)}")
        return cls(
            name=payload["name"],
            scale=payload.get("scale", 1.0),
            seed=payload.get("seed", 0),
            kwargs=dict(payload.get("kwargs") or {}),
        )


@dataclass
class EvalSpec:
    """The full-ranking evaluation protocol (split, cutoffs, exclusions)."""

    split: str = "test"
    ks: Tuple[int, ...] = (50, 100)
    exclude_train: bool = True

    def __post_init__(self) -> None:
        if self.split not in _SPLITS:
            raise ValueError(f"split must be one of {_SPLITS}, got {self.split!r}")
        self.ks = tuple(sorted(set(int(k) for k in self.ks)))
        if not self.ks or self.ks[0] < 1:
            raise ValueError(f"ks must be positive cutoffs, got {self.ks}")
        self.exclude_train = bool(self.exclude_train)

    def run(
        self, model, dataset, workers: int = 0, tracer=None,
    ) -> Dict[str, float]:
        """Evaluate ``model`` under this protocol.

        ``workers`` is an execution knob, not part of the protocol —
        results are bit-identical for every count (see
        :mod:`repro.runtime`), which is why it is a call-time argument
        rather than a serialized spec field.  ``tracer`` is an observation
        hook (:mod:`repro.obs`) and changes nothing either.
        """
        return evaluate(
            model, dataset, split=self.split, ks=self.ks, exclude_train=self.exclude_train,
            workers=workers, tracer=tracer,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "split": self.split,
            "ks": list(self.ks),
            "exclude_train": self.exclude_train,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EvalSpec":
        unknown = set(payload) - {"split", "ks", "exclude_train"}
        if unknown:
            raise ValueError(f"unknown EvalSpec fields: {sorted(unknown)}")
        return cls(
            split=payload.get("split", "test"),
            ks=tuple(payload.get("ks") or (50, 100)),
            exclude_train=payload.get("exclude_train", True),
        )


@dataclass
class ExperimentSpec:
    """Everything needed to run one experiment, as data."""

    dataset: DatasetSpec
    model: ModelSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSpec = field(default_factory=EvalSpec)
    export: bool = True
    name: Optional[str] = None
    #: compute precision the whole pipeline (build + train + export) runs
    #: under; recorded in spec.json so Experiment.load rebuilds the model in
    #: the precision it was trained in (keeping live == index bit-identical)
    precision: str = "float64"

    def __post_init__(self) -> None:
        if isinstance(self.dataset, str):
            self.dataset = DatasetSpec(self.dataset)
        if isinstance(self.model, str):
            self.model = ModelSpec(self.model)
        self.export = bool(self.export)
        if self.precision not in ("float32", "float64"):
            raise ValueError(
                f"precision must be 'float32' or 'float64', got {self.precision!r}"
            )
        if self.name is None:
            self.name = f"{self.model.name}_{self.dataset.name}"

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        model: str,
        dataset: str,
        *,
        hparams: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        scale: float = 1.0,
        data_seed: int = 0,
        dataset_kwargs: Optional[Dict[str, Any]] = None,
        train: Optional[TrainConfig] = None,
        split: str = "test",
        ks: Tuple[int, ...] = (50, 100),
        exclude_train: bool = True,
        export: bool = True,
        name: Optional[str] = None,
        precision: str = "float64",
        **train_kwargs,
    ) -> "ExperimentSpec":
        """Ergonomic constructor from plain names and keyword arguments.

        Extra keyword arguments become :class:`TrainConfig` fields, so
        ``ExperimentSpec.create("pup", "yelp", epochs=20)`` works; ``seed``
        seeds both model init and training unless ``train`` is given.
        """
        if train is None:
            train_kwargs.setdefault("seed", seed)
            train = TrainConfig(**train_kwargs)
        elif train_kwargs:
            raise ValueError("pass either a TrainConfig or TrainConfig kwargs, not both")
        return cls(
            dataset=DatasetSpec(
                dataset, scale=scale, seed=data_seed, kwargs=dataset_kwargs or {}
            ),
            model=ModelSpec(model, hparams=hparams or {}, seed=seed),
            train=train,
            eval=EvalSpec(split=split, ks=ks, exclude_train=exclude_train),
            export=export,
            name=name,
            precision=precision,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "dataset": self.dataset.to_dict(),
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "eval": self.eval.to_dict(),
            "export": self.export,
            "precision": self.precision,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        unknown = set(payload) - {
            "name", "dataset", "model", "train", "eval", "export", "precision",
        }
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return cls(
            dataset=DatasetSpec.from_dict(payload["dataset"]),
            model=ModelSpec.from_dict(payload["model"]),
            train=TrainConfig.from_dict(payload.get("train") or {}),
            eval=EvalSpec.from_dict(payload.get("eval") or {}),
            export=payload.get("export", True),
            name=payload.get("name"),
            # specs written before the precision policy existed are float64
            precision=payload.get("precision", "float64"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write the spec alone to a JSON file (artifact dirs embed it too)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a spec JSON file — bare, or an artifact dir's versioned one.

        Accepting the enveloped form means ``--spec runs/<name>/spec.json``
        re-runs a finished experiment directly.
        """
        with open(path) as handle:
            payload = json.load(handle)
        if "experiment" in payload and "format_version" in payload:
            payload = payload["experiment"]
        return cls.from_dict(payload)
