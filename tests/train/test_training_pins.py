"""Training results pinned bit for bit, for every trainable registered model.

``training_pins.json`` was recorded at commit ``2803242`` — the parent of
the change that made ``Tensor.backward`` release the graph as it walks
it, before any source edit — by running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  Each case trains one registered model on a tiny synthetic
dataset, in float32 and float64, with the fused BPR / L2 kernels on and
off: the digest covers the per-epoch loss history and the final
``state_dict``.

A change to how gradients are propagated or buffered that keeps the
arithmetic must keep every digest.  A digest that stops matching is a
changed result, not an expectation to re-record.

Two sets of digests were re-recorded, each once and in its own commit:

* the six ``{fm,deepfm,padq}/float32/*``, when those models stopped
  building float64 biases and targets: their float32 steps had been
  computed in float64;
* the twenty ``{pup,pup-c,pup-mf,pup-minus,pup-p}/{float32,float64}/*``,
  when PUP's encoders started drawing their dropout masks over only the
  rows a step reads: the method is unchanged, the RNG stream moved.

The other 22 are the original recording.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate
from repro.experiments.registry import available_models, build_model
from repro.nn import precision
from repro.train import TrainConfig, train_model

DTYPES = ("float32", "float64")
FUSED = (True, False)
CONFIG = SyntheticConfig(
    n_users=40, n_items=50, n_categories=4, n_price_levels=5,
    interactions_per_user=6, seed=3,
)


def digest(losses, state):
    sha = hashlib.sha256()
    sha.update(np.asarray(losses, dtype=np.float64).tobytes())
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        sha.update(f"{name}{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def trainable_models(dataset):
    return [name for name in available_models() if build_model(name, dataset, seed=0).trainable]


def train_case(dataset, name, dtype, fused):
    with precision(dtype):
        model = build_model(name, dataset, seed=0)
        result = train_model(
            model, dataset,
            TrainConfig(epochs=2, batch_size=32, seed=1, fused_kernels=fused),
        )
    return digest(result.epoch_losses, model.state_dict())


def case_key(name, dtype, fused):
    return f"{name}/{dtype}/{'fused' if fused else 'composed'}"


def all_digests():
    dataset, _ = generate(CONFIG)
    for name in trainable_models(dataset):
        for dtype in DTYPES:
            for fused in FUSED:
                yield case_key(name, dtype, fused), train_case(dataset, name, dtype, fused)


with open(os.path.join(os.path.dirname(__file__), "training_pins.json")) as _handle:
    PINS = json.load(_handle)


def test_every_trainable_model_is_pinned():
    dataset, _ = generate(CONFIG)
    expected = {
        case_key(name, dtype, fused)
        for name in trainable_models(dataset) for dtype in DTYPES for fused in FUSED
    }
    assert set(PINS) == expected


@pytest.mark.parametrize("dtype", DTYPES)
def test_digests_match_the_parent(dtype):
    dataset, _ = generate(CONFIG)
    for name in trainable_models(dataset):
        for fused in FUSED:
            key = case_key(name, dtype, fused)
            assert train_case(dataset, name, dtype, fused) == PINS[key], key


if __name__ == "__main__":
    print(json.dumps(dict(all_digests()), indent=4))
