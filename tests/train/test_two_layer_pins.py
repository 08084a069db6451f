"""A two-layer PUP pinned bit for bit, in float32 and float64.

The paper's design ablation trains PUP with two graph convolution layers.
It is the only PUP configuration whose backward multiplies by the whole of
``Â.T``: a one-layer step multiplies only by the slice of ``Â`` its batch
reads, and ``training_pins.json`` holds one-layer PUPs only.

``DIGESTS`` was recorded at commit ``16a677e`` — the parent of the change
that made the encoder back-propagate through the CSC view of ``Â`` instead
of a cached CSR transpose, before any source edit — by running this file as
a script (``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>``).
A digest that stops matching is a changed result, not one to re-record.
"""

import json

import numpy as np
import pytest
from test_training_pins import CONFIG, digest

from repro.core import PUP
from repro.data import generate
from repro.nn import precision
from repro.train import TrainConfig, train_model

DTYPES = ("float32", "float64")

DIGESTS = {
    "float32": "58abc66e2c91ca99ae9b229fae22863ef990c7adf4b9b14dc9a58cafb0dc6c0d",
    "float64": "b426eb834a448f6172fca7c736624f0bf9d071c247f53b4db9e49f04f3a398cb",
}


def train_two_layer(dataset, dtype):
    with precision(dtype):
        model = PUP(dataset, global_dim=12, category_dim=4, n_layers=2,
                    rng=np.random.default_rng(0))
        result = train_model(model, dataset, TrainConfig(epochs=2, batch_size=32, seed=1))
    return digest(result.epoch_losses, model.state_dict())


@pytest.mark.parametrize("dtype", DTYPES)
def test_two_layer_pup_matches_the_parent(dtype):
    dataset, _ = generate(CONFIG)
    assert train_two_layer(dataset, dtype) == DIGESTS[dtype]


if __name__ == "__main__":
    dataset, _ = generate(CONFIG)
    print(json.dumps({dtype: train_two_layer(dataset, dtype) for dtype in DTYPES}, indent=4))
