"""Same-bytes gate for the learning layers.

Each trainer runs at tiny fixed sizes and seeds, and the sha256 of its
parameter bytes must equal the digest recorded before the network code
was refactored. A change that moves any bit of a trained weight fails
here; re-record a digest only when a change means to alter training.
"""

import hashlib

import numpy as np
import pytest

from epl.contrastive import AugmentConfig, TrainConfig, finetune_supcon, train
from epl.dataset import generate_blobs, stratified_split
from epl.probe import SoftmaxConfig, train_linear, train_softmax


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def encoder_digest(params) -> str:
    return digest(*params.arrays().values())


@pytest.fixture(scope="module")
def blobs():
    data = generate_blobs(3, 20, 6, 0.5, 6.0, seed=11)
    return data, stratified_split(data, 0.3, 0.4, 0.3, seed=12)


def _config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=4, batch_size=8, seed=seed,
                       augment=AugmentConfig(noise=0.2, dropout=0.1))


GOLDEN = {
    "simclr":
        "1636217c821ef10e7fb759b4785b7306273032dab9fdf3a0e63cfcbe06fe13c5",
    "supcon":
        "ace84aea18b78c61febe62083a6a0615abe48ac3819de5ccc682c3a128030df0",
    "finetune":
        "e4aface200a050baa515dd0f1dfd00e41db7b4dea76eb28b0a1c1ac5e88e4e42",
    "softmax":
        "7d19050c744d8a6ec5c91b132e14ef7bf62e5e406846aedfc4aba489272a030b",
    "linear":
        "dd36838b14c712dce15b2186b0b44bf9872dca7b39b5f3aa8818730ec5b930e4",
}


def test_simclr_weights(blobs):
    data, split = blobs
    assert encoder_digest(train("simclr", data, split, _config(3))) == GOLDEN["simclr"]


def test_supcon_weights(blobs):
    data, split = blobs
    assert encoder_digest(train("supcon", data, split, _config(4))) == GOLDEN["supcon"]


def test_finetune_weights(blobs):
    data, split = blobs
    base = train("simclr", data, split, _config(3))
    tuned = finetune_supcon(base, data, split, _config(5))
    assert encoder_digest(tuned) == GOLDEN["finetune"]


def test_softmax_weights(blobs):
    data, _ = blobs
    model = train_softmax(data.features, data.labels,
                          SoftmaxConfig(epochs=5, batch_size=7, hidden_dim=9, seed=6))
    assert digest(model.w1, model.b1, model.w2, model.b2,
                  model.mean, model.scale) == GOLDEN["softmax"]


def test_linear_weights(blobs):
    data, _ = blobs
    model = train_linear(data.features, data.labels, lam=0.5, epochs=30)
    assert digest(model.weights, model.bias, model.objective_trace) == GOLDEN["linear"]
