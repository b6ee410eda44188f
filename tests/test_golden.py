"""Same-bytes gate for the learning and projection layers.

Each trainer runs at tiny fixed sizes and seeds, and the sha256 of its
parameter bytes must equal the digest recorded before the network code
was refactored. The projection cases hash the joint affinities, the
per-row precisions and the t-SNE result (coordinates, KL tail, final KL
and worst late KL increase), recorded before the descent was moved into
reused buffers (the n333 case and the precisions: before the gradient was
blocked and the tail kernel shared). A change that
moves any bit of a trained weight or an embedding fails here; re-record a
digest only when a change means to alter training or the descent.
"""

import hashlib

import numpy as np
import pytest

from epl.contrastive import TrainConfig, finetune_supcon, train
from epl.dataset import generate_blobs, stratified_split
from epl.probe import SoftmaxConfig, train_linear, train_softmax
from epl.projection import (ProjectionConfig, conditional_affinities, pairwise_affinities,
                            tsne_project)


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
    return TrainConfig(epochs=4, batch_size=8, seed=seed, noise=0.2, dropout=0.1)


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


# name: (generate_blobs(k, per_class, d, spread, 8.0, seed), config,
#        affinity digest, embedding digest)
PROJECTION_GOLDEN = {
    # fewer than 50 iterations, all of them exaggerated
    "short": ((3, 10, 5, 0.6, 21),
              ProjectionConfig(perplexity=6.0, iterations=40, exaggeration_iters=60,
                               momentum_switch=15, seed=4),
              "0cfd67e35c306d50d4df43ba651c365475c2f7f5280e4f09ac10051ddc43ccc9",
              "8c1d5e8a2f658e1c4e93fb966e40ef3cbf37d2cfaa1cb20a6d575fa11c723171"),
    # the momentum switch well after the exaggeration phase
    "split_phases": ((3, 15, 6, 0.8, 22),
                     ProjectionConfig(perplexity=9.0, iterations=130, exaggeration_iters=35,
                                      momentum_switch=90, seed=5),
                     "5b92c0c077f9651ac6d56c6d1e670eae947bacd53bcf0836ac9cd0519d742912",
                     "9c10e6bb93888a3f62c380ba2c04e9526d8734aae14af27d0518786a6da348a6"),
    "n210": ((3, 70, 8, 0.7, 23),
             ProjectionConfig(perplexity=25.0, iterations=300, exaggeration_iters=100,
                              momentum_switch=100, seed=6),
             "98cdd0902f50c6f0820e75d10a6c6e0e9206e5b14359afb509c7da9fb70a930d",
             "83adf34e1b46192769f3574818a8cc7bfb332aaab28c82986f42a20d67014bcf"),
    # five 64-row blocks, the last one partial, and a tail whose first 30
    # steps take the gradient of 12 P from the kernel of the previous KL
    "n333": ((3, 111, 7, 0.9, 24),
             ProjectionConfig(perplexity=30.0, iterations=200, exaggeration_iters=180,
                              momentum_switch=120, seed=7),
             "5ff95c605d5643e3b571a26b43659ddd178fc5e9c22bf47c34ea3107548dee82",
             "3aaa77d86cc32b56f7b765f8b3cf63f8a8aca74e8f2881fb807ac95d6ad7a405"),
}

# name: digest of conditional_affinities' per-row precisions for the case above
BETA_GOLDEN = {
    "short": "dd53684745bf9d587dd122382aae7a14662aefcd7b708897fb828aef5d99413a",
    "split_phases": "96c495a8eeda3418a3f30536ca2df3b7167810c57ff4952e42c4c865cf56d385",
    "n210": "14986ef06feef99e96a2e13e9e4384c1ac6e4af8ebac1ce46395380ae5381bac",
    "n333": "9ae822015307d110096d196f1265b6a8660a8a86537a0ba0135349e35fd9fea4",
}


@pytest.mark.parametrize("name", sorted(PROJECTION_GOLDEN))
def test_projection_bytes(name):
    (k, per_class, d, spread, seed), config, affinity, embedding = PROJECTION_GOLDEN[name]
    X = generate_blobs(k, per_class, d, spread, 8.0, seed=seed).features
    P = pairwise_affinities(X, config.perplexity, config.entropy_tolerance)
    _, betas = conditional_affinities(X, config.perplexity, config.entropy_tolerance)
    emb = tsne_project(X, config)
    assert digest(P) == affinity
    assert digest(betas) == BETA_GOLDEN[name]
    assert digest(emb.coordinates, emb.kl_tail,
                  [emb.final_kl, emb.max_late_kl_increase]) == embedding
