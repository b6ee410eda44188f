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

The experiment case hashes every artifact of one `run_experiment("all")`
at criterion 9's configuration except the manifest (results, embeddings,
scatterplots, checkpoints and their `.cfg` sidecars), recorded before the
three experiment families became one arm table and one loop.
"""

import hashlib

import numpy as np
import pytest

from epl.config import ExperimentConfig
from epl.contrastive import TrainConfig, finetune_supcon, train
from epl.dataset import generate_blobs, stratified_split
from epl.pipeline import run_experiment
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
                          SoftmaxConfig(epochs=5, batch_size=7, hidden_dim=9, seed=6),
                          data.class_count)
    assert digest(model.w1, model.b1, model.w2, model.b2,
                  model.mean, model.scale) == GOLDEN["softmax"]


def test_linear_weights(blobs):
    data, _ = blobs
    model = train_linear(data.features, data.labels, lam=0.5, epochs=30,
                         class_count=data.class_count)
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


# file name: sha256 of every artifact of criterion 9's run but manifest.txt
EXPERIMENT_GOLDEN = {
    "ckpt_combined_11.bin":
        "6771c57213394703523256f681040422c3a65b8a66bd33b7d81bae6aa6054f2a",
    "ckpt_combined_11.bin.cfg":
        "65048ac7d2467b6f7f65a14e1477bf1ad6c5741efac9831efbe1e632884c0fd7",
    "ckpt_combined_12.bin":
        "cd7fe34d36387a4207677c3a459bde685589e8477235bd93221833cf87dca929",
    "ckpt_combined_12.bin.cfg":
        "2d4f6ac8ee401d2a346c4820a0e3c7cfee483d3a3cd1627bdff725137788c5fc",
    "ckpt_simclr_11.bin":
        "f632bf669fdd6ce94b12fd54f7571d7e91a118d3b5df0ac7e6a741a1ef7fcac3",
    "ckpt_simclr_11.bin.cfg":
        "8d56ad7865385bd13f377de8a00630ee4b4095d557bfaf553af69df49783f2b8",
    "ckpt_simclr_12.bin":
        "2072646ce10d9cef685ca873833c2aab8d5ab5f7fbb8be80367f37fb6c70bce8",
    "ckpt_simclr_12.bin.cfg":
        "b20b79eadc2a158ccc04d75671cee7e84c858041b7a11736fdf30bede0941b55",
    "ckpt_supcon_11.bin":
        "f53cf5c1677f2eaad2b8599632ffd9c7f7964f045554ae3ba91263742b6ec14f",
    "ckpt_supcon_11.bin.cfg":
        "dbc39691a3a83407ab27d4787f6653d3bc9d1b7388edf69fbc39c51993d4e952",
    "ckpt_supcon_12.bin":
        "41a98c222dbe7a9d7db38813dc2144baf89fc4f4cd0a4fb82dbb26747a3149a1",
    "ckpt_supcon_12.bin.cfg":
        "e0bcad85c3da683d99be4f9b680064330f5b3883775ecd438549068e971301b7",
    "embedding_combined_11.csv":
        "815ac996e8ea04977b8d500e267c2451e7bc33addc0d36ce4cae4983ea693cf0",
    "embedding_combined_12.csv":
        "8970d1baff853d03cdfd2584ed93e1351b5d4657d52367f68be4ccf957c0e72b",
    "embedding_simclr_11.csv":
        "3f8cd1ee04559fefb6e113af738706dd9af9fb44bdb813f6c39d6d47c0962d17",
    "embedding_simclr_12.csv":
        "2f3434b6fe87876a96cb4054b520eada2e1a264ee30a52b26576677bf3dbebc4",
    "embedding_supcon_11.csv":
        "fd84bd19386e10f00e7751d6e83626cefa55c69080732a3f90712668c507307e",
    "embedding_supcon_12.csv":
        "5fc47aa77db4b22f60cafbca0fcfa5c3f4099701762195dfef7ac51a113c40b4",
    "results.csv":
        "0202b536fc7b7e9fb9f71c54c60dd7112fabf471fbf8f97900dd0d43426ddfef",
    "scatter_combined_11.svg":
        "1a8610fe7cb70bd9a11eb1b5c9bcfb458e26a348335f8b6f0b24b91a2f8622ec",
    "scatter_combined_12.svg":
        "56fd6c485ad834decc77192f0f1ec7470aa242ec761db64a014de5d273e0f125",
    "scatter_simclr_11.svg":
        "de2b5190ba141547cb560591ac4724ed72a3d443f2bb54a4a2b63aeacd081be0",
    "scatter_simclr_12.svg":
        "ddf44b8fc2449793a07967415117e88700c1a032e4b191ecdec7a158f507686f",
    "scatter_supcon_11.svg":
        "eac9948643cdf896dda5c5381f63d871ed4dc30a04bcd2fa157c217db013dd12",
    "scatter_supcon_12.svg":
        "e1cad2e9752c7c1c17f3fbab7cbcd52064b9a3c85c7de643da92655c4e099245",
}


def test_experiment_artifact_bytes(tmp_path):
    cfg = ExperimentConfig(classes=3, per_class=60, dims=6, spread=0.8, center_dist=10.0,
                           dataset_seed=2, s_frac=0.05, u_frac=0.65, t_frac=0.30,
                           base_seed=11, replicas=2, epochs=5, batch_size=32,
                           iterations=150, exaggeration_iters=40, momentum_switch=40,
                           perplexity=12.0, out_dir=str(tmp_path))
    rows, code = run_experiment("all", cfg)
    assert (code, len(rows)) == (0, 22)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir() if p.name != "manifest.txt"} == EXPERIMENT_GOLDEN
