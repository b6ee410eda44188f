"""Same-bytes gate for the learning and projection layers.

Each trainer runs at tiny fixed sizes and seeds, and the sha256 of its
parameter bytes must equal the recorded digest. The softmax and linear
digests were recorded before the network code was refactored. The
simclr, supcon and finetune digests were re-recorded when the pair losses
began to take positive sums: the logits became a plain product
Z (Z^T / temperature) instead of numpy's symmetric one, the positive logit
a row dot product with the positives' sum, and the gradient two products
with the unnormalized softmax, so the trained weights moved by rounding.
The projection cases hash the joint affinities, the per-row precisions,
the t-SNE coordinates, and, in a digest of their own, the KL diagnostics
(KL tail, final KL and worst late KL increase). The affinities, the
precisions and the coordinates were recorded before the descent was moved
into reused buffers (the n333 case and the precisions: before the
gradient was blocked and the tail kernel shared), and kept their bytes
when the affinities were built row by row in place and the gradient
began to overwrite its kernel. The KL digests were re-recorded then: the
KL became sum p log p minus sum p log q, summed in row blocks, instead of
one gathered sum of p (log p - log q), so its last bits moved while the
coordinates did not. A change that moves any bit of a trained weight or
an embedding fails here; re-record a digest only when a change means to
alter training or the descent.

The experiment case hashes every artifact of one `run_experiment("all")`
at criterion 9's configuration except the manifest (results, embeddings,
scatterplots, checkpoints and their `.cfg` sidecars). It was re-recorded
with the pair-loss digests above; the sidecars also changed then, as they
began to list every training setting.
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
        "806c95a3d821f860c8a04bcee21df38bb2a69975085e13fb4c812ecccbcd4600",
    "supcon":
        "464398ede03e99bf54ad8d1fbf231594159c5c099dac251609c736ec5ed10abf",
    "finetune":
        "7387784287d50fde273ae221f05309890324c82017d422e045851093fc904173",
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
#        affinity digest, coordinate digest)
PROJECTION_GOLDEN = {
    # fewer than 50 iterations, all of them exaggerated
    "short": ((3, 10, 5, 0.6, 21),
              ProjectionConfig(perplexity=6.0, iterations=40, exaggeration_iters=60,
                               momentum_switch=15, seed=4),
              "0cfd67e35c306d50d4df43ba651c365475c2f7f5280e4f09ac10051ddc43ccc9",
              "c2aaf648374a9f67aae57c5f3a024a7c9f6dbecb761b263bced0916a945d6f99"),
    # the momentum switch well after the exaggeration phase
    "split_phases": ((3, 15, 6, 0.8, 22),
                     ProjectionConfig(perplexity=9.0, iterations=130, exaggeration_iters=35,
                                      momentum_switch=90, seed=5),
                     "5b92c0c077f9651ac6d56c6d1e670eae947bacd53bcf0836ac9cd0519d742912",
                     "c088c29663f41d9a8a4b2e544d2e7975b0278232695dd145d94d03ce2ffc0aac"),
    "n210": ((3, 70, 8, 0.7, 23),
             ProjectionConfig(perplexity=25.0, iterations=300, exaggeration_iters=100,
                              momentum_switch=100, seed=6),
             "98cdd0902f50c6f0820e75d10a6c6e0e9206e5b14359afb509c7da9fb70a930d",
             "7d5aa0cd6f9d159548b94056dafd3dab5455f2fe8614415bbe23b787b26fbf9a"),
    # five 64-row blocks, the last one partial, and a tail whose first 30
    # steps take the gradient of 12 P from the kernel of the previous KL
    "n333": ((3, 111, 7, 0.9, 24),
             ProjectionConfig(perplexity=30.0, iterations=200, exaggeration_iters=180,
                              momentum_switch=120, seed=7),
             "5ff95c605d5643e3b571a26b43659ddd178fc5e9c22bf47c34ea3107548dee82",
             "bd7bdf327341a0e7216fc48a13fed5200b9f976f6d0ebde7346b636cd156f4df"),
}

# name: digest of the KL tail, final KL and worst late KL increase for the case above
KL_GOLDEN = {
    "short": "1f362baa94b85698ae3314ad656db947681dc2b4801836149cb610cef5196b96",
    "split_phases": "d6e5b876e74058b877686d3dbc88e9c6c74a7485c32fa4cb4eb347bcebfab5b0",
    "n210": "de31f83439e3911802f45c2cbe9a80580463b3786bc89a7ce11817f91f6d2fec",
    "n333": "8b5ae8280efa5816f3dc1a67d67d33c82b792a199e4d5c6b7f2a4bcdf52d7996",
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
    (k, per_class, d, spread, seed), config, affinity, coordinates = PROJECTION_GOLDEN[name]
    X = generate_blobs(k, per_class, d, spread, 8.0, seed=seed).features
    P = pairwise_affinities(X, config.perplexity, config.entropy_tolerance)
    _, betas = conditional_affinities(X, config.perplexity, config.entropy_tolerance)
    emb = tsne_project(X, config)
    assert digest(P) == affinity
    assert digest(betas) == BETA_GOLDEN[name]
    assert digest(emb.coordinates) == coordinates
    assert digest(emb.kl_tail, [emb.final_kl, emb.max_late_kl_increase]) == KL_GOLDEN[name]


# file name: sha256 of every artifact of criterion 9's run but manifest.txt
EXPERIMENT_GOLDEN = {
    "ckpt_combined_11.bin":
        "3e3f082ee6b2d069c964320d65413f763c6d51fe9040d9d03ced935dd2096f8c",
    "ckpt_combined_11.bin.cfg":
        "1566452cc8b82e4f960408963ce1ab57883179b02432ddfd3f6527c59f27503d",
    "ckpt_combined_12.bin":
        "edf0b9005440c46a34ad8c94b975e2a42aafd8b3d236eb239674663a10c93a0e",
    "ckpt_combined_12.bin.cfg":
        "cef1a3c340a886c9bdcd6f4844bea2de87d7473d5a506bc2947c9167fc6c49f0",
    "ckpt_simclr_11.bin":
        "2aebf37d86853f341d257cc7b7a5fbca72025fdbc0c400ca13644cd10388121a",
    "ckpt_simclr_11.bin.cfg":
        "1b9976a30f0cf52df32e1e339a9fb78e862c7f683b28734ef40aaa06246043eb",
    "ckpt_simclr_12.bin":
        "f7db3398bd9e7f44f8db2daa08d270c3b2316604e7486993e01accc055fc7ef9",
    "ckpt_simclr_12.bin.cfg":
        "71c481666d1d3071fda5216943ced44c79f6d83a4e508306b4574039be9583a8",
    "ckpt_supcon_11.bin":
        "bb564a24ae621389b7a37d7c76e871b55ac214dd90165b6fc2422eab65fc362f",
    "ckpt_supcon_11.bin.cfg":
        "b53c6b1e5bf16d15fbd5ae8ab44b1c0bafdcda788f62ba9dcae9dcbdce9bd280",
    "ckpt_supcon_12.bin":
        "92c03afa2a6f9aaef326e7d3b0a5329bac1bb8bf377c4e55f8917942c35cce2e",
    "ckpt_supcon_12.bin.cfg":
        "92403e984194296ddfc5feb1e4ee45c86023192a66fc6eb50c6a43f6cb03e98e",
    "embedding_combined_11.csv":
        "58e9a5734af97765deb96f5adfdc36c959117201204e855f9503889bc9c65ef1",
    "embedding_combined_12.csv":
        "a5d47ffcf5b6b51c9e76f7e960278b5f705fd78795949471b0bb5df1b193dc11",
    "embedding_simclr_11.csv":
        "e8a915c98076f57a1843b6fc9b9de6f85c42e35c9406689e03788e89ce34b31e",
    "embedding_simclr_12.csv":
        "144e9a074a8f4c4ea520cecef76df05b8b7511e822d235e87a127713b4b043c7",
    "embedding_supcon_11.csv":
        "dce1814e1173f0c7bd48f7403ea418c481446de0ba5dba5a0312731bee20273a",
    "embedding_supcon_12.csv":
        "5066ab6531022f8bf00a187482367fd473b0b7385c5e4658adbdb4f0c867e7d2",
    "results.csv":
        "370bb49ff80c7c8fa3bfd7a14b1ee3f4bab5e6c58c0cf9dd8815aedc190f6428",
    "scatter_combined_11.svg":
        "bf3bfa0e99813b21474d0cadc2202dc6967cea48fbffe3428049e06df76ea4e8",
    "scatter_combined_12.svg":
        "aa021743ec7c98ff9f71abe13323e4b1a73b2a10b07fe65d91ad156744063964",
    "scatter_simclr_11.svg":
        "f26ab8b8aecf708f2ce6d06492f3bd16b5e43ebf1261534b7935300e63023c2f",
    "scatter_simclr_12.svg":
        "c492c24af43e3d4f6e0a370c0aba315b828826fa0b0d51c0339dc4ac83bc8b60",
    "scatter_supcon_11.svg":
        "d983531d4c4b51c62d75e372a04ec441a400a0222b17df60ec6b3cd45275c4ef",
    "scatter_supcon_12.svg":
        "10c2d8a2c3d23d73eb054a22d5a624d1ede1fff0c492d6c5d970dee9ff8629c4",
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
