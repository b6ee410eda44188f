"""Desk-scale contrastive representation learning with exact gradients.

A small feedforward encoder (input -> hidden ReLU -> latent) feeds a
projection head (latent -> hidden ReLU -> L2-normalized output). Two
augmented views per sample are pushed through encoder and head; the view
pair loss is the normalized-temperature cross entropy, either in its
self-supervised form (the partner view is the only positive) or the
supervised form (every same-label view is a positive). Training is plain
numpy: manual backpropagation, decoupled-weight-decay Adam, a cosine
learning-rate schedule, and best-checkpoint selection by validation loss.
The latent output is what downstream stages consume; the head output
exists only inside the losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from .dataset import Dataset, Role, SplitAssignment

_NORM_EPS = 1e-12

HIDDEN_DIM = 64
LATENT_DIM = 32
HEAD_HIDDEN_DIM = 32
HEAD_DIM = 16

# AdamW moments and the cosine schedule, which anneals over the whole run
# from learning_rate down to learning_rate / MIN_LR_DIVISOR.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_LR_DIVISOR = 50.0


class ContrastiveError(ValueError):
    """Raised for invalid batches, labels, or configurations."""


@dataclass
class AugmentConfig:
    """Vector-space view generator: Gaussian jitter then coordinate dropout.

    The jitter scale is noise * feature_scale per coordinate, where
    feature_scale defaults to the per-feature standard deviation of the
    training data.
    """

    noise: float = 0.1
    dropout: float = 0.1
    feature_scale: np.ndarray | float | None = None


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    temperature: float = 0.07
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    warm_start: "EncoderParams | None" = None  # start from these weights, not at random
    validation_fraction: float = 0.1
    seed: int = 0
    hidden_dim: int = HIDDEN_DIM
    latent_dim: int = LATENT_DIM
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if self.epochs < 0:
            raise ContrastiveError("epochs must be non-negative")
        if self.temperature <= 0:
            raise ContrastiveError("temperature must be positive")
        if self.batch_size < 2:
            raise ContrastiveError("batch size must be at least 2")
        if not 0.0 < self.validation_fraction < 0.5:
            raise ContrastiveError("validation fraction must be in (0, 0.5)")


@dataclass
class EncoderParams:
    """Encoder and head weights. w*/b* encode, v*/c* project."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    v1: np.ndarray
    c1: np.ndarray
    v2: np.ndarray
    c2: np.ndarray

    _FIELDS = ("w1", "b1", "w2", "b2", "v1", "c1", "v2", "c2")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def copy(self) -> "EncoderParams":
        return EncoderParams(**{k: v.copy() for k, v in self.arrays().items()})

    def save(self, path, config_lines: dict | None = None) -> None:
        ckpt.save_checkpoint(path, ckpt.KIND_ENCODER, self.arrays(), config_lines)

    @classmethod
    def load(cls, path) -> "EncoderParams":
        kind, arrays = ckpt.load_checkpoint(path)
        if kind != ckpt.KIND_ENCODER:
            raise ContrastiveError(f"{path}: not an encoder checkpoint")
        missing = [f for f in cls._FIELDS if f not in arrays]
        if missing:
            raise ContrastiveError(f"{path}: missing arrays {missing}")
        # Each block is a 2-d weight and a bias of its output width, and
        # takes the previous block's output as its input.
        width = None
        for w, b in zip(cls._FIELDS[::2], cls._FIELDS[1::2]):
            weight, bias = arrays[w], arrays[b]
            if (weight.ndim != 2 or 0 in weight.shape or bias.shape != weight.shape[1:]
                    or width not in (None, weight.shape[0])):
                shapes = ", ".join(f"{f} {arrays[f].shape}" for f in cls._FIELDS)
                raise ContrastiveError(f"{path}: array shapes do not chain: {shapes}")
            width = weight.shape[1]
        for name in cls._FIELDS:
            if not np.isfinite(arrays[name]).all():
                raise ContrastiveError(f"{path}: non-finite value in {name}")
        return cls(**{f: arrays[f] for f in cls._FIELDS})


@dataclass
class ViewBatch:
    """2B augmented views, pairs interleaved: views 2t and 2t+1 share source t."""

    views: np.ndarray
    source: np.ndarray
    labels: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Network kit, shared with the softmax probe
# ---------------------------------------------------------------------------

def he_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def relu_mlp(X: np.ndarray, w1, b1, w2, b2):
    """Two-layer ReLU block: (pre-activation, hidden, output)."""
    a = X @ w1 + b1
    h = np.maximum(a, 0.0)
    return a, h, h @ w2 + b2


def relu_mlp_backward(X: np.ndarray, a: np.ndarray, h: np.ndarray, w2: np.ndarray,
                      d_out: np.ndarray):
    """Gradients of relu_mlp: (d_w1, d_b1, d_w2, d_b2, d_a).

    d_a is the gradient of the pre-activation; d_a @ w1.T continues the
    chain into the block's input.
    """
    d_w2 = h.T @ d_out
    d_b2 = d_out.sum(axis=0)
    d_a = (d_out @ w2.T) * (a > 0)
    return X.T @ d_a, d_a.sum(axis=0), d_w2, d_b2, d_a


def row_softmax(s: np.ndarray):
    """Row-wise softmax of s and its log-normalizer log(sum(exp(s), axis=1))."""
    row_max = s.max(axis=1, keepdims=True)
    e = np.exp(s - row_max)
    total = e.sum(axis=1, keepdims=True)
    return e / total, (np.log(total) + row_max)[:, 0]


def safe_std(X: np.ndarray) -> np.ndarray:
    """Per-column standard deviation, 1 where a column is constant."""
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return scale


def init_params(input_dim: int, config: TrainConfig, rng) -> EncoderParams:
    return EncoderParams(
        w1=he_uniform(rng, input_dim, config.hidden_dim),
        b1=np.zeros(config.hidden_dim),
        w2=he_uniform(rng, config.hidden_dim, config.latent_dim),
        b2=np.zeros(config.latent_dim),
        v1=he_uniform(rng, config.latent_dim, HEAD_HIDDEN_DIM),
        c1=np.zeros(HEAD_HIDDEN_DIM),
        v2=he_uniform(rng, HEAD_HIDDEN_DIM, HEAD_DIM),
        c2=np.zeros(HEAD_DIM),
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward(params: EncoderParams, X: np.ndarray) -> dict:
    a1, h1, latent = relu_mlp(X, params.w1, params.b1, params.w2, params.b2)
    a2, h2, raw = relu_mlp(latent, params.v1, params.c1, params.v2, params.c2)
    norms = np.sqrt((raw ** 2).sum(axis=1))
    head = np.empty_like(raw)
    ok = norms > _NORM_EPS
    head[ok] = raw[ok] / norms[ok, None]
    # Degenerate zero-norm rows map to the first basis vector.
    head[~ok] = 0.0
    head[~ok, 0] = 1.0
    return {"x": X, "a1": a1, "h1": h1, "latent": latent, "a2": a2,
            "h2": h2, "raw": raw, "norms": norms, "ok": ok, "head": head}


def _backward(params: EncoderParams, cache: dict, d_head: np.ndarray) -> dict:
    head, norms, ok = cache["head"], cache["norms"], cache["ok"]
    d_raw = np.zeros_like(d_head)
    inner = (d_head[ok] * head[ok]).sum(axis=1, keepdims=True)
    d_raw[ok] = (d_head[ok] - inner * head[ok]) / norms[ok, None]
    v1, c1, v2, c2, d_a2 = relu_mlp_backward(cache["latent"], cache["a2"], cache["h2"],
                                             params.v2, d_raw)
    w1, b1, w2, b2, _ = relu_mlp_backward(cache["x"], cache["a1"], cache["h1"],
                                          params.w2, d_a2 @ params.v1.T)
    return {"v2": v2, "c2": c2, "v1": v1, "c1": c1, "w2": w2, "b2": b2, "w1": w1, "b1": b1}


def _check_width(params: EncoderParams, X: np.ndarray) -> None:
    if X.shape[1] != params.input_dim:
        raise ContrastiveError(
            f"input dimension {X.shape[1]} != encoder dimension {params.input_dim}"
        )


def encode(params: EncoderParams, x):
    """Forward pass returning (latent, unit-norm head output)."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    _check_width(params, X)
    cache = _forward(params, X)
    latent, head = cache["latent"], cache["head"]
    if single:
        return latent[0], head[0]
    return latent, head


def extract_features(params: EncoderParams, data: Dataset, roles=None) -> np.ndarray:
    """Latent features for the requested roles, rows in ascending sample order."""
    if roles is None:
        idx = np.arange(data.sample_count)
    else:
        idx = np.asarray(roles, dtype=np.int64)
    X = data.features[idx]
    _check_width(params, X)
    # The encoder block alone: the projection head is not needed here.
    return relu_mlp(X, params.w1, params.b1, params.w2, params.b2)[2]


def role_indices(split: SplitAssignment, roles) -> np.ndarray:
    mask = np.zeros(len(split.roles), dtype=bool)
    for role in roles:
        mask |= split.roles == int(role)
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _scale_vector(config: AugmentConfig, dim: int) -> np.ndarray:
    scale = config.feature_scale if config.feature_scale is not None else 1.0
    return np.broadcast_to(np.asarray(scale, dtype=np.float64), (dim,))


def augment(x, config: AugmentConfig, rng) -> np.ndarray:
    """One augmented view: additive Gaussian noise, then coordinate dropout."""
    x = np.asarray(x, dtype=np.float64)
    scale = _scale_vector(config, x.shape[-1])
    noisy = x + config.noise * scale * rng.standard_normal(x.shape)
    keep = rng.random(x.shape) >= config.dropout
    return noisy * keep


def make_view_batch(X: np.ndarray, labels, config: AugmentConfig, rng) -> ViewBatch:
    """Two views per row, interleaved so views 2t and 2t+1 share source t."""
    doubled = np.repeat(X, 2, axis=0)
    views = augment(doubled, config, rng)
    source = np.repeat(np.arange(X.shape[0], dtype=np.int64), 2)
    view_labels = None if labels is None else np.repeat(np.asarray(labels, dtype=np.int64), 2)
    return ViewBatch(views, source, view_labels)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _similarity_logits(Z: np.ndarray, temperature: float):
    s = (Z @ Z.T) / temperature
    np.fill_diagonal(s, -np.inf)
    softmax, log_denom = row_softmax(s)
    return s, log_denom, softmax


def ntxent_loss(views: np.ndarray, temperature: float):
    """Self-supervised contrastive loss over interleaved view pairs.

    Each view's positive is its partner; all other views are negatives.
    Returns the mean loss over all 2B anchors and the exact gradient with
    respect to the (unit-norm) view embeddings.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be positive")
    Z = np.asarray(views, dtype=np.float64)
    n = Z.shape[0]
    if n < 4 or n % 2 != 0:
        raise ContrastiveError("need an even number of views, at least 4")
    partner = np.arange(n) ^ 1
    s, log_denom, softmax = _similarity_logits(Z, temperature)
    loss = float((log_denom - s[np.arange(n), partner]).mean())
    g = softmax.copy()
    g[np.arange(n), partner] -= 1.0
    g /= n
    grad = (g @ Z + g.T @ Z) / temperature
    return loss, grad


def supcon_loss(views: np.ndarray, labels, temperature: float):
    """Supervised contrastive loss: all same-label views are positives.

    Every view must have at least one other view of its label in the
    batch. Mean over anchors, exact gradient with respect to the view
    embeddings. Collapses to the self-supervised loss when each anchor
    has exactly one positive.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be positive")
    Z = np.asarray(views, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = Z.shape[0]
    if y.shape[0] != n:
        raise ContrastiveError("every view needs a label")
    pos = (y[:, None] == y[None, :]) & ~np.eye(n, dtype=bool)
    counts = pos.sum(axis=1)
    if (counts == 0).any():
        lonely = int(np.argmax(counts == 0))
        raise ContrastiveError(
            f"view {lonely} (label {y[lonely]}) has no positive in the batch"
        )
    s, log_denom, softmax = _similarity_logits(Z, temperature)
    per_anchor = log_denom - (np.where(pos, s, 0.0).sum(axis=1) / counts)
    loss = float(per_anchor.mean())
    g = softmax - pos / counts[:, None]
    g /= n
    grad = (g @ Z + g.T @ Z) / temperature
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class _AdamW:
    """Adam with decoupled weight decay over a named parameter dict."""

    def __init__(self, params: EncoderParams, weight_decay: float):
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays().items()}
        self.t = 0

    def step(self, params: EncoderParams, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, g in grads.items():
            theta = getattr(params, name)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            theta -= lr * (update + self.weight_decay * theta)


def _cosine_lr(config: TrainConfig, epoch: int) -> float:
    lr_min = config.learning_rate / MIN_LR_DIVISOR
    frac = min(epoch / max(config.epochs, 1), 1.0)
    return lr_min + 0.5 * (config.learning_rate - lr_min) * (1.0 + np.cos(np.pi * frac))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _resolve_augment(config: TrainConfig, X: np.ndarray) -> AugmentConfig:
    aug = config.augment
    if aug.feature_scale is not None:
        return aug
    return replace(aug, feature_scale=safe_std(X))


def _batch_slices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    # A trailing singleton batch cannot form the 4-view minimum, so it is
    # folded into the previous batch.
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _batch_loss(mode: str, X: np.ndarray, y, aug: AugmentConfig,
                temperature: float, rng, params: EncoderParams,
                with_grads: bool):
    batch = make_view_batch(X, y, aug, rng)
    cache = _forward(params, batch.views)
    if mode == "simclr":
        loss, d_head = ntxent_loss(cache["head"], temperature)
    else:
        loss, d_head = supcon_loss(cache["head"], batch.labels, temperature)
    if not with_grads:
        return loss, None
    return loss, _backward(params, cache, d_head)


def train(mode: str, data: Dataset, split: SplitAssignment,
          config: TrainConfig) -> EncoderParams:
    """Train the encoder contrastively and return the best checkpoint.

    mode "simclr" trains label-free on the supervised plus unsupervised
    roles; mode "supcon" trains label-aware on the supervised role only.
    A held-out slice of the training role set (validation_fraction, at
    least one sample, leaving at least two for training) scores each
    epoch; the parameters with the lowest validation loss win, earliest
    epoch on ties. With fewer than three training samples the epoch's
    mean training loss is used for selection instead.
    """
    config.validate()
    if mode == "simclr":
        idx = role_indices(split, (Role.SUPERVISED, Role.UNSUPERVISED))
        labels = None
    elif mode == "supcon":
        if not data.has_labels:
            raise ContrastiveError("supervised contrastive training requires labels")
        idx = role_indices(split, (Role.SUPERVISED,))
        labels = data.labels[idx]
    else:
        raise ContrastiveError(f"unknown training mode {mode!r}")
    if idx.size == 0:
        raise ContrastiveError("empty training role set")
    X = data.features[idx]
    return _train_on(mode, X, labels, config)


def finetune_supcon(params: EncoderParams, data: Dataset, split: SplitAssignment,
                    config: TrainConfig) -> EncoderParams:
    """Continue training label-aware on the supervised role from given weights."""
    if not data.has_labels:
        raise ContrastiveError("supervised contrastive training requires labels")
    idx = role_indices(split, (Role.SUPERVISED,))
    if idx.size == 0:
        raise ContrastiveError("empty training role set")
    cfg = replace(config, warm_start=params)
    return _train_on("supcon", data.features[idx], data.labels[idx], cfg)


def _train_on(mode: str, X: np.ndarray, labels, config: TrainConfig) -> EncoderParams:
    rng = np.random.default_rng(config.seed)
    if config.warm_start is not None:
        params = config.warm_start.copy()
        if params.input_dim != X.shape[1]:
            raise ContrastiveError(
                f"warm-start dimension {params.input_dim} != data dimension {X.shape[1]}"
            )
    else:
        params = init_params(X.shape[1], config, rng)
    if config.epochs == 0:
        return params

    aug = _resolve_augment(config, X)
    m = X.shape[0]
    perm = rng.permutation(m)
    # The pair loss needs 4 views (2 samples) per evaluation in simclr
    # mode, 2 views (1 sample) in supcon mode; keep both the validation
    # slice and the remaining training set above those floors.
    val_floor = 2 if mode == "simclr" else 1
    n_val = int(round(config.validation_fraction * m))
    n_val = min(max(n_val, val_floor), m - 2)
    if m < val_floor + 2:
        n_val = 0
    val_local = perm[:n_val]
    train_local = perm[n_val:]

    optimizer = _AdamW(params, config.weight_decay)
    best = params.copy()
    best_score = np.inf
    for epoch in range(config.epochs):
        lr = _cosine_lr(config, epoch)
        order = rng.permutation(train_local)
        epoch_losses = []
        for chunk in _batch_slices(order, config.batch_size):
            y_chunk = None if labels is None else labels[chunk]
            loss, grads = _batch_loss(mode, X[chunk], y_chunk, aug,
                                      config.temperature, rng, params, True)
            epoch_losses.append(loss)
            optimizer.step(params, grads, lr)
        if n_val > 0:
            y_val = None if labels is None else labels[val_local]
            score, _ = _batch_loss(mode, X[val_local], y_val, aug,
                                   config.temperature, rng, params, False)
        else:
            score = float(np.mean(epoch_losses))
        if score < best_score:
            best_score = score
            best = params.copy()
    return best
