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

Training keeps two flat float64 buffers of one layout: `EncoderParams.flat`
holds the eight weight and bias arrays back to back in `_FIELDS` order
(each field is a view into it), and a twin buffer of the same layout
receives every gradient of a step. AdamW's two moments are flat too, so an
update is one elementwise pass and a best-epoch snapshot is one buffer
copy, with the same float operations as a per-array loop. The validation
pass computes the loss only: no softmax division, no embedding gradient,
no backward pass. Overflow during training or encoding raises
ContrastiveError rather than yielding non-finite weights or features.
"""

from __future__ import annotations

import math
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


class EncoderParams:
    """Encoder and head weights. w*/b* encode, v*/c* project.

    The eight arrays are views into one float64 buffer, `flat`, laid out
    in _FIELDS order. Write into them in place (`p.w1[...] = x`); binding
    a field to a new array would detach it from `flat`.
    """

    _FIELDS = ("w1", "b1", "w2", "b2", "v1", "c1", "v2", "c2")

    def __init__(self, w1, b1, w2, b2, v1, c1, v2, c2):
        self._bind(*pack((w1, b1, w2, b2, v1, c1, v2, c2)))

    def _bind(self, flat: np.ndarray, views) -> None:
        self.flat = flat
        for name, view in zip(self._FIELDS, views):
            setattr(self, name, view)

    def _like(self, flat: np.ndarray) -> "EncoderParams":
        """Parameters of this layout whose arrays are views into `flat`."""
        params = EncoderParams.__new__(EncoderParams)
        params._bind(*flat_views([arr.shape for arr in self.arrays().values()], flat))
        return params

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def copy(self) -> "EncoderParams":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "EncoderParams":
        """Zeroed arrays of the same layout, e.g. a gradient buffer."""
        return self._like(np.zeros_like(self.flat))

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
    a = X @ w1
    a += b1
    h = np.maximum(a, 0.0)
    out = h @ w2
    out += b2
    return a, h, out


def relu_mlp_backward(X: np.ndarray, a: np.ndarray, h: np.ndarray, w2: np.ndarray,
                      d_out: np.ndarray, grads) -> np.ndarray:
    """Gradients of relu_mlp, written into grads = (d_w1, d_b1, d_w2, d_b2).

    Returns d_a, the gradient of the pre-activation; d_a @ w1.T continues
    the chain into the block's input.
    """
    d_w1, d_b1, d_w2, d_b2 = grads
    np.matmul(h.T, d_out, out=d_w2)
    d_out.sum(axis=0, out=d_b2)
    d_a = d_out @ w2.T
    d_a *= a > 0
    np.matmul(X.T, d_a, out=d_w1)
    d_a.sum(axis=0, out=d_b1)
    return d_a


def row_softmax(s: np.ndarray, with_probs: bool = True):
    """Row-wise softmax of s and its log-normalizer log(sum(exp(s), axis=1)).

    Works in place: s is overwritten with exp(s - row max) and then with
    the probabilities, which are returned as s itself, or as None when
    with_probs is false.
    """
    row_max = s.max(axis=1, keepdims=True)
    s -= row_max
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    log_norm = (np.log(total) + row_max)[:, 0]
    if not with_probs:
        return None, log_norm
    s /= total
    return s, log_norm


def flat_views(shapes, flat: np.ndarray | None = None):
    """(flat, views): one float64 buffer and a view of it per shape, in order.

    A zeroed buffer is made unless `flat` is given. An optimizer steps the
    buffer in one elementwise pass instead of one per array.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    if flat is None:
        flat = np.zeros(sum(sizes))
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return flat, views


def pack(arrays):
    """Copy arrays into one new float64 buffer: (flat, views) as flat_views."""
    arrays = [np.asarray(arr, dtype=np.float64) for arr in arrays]
    flat, views = flat_views([arr.shape for arr in arrays])
    for view, arr in zip(views, arrays):
        view[...] = arr
    return flat, views


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
    ok = norms > _NORM_EPS
    if ok.all():
        head = raw
        head /= norms[:, None]
    else:
        head = np.empty_like(raw)
        head[ok] = raw[ok] / norms[ok, None]
        # Degenerate zero-norm rows map to the first basis vector.
        head[~ok] = 0.0
        head[~ok, 0] = 1.0
    return {"x": X, "a1": a1, "h1": h1, "latent": latent, "a2": a2,
            "h2": h2, "norms": norms, "ok": ok, "head": head}


def _backward(params: EncoderParams, cache: dict, d_head: np.ndarray,
              grads: EncoderParams) -> EncoderParams:
    """Write the gradient of every parameter into grads and return it."""
    head, norms, ok = cache["head"], cache["norms"], cache["ok"]
    if ok.all():
        inner = (d_head * head).sum(axis=1, keepdims=True)
        d_raw = (d_head - inner * head) / norms[:, None]
    else:
        # Degenerate rows are constant in raw, so their gradient is zero.
        d_raw = np.zeros_like(d_head)
        inner = (d_head[ok] * head[ok]).sum(axis=1, keepdims=True)
        d_raw[ok] = (d_head[ok] - inner * head[ok]) / norms[ok, None]
    d_a2 = relu_mlp_backward(cache["latent"], cache["a2"], cache["h2"], params.v2, d_raw,
                             (grads.v1, grads.c1, grads.v2, grads.c2))
    relu_mlp_backward(cache["x"], cache["a1"], cache["h1"], params.w2, d_a2 @ params.v1.T,
                      (grads.w1, grads.b1, grads.w2, grads.b2))
    return grads


def _check_width(params: EncoderParams, X: np.ndarray) -> None:
    if X.shape[1] != params.input_dim:
        raise ContrastiveError(
            f"input dimension {X.shape[1]} != encoder dimension {params.input_dim}"
        )


def _finite_latent(latent: np.ndarray) -> np.ndarray:
    if not np.isfinite(latent).all():
        raise ContrastiveError("latent features are not finite (the encoder overflows)")
    return latent


def encode(params: EncoderParams, x):
    """Forward pass returning (latent, unit-norm head output)."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    _check_width(params, X)
    with np.errstate(over="ignore", invalid="ignore"):
        cache = _forward(params, X)
    latent, head = _finite_latent(cache["latent"]), cache["head"]
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
    with np.errstate(over="ignore", invalid="ignore"):
        latent = relu_mlp(X, params.w1, params.b1, params.w2, params.b2)[2]
    return _finite_latent(latent)


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
    scale = np.asarray(scale, dtype=np.float64)
    # Training resolves a per-feature vector once; broadcasting it per
    # batch would cost more than the noise it scales.
    return scale if scale.shape == (dim,) else np.broadcast_to(scale, (dim,))


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

def _similarity_logits(Z: np.ndarray, temperature: float) -> np.ndarray:
    """Z Z^T / temperature with -inf on the diagonal."""
    s = Z @ Z.T
    s /= temperature
    np.fill_diagonal(s, -np.inf)
    return s


def ntxent_loss(views: np.ndarray, temperature: float, with_grad: bool = True):
    """Self-supervised contrastive loss over interleaved view pairs.

    Each view's positive is its partner; all other views are negatives.
    Returns the mean loss over all 2B anchors and the exact gradient with
    respect to the (unit-norm) view embeddings, or None in its place when
    with_grad is false. The loss is the same either way.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be positive")
    Z = np.asarray(views, dtype=np.float64)
    n = Z.shape[0]
    if n < 4 or n % 2 != 0:
        raise ContrastiveError("need an even number of views, at least 4")
    rows = np.arange(n)
    partner = rows ^ 1
    s = _similarity_logits(Z, temperature)
    positive = s[rows, partner]
    g, log_denom = row_softmax(s, with_grad)
    loss = float((log_denom - positive).mean())
    if not with_grad:
        return loss, None
    g[rows, partner] -= 1.0
    g /= n
    grad = (g @ Z + g.T @ Z) / temperature
    return loss, grad


def supcon_loss(views: np.ndarray, labels, temperature: float, with_grad: bool = True):
    """Supervised contrastive loss: all same-label views are positives.

    Every view must have at least one other view of its label in the
    batch. Mean over anchors, exact gradient with respect to the view
    embeddings (None when with_grad is false). Collapses to the
    self-supervised loss when each anchor has exactly one positive.
    """
    if temperature <= 0:
        raise ContrastiveError("temperature must be positive")
    Z = np.asarray(views, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = Z.shape[0]
    if y.shape[0] != n:
        raise ContrastiveError("every view needs a label")
    pos = y[:, None] == y[None, :]
    np.fill_diagonal(pos, False)
    counts = pos.sum(axis=1)
    if (counts == 0).any():
        lonely = int(np.argmax(counts == 0))
        raise ContrastiveError(
            f"view {lonely} (label {y[lonely]}) has no positive in the batch"
        )
    s = _similarity_logits(Z, temperature)
    positive = np.where(pos, s, 0.0).sum(axis=1) / counts
    g, log_denom = row_softmax(s, with_grad)
    per_anchor = log_denom - positive
    loss = float(per_anchor.mean())
    if not with_grad:
        return loss, None
    g -= pos / counts[:, None]
    g /= n
    grad = (g @ Z + g.T @ Z) / temperature
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class _AdamW:
    """Adam with decoupled weight decay, one elementwise pass over the flat buffer."""

    def __init__(self, params: EncoderParams, weight_decay: float):
        self.weight_decay = weight_decay
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, params: EncoderParams, grads: EncoderParams, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        g, m, v, theta = grads.flat, self.m, self.v, params.flat
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
    scale = safe_std(X)
    if not np.isfinite(scale).all():
        raise ContrastiveError("the standard deviation of the training features overflows float64")
    return replace(aug, feature_scale=scale)


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
                grads: EncoderParams | None) -> float:
    """Loss of one view batch; with a grads buffer, also its gradients into it.

    Without one (validation) only the loss is computed: no softmax
    division, no embedding gradient and no backward pass.
    """
    batch = make_view_batch(X, y, aug, rng)
    cache = _forward(params, batch.views)
    with_grad = grads is not None
    if mode == "simclr":
        loss, d_head = ntxent_loss(cache["head"], temperature, with_grad)
    else:
        loss, d_head = supcon_loss(cache["head"], batch.labels, temperature, with_grad)
    if with_grad:
        _backward(params, cache, d_head, grads)
    return loss


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


# Overflow shows up as a non-finite statistic, loss or parameter, which is
# raised as a ContrastiveError (naming the epoch) instead of a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
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
    grads = params.zeros_like()
    best = params.copy()
    best_score = np.inf
    for epoch in range(config.epochs):
        lr = _cosine_lr(config, epoch)
        order = rng.permutation(train_local)
        epoch_losses = []
        for chunk in _batch_slices(order, config.batch_size):
            y_chunk = None if labels is None else labels[chunk]
            loss = _batch_loss(mode, X[chunk], y_chunk, aug,
                               config.temperature, rng, params, grads)
            _check_finite(loss, epoch, "training loss")
            epoch_losses.append(loss)
            optimizer.step(params, grads, lr)
        if not np.isfinite(params.flat).all():
            raise ContrastiveError(f"epoch {epoch}: parameters are not finite")
        if n_val > 0:
            y_val = None if labels is None else labels[val_local]
            score = _batch_loss(mode, X[val_local], y_val, aug,
                                config.temperature, rng, params, None)
            _check_finite(score, epoch, "validation loss")
        else:
            score = float(np.mean(epoch_losses))
        if score < best_score:
            best_score = score
            best = params.copy()
    return best


def _check_finite(loss: float, epoch: int, what: str) -> None:
    if not math.isfinite(loss):
        raise ContrastiveError(f"epoch {epoch}: {what} is not finite ({loss})")
