"""Desk-scale contrastive representation learning with exact gradients.

A small feedforward encoder (input -> hidden ReLU -> latent) feeds a
projection head (latent -> hidden ReLU -> L2-normalized output). Two
augmented views per sample are pushed through encoder and head; the view
pair loss is the normalized-temperature cross entropy, either in its
self-supervised form (the partner view is the only positive) or the
supervised form (every same-label view is a positive). Both forms share
one body that takes, per view, the sum of its positives and their count:
the positive logit is a row dot product with that sum, so no B x B label
mask is built, and the gradient is two products of the unnormalized
softmax with the views, so the softmax is never divided out. Training is
plain numpy: manual backpropagation, decoupled-weight-decay Adam, a cosine
learning-rate schedule, and best-checkpoint selection by validation loss.
The latent output is what downstream stages consume; the head output
exists only inside the losses.

One flat TrainConfig holds every setting. SimCLR, SupCon and their
combination (SupCon from SimCLR weights) share one training path over
rows, which trains label-free exactly when it is given no labels and starts
from `init` weights when given. The head normalization takes one
masked path: zero-norm rows become the first basis vector, with zero gradient.

Training keeps two flat float64 buffers of one layout: `EncoderParams.flat`
holds the eight weight and bias arrays back to back in `_FIELDS` order
(each field is a view into it), and a twin buffer of the same layout
receives every gradient of a step. AdamW's two moments are flat too, so an
update is one elementwise pass and a best-epoch snapshot is one buffer
copy, with the same float operations as a per-array loop. The validation
pass computes the loss only: no embedding gradient, no backward pass.
Overflow during training or encoding raises ContrastiveError rather than
yielding non-finite weights or features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .dataset import (Dataset, EplError, Role, SplitAssignment, check_at_least, check_finite,
                      check_labels, check_non_negative, check_positive, whole_numbers)

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


class ContrastiveError(EplError):
    """Raised for invalid batches, labels, or configurations."""


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built. A view is Gaussian jitter of
    std noise times the training rows' per-feature std, then coordinate
    dropout at rate dropout."""

    epochs: int = 50
    batch_size: int = 64
    temperature: float = 0.07
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    noise: float = 0.1
    dropout: float = 0.1
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_at_least("epochs", self.epochs, 0, ContrastiveError)
        check_at_least("batch_size", self.batch_size, 2, ContrastiveError)
        check_at_least("seed", self.seed, 0, ContrastiveError)
        for name in ("temperature", "learning_rate"):
            check_positive(name, getattr(self, name), ContrastiveError)
        for name in ("weight_decay", "noise"):
            check_non_negative(name, getattr(self, name), ContrastiveError)
        if not 0.0 <= self.dropout < 1.0:
            raise ContrastiveError(f"dropout must be in [0, 1), got {self.dropout}")
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

    def __reduce__(self):
        # Pickled as its arrays, so the copy's fields are views into one new `flat`.
        return EncoderParams, tuple(self.arrays().values())

    def _like(self, flat: np.ndarray) -> "EncoderParams":
        """Parameters of this layout whose arrays are views into `flat`."""
        params = EncoderParams.__new__(EncoderParams)
        params._bind(*flat_views([arr.shape for arr in self.arrays().values()], flat))
        return params

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def copy(self) -> "EncoderParams":
        return self._like(self.flat.copy())

    def zeros_like(self) -> "EncoderParams":
        """Zeroed arrays of the same layout, e.g. a gradient buffer."""
        return self._like(np.zeros_like(self.flat))

    def save(self, path, config_lines: dict) -> None:
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
            check_finite(arrays[name], ContrastiveError, f"{path}: a value in {name}")
        return cls(**{f: arrays[f] for f in cls._FIELDS})


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


def _row_exp(s: np.ndarray):
    """In place: s becomes exp(s - row max). Returns (row sums of the new s,
    log-normalizer log(sum(exp(old s), axis=1))); the sums are a column."""
    row_max = s.max(axis=1, keepdims=True)
    s -= row_max
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    log_norm = (np.log(total) + row_max)[:, 0]
    return total, log_norm


def row_softmax(s: np.ndarray):
    """Row-wise softmax of s and its log-normalizer log(sum(exp(s), axis=1)).

    Works in place: s is overwritten with the probabilities, which are
    returned as s itself.
    """
    total, log_norm = _row_exp(s)
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


def safe_std(X: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Per-column standard deviation, 1 where a column is constant; ``error``
    when a finite column's deviation overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = X.std(axis=0)
    check_finite(scale, error, "float64 overflow: the standard deviation of a feature")
    scale[scale == 0] = 1.0
    return scale


def init_params(input_dim: int, rng) -> EncoderParams:
    return EncoderParams(
        w1=he_uniform(rng, input_dim, HIDDEN_DIM),
        b1=np.zeros(HIDDEN_DIM),
        w2=he_uniform(rng, HIDDEN_DIM, LATENT_DIM),
        b2=np.zeros(LATENT_DIM),
        v1=he_uniform(rng, LATENT_DIM, HEAD_HIDDEN_DIM),
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
    # The zero-norm mask, for this pass and the backward one.
    zero = ~(norms > _NORM_EPS)
    safe_norms = np.where(zero, 1.0, norms)
    head = raw
    head /= safe_norms[:, None]
    # Degenerate zero-norm rows map to the first basis vector.
    head[zero] = 0.0
    head[zero, 0] = 1.0
    return {"x": X, "a1": a1, "h1": h1, "latent": latent, "a2": a2,
            "h2": h2, "safe_norms": safe_norms, "zero": zero, "head": head}


def _backward(params: EncoderParams, cache: dict, d_head: np.ndarray,
              grads: EncoderParams) -> EncoderParams:
    """Write the gradient of every parameter into grads and return it."""
    head = cache["head"]
    inner = (d_head * head).sum(axis=1, keepdims=True)
    d_raw = (d_head - inner * head) / cache["safe_norms"][:, None]
    # Degenerate rows are constant in raw, so their gradient is zero.
    d_raw[cache["zero"]] = 0.0
    d_a2 = relu_mlp_backward(cache["latent"], cache["a2"], cache["h2"], params.v2, d_raw,
                             (grads.v1, grads.c1, grads.v2, grads.c2))
    relu_mlp_backward(cache["x"], cache["a1"], cache["h1"], params.w2, d_a2 @ params.v1.T,
                      (grads.w1, grads.b1, grads.w2, grads.b2))
    return grads


def extract_features(params: EncoderParams, data: Dataset, indices) -> np.ndarray:
    """Latent features of the dataset rows at ``indices``, in that order; each
    index must be a whole number in [0, sample_count)."""
    X = data.features[check_labels(indices, None, ContrastiveError, data.sample_count)]
    if X.shape[1] != params.input_dim:
        raise ContrastiveError(
            f"input dimension {X.shape[1]} != encoder dimension {params.input_dim}"
        )
    # The encoder block alone: the projection head is not needed here.
    with np.errstate(over="ignore", invalid="ignore"):
        latent = relu_mlp(X, params.w1, params.b1, params.w2, params.b2)[2]
    return check_finite(latent, ContrastiveError, "float64 overflow: a latent feature")


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def augment(x, noise: float, dropout: float, scale, rng) -> np.ndarray:
    """One augmented view: Gaussian noise of std noise * scale per coordinate,
    then coordinate dropout at rate dropout."""
    x = np.asarray(x, dtype=np.float64)
    noisy = x + noise * scale * rng.standard_normal(x.shape)
    keep = rng.random(x.shape) >= dropout
    return noisy * keep


def make_view_batch(X: np.ndarray, labels, noise: float, dropout: float, scale, rng):
    """(views, view labels): two views per row, interleaved so views 2t and
    2t+1 share source t; the labels are None when ``labels`` is."""
    doubled = np.repeat(X, 2, axis=0)
    views = augment(doubled, noise, dropout, scale, rng)
    view_labels = None if labels is None else np.repeat(np.asarray(labels, dtype=np.int64), 2)
    return views, view_labels


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _pair_loss(Z: np.ndarray, pos_sum: np.ndarray, counts, temperature: float,
               with_grad: bool):
    """Mean over anchors of log(sum_{a != i} exp(s_ia)) - mean positive logit.

    s = Z Z^T / temperature. pos_sum[i] is the sum of view i's positives
    and counts[i] their number (or counts one number for every view), so
    the positive logit needs no B x B mask.
    The gradient with respect to Z, for a symmetric positive relation, is
    ((E Z) / r + E^T (Z / r) - 2 pos_sum / counts) / (n temperature), where
    E = exp(s - row max) and r its row sums: two B x B x d products and no
    softmax division.
    """
    n = Z.shape[0]
    s = Z @ (Z.T / temperature)
    np.fill_diagonal(s, -np.inf)
    positive = (Z * pos_sum).sum(axis=1) / (temperature * counts)
    total, log_denom = _row_exp(s)  # s now holds E
    loss = float((log_denom - positive).sum() / n)
    if not with_grad:
        return loss, None
    grad = s @ Z
    grad /= total
    grad += s.T @ (Z / total)
    grad -= np.reshape(2.0 / counts, (-1, 1)) * pos_sum
    grad /= n * temperature
    return loss, grad


def ntxent_loss(views: np.ndarray, temperature: float, with_grad: bool):
    """Self-supervised contrastive loss over interleaved view pairs.

    Each view's positive is its partner; all other views are negatives.
    Returns the mean loss over all 2B anchors and the exact gradient with
    respect to the (unit-norm) view embeddings, or None in its place when
    with_grad is false. The loss is the same either way.
    """
    check_positive("temperature", temperature, ContrastiveError)
    Z = np.asarray(views, dtype=np.float64)
    n = Z.shape[0]
    if n < 4 or n % 2 != 0:
        raise ContrastiveError("need an even number of views, at least 4")
    # Each view's partner: the rows of Z with every pair swapped.
    partners = Z.reshape(n // 2, 2, -1)[:, ::-1].reshape(Z.shape)
    return _pair_loss(Z, partners, 1.0, temperature, with_grad)


def supcon_loss(views: np.ndarray, labels, temperature: float, with_grad: bool):
    """Supervised contrastive loss: all same-label views are positives.

    Every view must have at least one other view of its label in the
    batch. Mean over anchors, exact gradient with respect to the view
    embeddings (None when with_grad is false). Collapses to the
    self-supervised loss when each anchor has exactly one positive.
    """
    check_positive("temperature", temperature, ContrastiveError)
    Z = np.asarray(views, dtype=np.float64)
    y = whole_numbers(labels, ContrastiveError)
    n = Z.shape[0]
    if y.shape != (n,):
        raise ContrastiveError("every view needs a label")
    classes, inverse = np.unique(y, return_inverse=True)
    members = np.zeros((classes.size, n))
    members[inverse, np.arange(n)] = 1.0
    counts = np.bincount(inverse)[inverse] - 1
    if (counts == 0).any():
        lonely = int(np.argmax(counts == 0))
        raise ContrastiveError(
            f"view {lonely} (label {y[lonely]}) has no positive in the batch"
        )
    pos_sum = (members @ Z)[inverse]
    pos_sum -= Z
    return _pair_loss(Z, pos_sum, counts, temperature, with_grad)


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

def _batch_slices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    # A trailing singleton batch cannot form the 4-view minimum, so it is
    # folded into the previous batch.
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _batch_loss(X: np.ndarray, y, config: TrainConfig, scale: np.ndarray, rng,
                params: EncoderParams, grads: EncoderParams | None) -> float:
    """Loss of one view batch: self-supervised when ``y`` is None, else
    supervised by ``y``. With a grads buffer, also its gradients into it.

    Without one (validation) only the loss is computed: no embedding
    gradient and no backward pass.
    """
    views, view_labels = make_view_batch(X, y, config.noise, config.dropout, scale, rng)
    cache = _forward(params, views)
    with_grad = grads is not None
    if y is None:
        loss, d_head = ntxent_loss(cache["head"], config.temperature, with_grad)
    else:
        loss, d_head = supcon_loss(cache["head"], view_labels, config.temperature, with_grad)
    if with_grad:
        _backward(params, cache, d_head, grads)
    return loss


def train(mode: str, data: Dataset, split: SplitAssignment, config: TrainConfig,
          init: EncoderParams | None = None) -> EncoderParams:
    """Train the encoder contrastively and return the best checkpoint.

    mode "simclr" trains label-free on the supervised plus unsupervised
    roles; mode "supcon" trains label-aware on the supervised role only.
    Training starts from a copy of init when given (a warm start), else
    from seeded random weights. A held-out slice of the training role set
    (validation_fraction, at least one sample, leaving at least two for
    training) scores each epoch; the parameters with the lowest validation
    loss win, earliest epoch on ties. With fewer than three training
    samples the epoch's mean training loss is used for selection instead.
    """
    if mode == "simclr":
        return _train(data, split.indices(Role.SUPERVISED, Role.UNSUPERVISED), None,
                      config, init)
    if mode == "supcon":
        return _train(data, *_supervised_rows(data, split), config, init)
    raise ContrastiveError(f"unknown training mode {mode!r}")


def finetune_supcon(params: EncoderParams, data: Dataset, split: SplitAssignment,
                    config: TrainConfig) -> EncoderParams:
    """Continue training label-aware on the supervised role from given weights."""
    return _train(data, *_supervised_rows(data, split), config, params)


def _supervised_rows(data: Dataset, split: SplitAssignment):
    """The supervised role's indices and labels."""
    if not data.has_labels:
        raise ContrastiveError("supervised contrastive training requires labels")
    return split.supervised, data.labels[split.supervised]


# Overflow shows up as a non-finite statistic, loss or parameter, which is
# raised as a ContrastiveError (naming the epoch) instead of a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def _train(data: Dataset, idx: np.ndarray, labels: np.ndarray | None, config: TrainConfig,
           init: EncoderParams | None) -> EncoderParams:
    """Train on the dataset rows ``idx``, supervised by ``labels`` unless it is None."""
    if idx.size == 0:
        raise ContrastiveError("empty training role set")
    X = data.features[idx]

    rng = np.random.default_rng(config.seed)
    if init is not None:
        params = init.copy()
        if params.input_dim != X.shape[1]:
            raise ContrastiveError(
                f"warm-start dimension {params.input_dim} != data dimension {X.shape[1]}"
            )
    else:
        params = init_params(X.shape[1], rng)
    if config.epochs == 0:
        return params

    scale = safe_std(X, ContrastiveError)
    m = X.shape[0]
    perm = rng.permutation(m)
    # The pair loss needs 4 views (2 samples) per label-free evaluation and
    # 2 views (1 sample) per supervised one; keep both the validation slice
    # and the remaining training set above those floors.
    val_floor = 2 if labels is None else 1
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
            loss = _batch_loss(X[chunk], y_chunk, config, scale, rng, params, grads)
            epoch_losses.append(check_finite(loss, ContrastiveError,
                                             f"epoch {epoch}: training loss"))
            optimizer.step(params, grads, lr)
        check_finite(params.flat, ContrastiveError, f"epoch {epoch}: a parameter")
        if n_val > 0:
            y_val = None if labels is None else labels[val_local]
            score = check_finite(
                _batch_loss(X[val_local], y_val, config, scale, rng, params, None),
                ContrastiveError, f"epoch {epoch}: validation loss")
        else:
            score = float(np.mean(epoch_losses))
        if score < best_score:
            best_score = score
            best = params.copy()
    return best
