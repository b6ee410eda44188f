"""Downstream classifiers trained on true or pseudo labels.

Two probes: a one-vs-rest L2-regularized hinge classifier fitted by
deterministic full-batch subgradient descent (the linear-separability
check), and a single-hidden-layer softmax network fitted by minibatch SGD
with momentum and a linearly decaying step (the pseudo-label consumer).
Prediction is always argmax over class scores with ties resolved to the
lower class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrastive import (flat_views, he_uniform, pack, relu_mlp, relu_mlp_backward,
                          row_softmax, safe_std)
from .dataset import (EplError, check_at_least, check_finite, check_labels, check_matrix,
                      check_non_negative, check_positive)


class ProbeError(EplError):
    """Raised for unusable training inputs."""


# The linear probe's defaults, shared by train_linear and ExperimentConfig.
LINEAR_LAMBDA = 1.0
LINEAR_EPOCHS = 200
# The linear probe's first step; epoch t steps _FIRST_STEP / sqrt(t).
_FIRST_STEP = 1e-3


def check_lambda(lam: float) -> None:
    """A lambda the linear probe converges for: each step scales the weights
    by 1 - step x lambda, which stops contracting once step x lambda reaches 2."""
    check_non_negative("lambda", lam, ProbeError)
    if _FIRST_STEP * lam >= 2.0:
        raise ProbeError(f"lambda {lam} is too large: the first step {_FIRST_STEP} x lambda "
                         f"reaches 2, so the linear probe would diverge")


def _training_set(features, labels, class_count: int):
    """Finite float64 features and int64 labels in [0, class_count), one per row."""
    X = check_matrix(features, ProbeError)
    return X, check_labels(labels, X.shape[0], ProbeError, class_count)


# ---------------------------------------------------------------------------
# Linear probe
# ---------------------------------------------------------------------------

@dataclass
class LinearModel:
    weights: np.ndarray  # (k, d)
    bias: np.ndarray     # (k,)
    objective_trace: np.ndarray

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.bias


@np.errstate(over="ignore", invalid="ignore")
def train_linear(features, labels, lam: float, epochs: int, class_count: int) -> LinearModel:
    """One-vs-rest hinge loss with an epoch-wise _FIRST_STEP / sqrt(t) step.

    Full-batch subgradient descent from zero weights, so the fit is
    deterministic and takes no seed. The per-epoch regularized objective
    is kept on the model; a score that overflows leaves it non-finite: ProbeError.
    """
    check_at_least("epochs", epochs, 0, ProbeError)
    check_lambda(lam)
    X, y = _training_set(features, labels, class_count)
    k = class_count
    if np.unique(y).size < 2:
        raise ProbeError("training set must contain at least 2 classes")
    n, d = X.shape
    target = np.full((n, k), -1.0)
    target[np.arange(n), y] = 1.0
    W = np.zeros((k, d))
    b = np.zeros(k)
    trace = np.empty(epochs)
    # The scores after an update give both its objective and the next epoch's margins.
    scores = X @ W.T + b
    for t in range(1, epochs + 1):
        step = _FIRST_STEP / np.sqrt(t)
        margins = target * scores
        viol = margins < 1.0
        coeff = target * viol
        grad_w = -(coeff.T @ X) / n + lam * W
        grad_b = -coeff.sum(axis=0) / n
        W -= step * grad_w
        b -= step * grad_b
        scores = X @ W.T + b
        hinge = np.maximum(0.0, 1.0 - target * scores).mean(axis=0)
        trace[t - 1] = float((hinge + 0.5 * lam * (W ** 2).sum(axis=1)).mean())
    check_finite(trace, ProbeError, "float64 overflow: the linear probe's objective")
    return LinearModel(W, b, trace)


# ---------------------------------------------------------------------------
# Softmax probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftmaxConfig:
    """Softmax probe settings, checked when built."""

    epochs: int = 15
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("hidden_dim", 1), ("seed", 0)):
            check_at_least(name, getattr(self, name), low, ProbeError)
        check_positive("learning_rate", self.learning_rate, ProbeError)
        check_non_negative("momentum", self.momentum, ProbeError)


@dataclass
class SoftmaxModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    # Input standardization fitted on the training set; the 0.1 step with
    # 0.9 momentum assumes unit-scale inputs and diverges without it.
    mean: np.ndarray
    scale: np.ndarray

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale

    def scores(self, X: np.ndarray) -> np.ndarray:
        return relu_mlp(self._standardize(X), self.w1, self.b1, self.w2, self.b2)[2]


def _init_softmax(X: np.ndarray, k: int, config: SoftmaxConfig, rng) -> SoftmaxModel:
    """Seeded weights and the standardization of the training features X."""
    return SoftmaxModel(
        w1=he_uniform(rng, X.shape[1], config.hidden_dim),
        b1=np.zeros(config.hidden_dim),
        w2=he_uniform(rng, config.hidden_dim, k),
        b2=np.zeros(k),
        mean=X.mean(axis=0),
        scale=safe_std(X, ProbeError),
    )


def _softmax_loss_grads(model: SoftmaxModel, X: np.ndarray, y: np.ndarray, grads) -> float:
    """Mean cross-entropy; writes (d_w1, d_b1, d_w2, d_b2) into grads."""
    a1, h1, scores = relu_mlp(X, model.w1, model.b1, model.w2, model.b2)
    probs, _ = row_softmax(scores)
    n = X.shape[0]
    loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())
    d_scores = probs
    d_scores[np.arange(n), y] -= 1.0
    d_scores /= n
    relu_mlp_backward(X, a1, h1, model.w2, d_scores, grads)
    return loss


@np.errstate(over="ignore", invalid="ignore")
def train_softmax(features, labels, config: SoftmaxConfig, class_count: int) -> SoftmaxModel:
    """Cross-entropy training with momentum SGD and a linear step decay.

    The step starts at learning_rate and decays by a factor (1 - e/E) each
    epoch. Pseudo-labels train like true ones. The weights, their gradients
    and the momentum each live in one flat buffer, so a step is one
    elementwise pass. A scale or weight that overflows raises ProbeError.
    """
    X, y = _training_set(features, labels, class_count)
    rng = np.random.default_rng(config.seed)
    model = _init_softmax(X, class_count, config, rng)
    weights = (model.w1, model.b1, model.w2, model.b2)
    flat, (model.w1, model.b1, model.w2, model.b2) = pack(weights)
    Xn = model._standardize(X)
    grad_flat, grads = flat_views([w.shape for w in weights])
    velocity = np.zeros_like(flat)
    n = X.shape[0]
    for epoch in range(config.epochs):
        lr = config.learning_rate * (1.0 - epoch / config.epochs)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            chunk = order[start:start + config.batch_size]
            _softmax_loss_grads(model, Xn[chunk], y[chunk], grads)
            velocity *= config.momentum
            velocity += grad_flat
            flat -= lr * velocity
        check_finite(flat, ProbeError, f"epoch {epoch}: a softmax probe weight")
    return model


def predict(model, features) -> np.ndarray:
    """Argmax class per row for either probe; ties go to the lower class id."""
    if isinstance(model, LinearModel):
        expected = model.weights.shape[1]
    elif isinstance(model, SoftmaxModel):
        expected = model.w1.shape[0]
    else:
        raise ProbeError(f"unknown model type {type(model).__name__}")
    X = check_matrix(np.atleast_2d(features), ProbeError, cols=expected)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = check_finite(model.scores(X), ProbeError, "float64 overflow: a class score")
    return np.argmax(scores, axis=1).astype(np.int64)
