"""Downstream classifiers trained on true or pseudo labels.

Two probes: a one-vs-rest L2-regularized hinge classifier fitted by
deterministic full-batch subgradient descent (the linear-separability
check), and a single-hidden-layer softmax network fitted by minibatch SGD
with momentum and a linearly decaying step (the pseudo-label consumer).
Prediction is always argmax over class scores with ties resolved to the
lower class id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrastive import (flat_views, he_uniform, pack, relu_mlp, relu_mlp_backward,
                          row_softmax, safe_std)
from .dataset import UNLABELED


class ProbeError(ValueError):
    """Raised for unusable training inputs."""


def check_epochs(epochs: int) -> None:
    if epochs < 0:
        raise ProbeError(f"epochs must be non-negative, got {epochs}")


# ---------------------------------------------------------------------------
# Linear probe
# ---------------------------------------------------------------------------

@dataclass
class LinearModel:
    weights: np.ndarray  # (k, d)
    bias: np.ndarray     # (k,)
    lam: float
    epochs: int
    seed: int
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.bias


def train_linear(features, labels, lam: float = 1.0, epochs: int = 200,
                 seed: int = 0, class_count: int | None = None) -> LinearModel:
    """One-vs-rest hinge loss with an epoch-wise 1e-3 / sqrt(t) step.

    Full-batch subgradient descent from zero weights; the run is
    deterministic regardless of seed, which is recorded for provenance.
    The per-epoch regularized objective is kept on the model.
    """
    check_epochs(epochs)
    X = np.asarray(features, dtype=np.float64)
    _check_features(X)
    y = np.asarray(labels, dtype=np.int64)
    if (y == UNLABELED).any():
        raise ProbeError("linear probe requires labeled training samples")
    k = class_count if class_count is not None else int(y.max()) + 1
    if np.unique(y).size < 2:
        raise ProbeError("training set must contain at least 2 classes")
    n, d = X.shape
    target = np.full((n, k), -1.0)
    target[np.arange(n), y] = 1.0
    W = np.zeros((k, d))
    b = np.zeros(k)
    trace = np.empty(epochs)
    for t in range(1, epochs + 1):
        step = 1e-3 / np.sqrt(t)
        margins = target * (X @ W.T + b)
        viol = margins < 1.0
        coeff = target * viol
        grad_w = -(coeff.T @ X) / n + lam * W
        grad_b = -coeff.sum(axis=0) / n
        W -= step * grad_w
        b -= step * grad_b
        hinge = np.maximum(0.0, 1.0 - target * (X @ W.T + b)).mean(axis=0)
        trace[t - 1] = float((hinge + 0.5 * lam * (W ** 2).sum(axis=1)).mean())
    return LinearModel(W, b, lam, epochs, seed, trace)


# ---------------------------------------------------------------------------
# Softmax probe
# ---------------------------------------------------------------------------

@dataclass
class SoftmaxConfig:
    epochs: int = 15
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    hidden_dim: int = 64
    seed: int = 0

    def validate(self) -> None:
        check_epochs(self.epochs)
        if self.batch_size < 1:
            raise ProbeError("batch size must be at least 1")
        if self.hidden_dim < 1:
            raise ProbeError("hidden width must be at least 1")


@dataclass
class SoftmaxModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    config: SoftmaxConfig
    # Input standardization fitted on the training set; the 0.1 step with
    # 0.9 momentum assumes unit-scale inputs and diverges without it.
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    @property
    def class_count(self) -> int:
        return self.w2.shape[1]

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return X
        return (X - self.mean) / self.scale

    def scores(self, X: np.ndarray) -> np.ndarray:
        return relu_mlp(self._standardize(X), self.w1, self.b1, self.w2, self.b2)[2]


def softmax_probabilities(model: SoftmaxModel, features) -> np.ndarray:
    """Row-stochastic class probabilities."""
    return row_softmax(model.scores(np.atleast_2d(np.asarray(features, dtype=np.float64))))[0]


def _init_softmax(dim: int, k: int, config: SoftmaxConfig, rng) -> SoftmaxModel:
    return SoftmaxModel(
        w1=he_uniform(rng, dim, config.hidden_dim),
        b1=np.zeros(config.hidden_dim),
        w2=he_uniform(rng, config.hidden_dim, k),
        b2=np.zeros(k),
        config=config,
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


def _check_features(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ProbeError("features must be finite (found NaN or inf)")


def train_softmax(features, labels, config: SoftmaxConfig | None = None,
                  class_count: int | None = None) -> SoftmaxModel:
    """Cross-entropy training with momentum SGD and a linear step decay.

    The step starts at learning_rate and decays by a factor (1 - e/E) each
    epoch. Pseudo-labels train like true ones; unlabeled entries are an
    error naming the first offending index. The weights, their gradients
    and the momentum each live in one flat buffer, so a step is one
    elementwise pass.
    """
    cfg = config if config is not None else SoftmaxConfig()
    cfg.validate()
    X = np.asarray(features, dtype=np.float64)
    _check_features(X)
    y = np.asarray(labels, dtype=np.int64)
    if (y == UNLABELED).any():
        bad = int(np.argmax(y == UNLABELED))
        raise ProbeError(f"training index {bad} is unlabeled")
    k = class_count if class_count is not None else int(y.max()) + 1
    if y.min() < 0 or y.max() >= k:
        raise ProbeError(f"training labels must lie in [0, {k})")
    rng = np.random.default_rng(cfg.seed)
    model = _init_softmax(X.shape[1], k, cfg, rng)
    weights = (model.w1, model.b1, model.w2, model.b2)
    flat, (model.w1, model.b1, model.w2, model.b2) = pack(weights)
    model.mean = X.mean(axis=0)
    model.scale = safe_std(X)
    Xn = model._standardize(X)
    grad_flat, grads = flat_views([w.shape for w in weights])
    velocity = np.zeros_like(flat)
    n = X.shape[0]
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - epoch / cfg.epochs)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            _softmax_loss_grads(model, Xn[chunk], y[chunk], grads)
            velocity *= cfg.momentum
            velocity += grad_flat
            flat -= lr * velocity
    return model


def predict(model, features) -> np.ndarray:
    """Argmax class per row for either probe; ties go to the lower class id."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if isinstance(model, LinearModel):
        expected = model.weights.shape[1]
    elif isinstance(model, SoftmaxModel):
        expected = model.w1.shape[0]
    else:
        raise ProbeError(f"unknown model type {type(model).__name__}")
    if X.shape[1] != expected:
        raise ProbeError(f"feature dimension {X.shape[1]} != model dimension {expected}")
    return np.argmax(model.scores(X), axis=1).astype(np.int64)
