"""Exact 2D t-SNE with per-row perplexity bisection and analytic gradients.

Affinities: each row gets a Gaussian conditional distribution whose
precision is bisected until the realized perplexity (2 to the Shannon
entropy) matches the target; the conditionals are then symmetrized and
normalized to a joint P. The embedding minimizes KL(P || Q) with a
Student-t Q by plain gradient descent with momentum, early exaggeration,
and re-centering after every step. Everything is O(n^2) and bit-stable
for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

_Q_EPS = 1e-12
_INIT_SIGMA = 1e-4


class ProjectionError(ValueError):
    """Raised for invalid configurations or failed bisection."""


@dataclass
class ProjectionConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch: int = 250
    seed: int = 0
    entropy_tolerance: float = 1e-5

    def validate(self, n: int | None = None) -> None:
        """Check the settings; the perplexity bound needs the point count n."""
        if self.perplexity <= 1:
            raise ProjectionError("perplexity must exceed 1")
        if n is not None and self.perplexity >= n:
            raise ProjectionError(f"perplexity {self.perplexity} must be below n={n}")
        if self.iterations < 1:
            raise ProjectionError("need at least 1 iteration")
        if self.learning_rate <= 0 or self.early_exaggeration <= 0:
            raise ProjectionError("rates must be positive")


@dataclass
class Embedding2D:
    coordinates: np.ndarray
    final_kl: float
    iterations_run: int
    # Largest KL increase observed between consecutive late iterations;
    # reported so callers can check the <= 1e-3 settling contract.
    max_late_kl_increase: float = 0.0
    kl_tail: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.coordinates = np.asarray(self.coordinates, dtype=np.float64)
        if not np.isfinite(self.coordinates).all():
            raise ProjectionError("embedding coordinates must be finite")

    def __len__(self) -> int:
        return self.coordinates.shape[0]


def _entropy_and_probs(d2: np.ndarray, beta: float):
    """Shifted-exponent Gaussian row distribution and its entropy in nats."""
    shifted = d2 - d2.min()
    w = np.exp(-beta * shifted)
    total = w.sum()
    p = w / total
    nz = p > 0
    entropy = float(-(p[nz] * np.log(p[nz])).sum())
    return p, entropy


def conditional_affinities(features, perplexity: float, tol: float = 1e-5):
    """Per-row Gaussian conditionals matching the target perplexity.

    Returns (conditional matrix with zero diagonal, precision per row).
    Rows whose off-diagonal distances are all equal admit no bisection
    solution and are set uniform, the entropy-maximizing limit.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n < 3:
        raise ProjectionError("need at least 3 points")
    if not perplexity < n:
        raise ProjectionError("perplexity must be below n")
    d2 = cdist(X, X, "sqeuclidean")
    cond = np.zeros((n, n))
    betas = np.ones(n)
    off = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d2[i][off[i]]
        # All-equal distances (to float resolution) admit no bisection
        # solution: the conditional is uniform for every precision.
        if row.max() - row.min() <= 1e-12 * max(row.max(), 1.0):
            cond[i][off[i]] = 1.0 / (n - 1)
            continue
        betas[i] = _bisect_row(row, perplexity, tol, i)
        p, _ = _entropy_and_probs(row, betas[i])
        cond[i][off[i]] = p
    return cond, betas


def _bisect_row(row: np.ndarray, perplexity: float, tol: float, i: int) -> float:
    # Realized perplexity exp(H) decreases monotonically in beta, from
    # n-1 at beta=0 toward the multiplicity of the nearest neighbour.
    beta = 1.0
    _, h = _entropy_and_probs(row, beta)
    lo = hi = None
    for _ in range(64):
        perp = np.exp(h)
        if perp > perplexity:
            lo = beta
            beta *= 2.0
        else:
            hi = beta
            beta /= 2.0
        if lo is not None and hi is not None:
            break
        _, h = _entropy_and_probs(row, beta)
    else:
        raise ProjectionError(f"row {i}: failed to bracket perplexity {perplexity}")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        _, h = _entropy_and_probs(row, mid)
        perp = np.exp(h)
        if abs(perp - perplexity) <= tol:
            return mid
        if perp > perplexity:
            lo = mid
        else:
            hi = mid
    raise ProjectionError(f"row {i}: bisection did not reach tolerance {tol}")


def pairwise_affinities(features, perplexity: float, tol: float = 1e-5) -> np.ndarray:
    """Symmetrized joint affinities: (C + C^T) / (2 n)."""
    cond, _ = conditional_affinities(features, perplexity, tol)
    n = cond.shape[0]
    return (cond + cond.T) / (2.0 * n)


def _student_t_weights(coords: np.ndarray):
    d2 = cdist(coords, coords, "sqeuclidean")
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    return w


def kl_divergence(P, coords) -> float:
    """KL(P || Q) with the Student-t Q implied by the coordinates.

    Zero P entries contribute nothing; Q is floored at 1e-12 before the log.
    """
    P = np.asarray(P, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    w = _student_t_weights(coords)
    q = w / w.sum()
    mask = P > 0
    return float((P[mask] * (np.log(P[mask]) - np.log(np.maximum(q[mask], _Q_EPS)))).sum())


def kl_gradient(P, coords):
    """KL divergence and its analytic gradient with respect to the coordinates.

    dC/dy_i = 4 sum_j (p_ij - q_ij) (y_i - y_j) / (1 + |y_i - y_j|^2).
    """
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(coords, dtype=np.float64)
    w = _student_t_weights(Y)
    z = w.sum()
    q = w / z
    mask = P > 0
    kl = float((P[mask] * (np.log(P[mask]) - np.log(np.maximum(q[mask], _Q_EPS)))).sum())
    m = (P - q) * w
    grad = 4.0 * (m.sum(axis=1)[:, None] * Y - m @ Y)
    return kl, grad


def tsne_project(features, config: ProjectionConfig | None = None) -> Embedding2D:
    """Run gradient descent on the t-SNE objective; deterministic per seed.

    Early iterations use exaggerated affinities; the plain-objective KL is
    tracked over the final 50 iterations and its worst consecutive increase
    is reported on the embedding.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n < 4:
        raise ProjectionError("need at least 4 points to project")
    cfg = config if config is not None else ProjectionConfig()
    cfg.validate(n)

    P = pairwise_affinities(X, cfg.perplexity, cfg.entropy_tolerance)
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, _INIT_SIGMA, (n, 2))
    velocity = np.zeros_like(Y)
    tail_start = max(0, cfg.iterations - 50)
    kl_tail = []

    for it in range(cfg.iterations):
        exaggerate = it < cfg.exaggeration_iters
        momentum = cfg.momentum_start if it < cfg.momentum_switch else cfg.momentum_final
        P_eff = P * cfg.early_exaggeration if exaggerate else P
        _, grad = kl_gradient(P_eff, Y)
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        if it >= tail_start:
            kl_tail.append(kl_divergence(P, Y))

    tail = np.asarray(kl_tail)
    max_increase = float(np.diff(tail).max()) if tail.size > 1 else 0.0
    final_kl = float(tail[-1]) if tail.size else kl_divergence(P, Y)
    return Embedding2D(Y, final_kl, cfg.iterations, max(0.0, max_increase), tail)
