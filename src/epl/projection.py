"""Exact 2D t-SNE with per-row perplexity bisection and analytic gradients.

Affinities: each row gets a Gaussian conditional distribution whose
precision is bisected until the realized perplexity (2 to the Shannon
entropy) matches the target; the conditionals are then symmetrized and
normalized to a joint P. The embedding minimizes KL(P || Q) with a
Student-t Q by plain gradient descent with momentum, early exaggeration,
and re-centering after every step. Everything is O(n^2) and bit-stable
for a fixed seed.

The descent computes one gradient per step and no KL until the last 50
steps. `tsne_project` allocates one pair of n x n float64 buffers and
lends it to every `kl_gradient` and `kl_divergence` call: the first holds
the Student-t weights 1 / (1 + |y_i - y_j|^2) with a zero diagonal, the
second Q and then (P - Q) * weights (the gradient) or Q alone (the KL).
The buffers are scratch storage: a call computes the same float
operations in the same order as with fresh arrays, so the results are
bitwise equal with or without them.
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
    solution and are set uniform, the entropy-maximizing limit. Non-finite
    features and squared distances beyond float64 raise ProjectionError
    before any row is bisected.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n < 3:
        raise ProjectionError("need at least 3 points")
    if not perplexity < n:
        raise ProjectionError("perplexity must be below n")
    if not np.isfinite(X).all():
        raise ProjectionError("features must be finite (found NaN or inf)")
    d2 = cdist(X, X, "sqeuclidean")
    if not np.isfinite(d2).all():
        raise ProjectionError("squared distances between features overflow float64")
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


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty((n, n)), np.empty((n, n))


def _student_t_weights(coords: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + squared distance) with a zero diagonal, written into `out` if given."""
    w = cdist(coords, coords, "sqeuclidean", out=out)
    np.add(w, 1.0, out=w)
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    return w


def kl_divergence(P, coords, work=None) -> float:
    """KL(P || Q) with the Student-t Q implied by the coordinates.

    Zero P entries contribute nothing; Q is floored at 1e-12 before the log.
    `work` is an optional pair of n x n float64 scratch buffers.
    """
    P = np.asarray(P, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    w, q = work if work is not None else _scratch(coords.shape[0])
    _student_t_weights(coords, out=w)
    np.divide(w, w.sum(), out=q)
    mask = P > 0
    p = P[mask]
    log_q = np.log(np.maximum(q[mask], _Q_EPS))
    return float((p * (np.log(p) - log_q)).sum())


def kl_gradient(P, coords, work=None) -> np.ndarray:
    """Analytic gradient of KL(P || Q) with respect to the coordinates.

    dC/dy_i = 4 sum_j (p_ij - q_ij) (y_i - y_j) / (1 + |y_i - y_j|^2).
    `work` is an optional pair of n x n float64 scratch buffers.
    """
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(coords, dtype=np.float64)
    w, m = work if work is not None else _scratch(Y.shape[0])
    _student_t_weights(Y, out=w)
    np.divide(w, w.sum(), out=m)
    np.subtract(P, m, out=m)
    np.multiply(m, w, out=m)
    return 4.0 * (m.sum(axis=1)[:, None] * Y - m @ Y)


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
    P_eff = P * cfg.early_exaggeration
    work = _scratch(n)
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, _INIT_SIGMA, (n, 2))
    velocity = np.zeros_like(Y)
    tail_start = max(0, cfg.iterations - 50)
    kl_tail = []

    for it in range(cfg.iterations):
        if it >= cfg.exaggeration_iters:
            P_eff = P  # releases the exaggerated copy
        momentum = cfg.momentum_start if it < cfg.momentum_switch else cfg.momentum_final
        grad = kl_gradient(P_eff, Y, work)
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        if it >= tail_start:
            kl_tail.append(kl_divergence(P, Y, work))

    tail = np.asarray(kl_tail)
    max_increase = float(np.diff(tail).max()) if tail.size > 1 else 0.0
    return Embedding2D(Y, float(tail[-1]), cfg.iterations, max(0.0, max_increase), tail)
