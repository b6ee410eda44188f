"""Classification quality metrics and a 2D visual-separation score.

Accuracy and Cohen's kappa are computed from an explicit confusion matrix
(rows = truth, columns = prediction). Visual separation of an embedding is
quantified by k-NN label consistency: the mean fraction of each point's k
nearest neighbours that share its label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EplError, check_at_least, check_labels, check_matrix, distances


class MetricError(EplError):
    """Raised for empty, unlabeled or out-of-range inputs."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k count matrix; cell (i, j) counts truth i predicted as j."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise MetricError("confusion matrix must be square")
        if (counts < 0).any():
            raise MetricError("confusion counts must be non-negative")
        if counts.sum() < 1:
            raise MetricError("confusion matrix must count at least one sample")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def class_count(self) -> int:
        return self.counts.shape[0]


def confusion(pred, truth, class_count: int | None = None) -> ConfusionMatrix:
    """Count (truth, prediction) pairs; k x k with k = class_count.

    Without class_count, k is the largest label + 1, which leaves out a
    top class that appears in neither vector. A label that is not a whole
    number in [0, class_count) is an error naming the first index holding one.
    """
    t = check_labels(truth, None, MetricError, class_count)
    p = check_labels(pred, t.size, MetricError, class_count)
    if t.size == 0:
        raise MetricError("empty label vectors")
    k = class_count if class_count is not None else int(max(p.max(), t.max())) + 1
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts)


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of counted samples on the diagonal."""
    return float(np.trace(cm.counts)) / cm.n


def cohen_kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    p_e is the product-of-marginals expected agreement. The degenerate
    single-cell matrix has p_o = p_e = 1 and is reported as the limit 1.
    """
    n = cm.n
    p_o = float(np.trace(cm.counts)) / n
    rows = cm.counts.sum(axis=1).astype(np.float64)
    cols = cm.counts.sum(axis=0).astype(np.float64)
    p_e = float(rows @ cols) / (n * n)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def per_class_recall(cm: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row sums; classes absent from the truth get recall 0."""
    rows = cm.counts.sum(axis=1).astype(np.float64)
    diag = np.diag(cm.counts).astype(np.float64)
    out = np.zeros(cm.class_count)
    present = rows > 0
    out[present] = diag[present] / rows[present]
    return out


# Rows of the distance matrix that knn_consistency holds at once.
_KNN_ROWS = 64


def knn_consistency(points, labels, k: int) -> float:
    """Mean fraction of each point's k nearest neighbours sharing its label.

    Works on any n x m point array (2D embeddings or latent features).
    Distance ties are broken toward the lower index; k, a whole number of
    at least 1, is capped at n - 1. The distances are taken 64 rows at a
    time, so the memory is O(64 n), not n x n.
    """
    check_at_least("k", k, 1, MetricError)
    points = check_matrix(points, MetricError)
    n = points.shape[0]
    labels = check_labels(labels, n, MetricError)
    if n < 2:
        raise MetricError("need at least 2 points")
    k = min(k, n - 1)
    matches = 0
    for start in range(0, n, _KNN_ROWS):
        rows = np.arange(start, min(start + _KNN_ROWS, n))
        dist = distances(points[rows], points, MetricError)
        dist[np.arange(rows.size), rows] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        matches += int(np.count_nonzero(labels[order] == labels[rows, None]))
    return matches / (n * k)
