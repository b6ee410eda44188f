"""Optimum-path-forest algorithms on the complete Euclidean graph.

The path cost function is fmax: the cost of a path is its largest edge
weight, and each node is conquered by the seed offering the smallest such
maximal edge (the minimax, or bottleneck, distance). Semi-supervised
propagation roots the forest at externally supplied seed nodes; the
supervised classifier roots it at prototypes found on the minimum spanning
tree where classes meet.

Every forest comes from one Prim sweep over the pairwise distances. Under
the strict (weight, i, j) edge order the minimum spanning tree is unique,
and the sweep fills in, for every pair of nodes, the largest edge on their
tree path and the first hop along it; the forest is then a column-wise
minimum over the seed rows (the image foresting transform of Falcao,
Stolfi and Lotufo, restricted to a tree). A cubic Floyd-Warshall minimax
oracle is included; by the bottleneck shortest path property both routes
must agree, which the test suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import UNLABELED, int64, read_table, write_table


class OpfError(ValueError):
    """Raised for invalid propagation or training inputs."""


_CSV_HEADER = "node,cost,pred,root,label"


@dataclass
class OptimumPathForest:
    """Per-node cost, predecessor (-1 at roots), root index, and label."""

    cost: np.ndarray
    predecessor: np.ndarray
    root: np.ndarray
    label: np.ndarray

    def to_csv(self, path) -> None:
        write_table(path, [_CSV_HEADER], (
            (i, self.cost[i], self.predecessor[i] if self.predecessor[i] >= 0 else None,
             self.root[i], self.label[i]) for i in range(len(self.cost))))

    @classmethod
    def from_csv(cls, path) -> "OptimumPathForest":
        """Read a forest written by ``to_csv``: rows for nodes 0..n-1, once each."""
        def header(lines):
            if lines != [_CSV_HEADER]:
                raise ValueError("missing forest header")
            return 5, lambda c: (int64(c[0]), float(c[1]), int64(c[2]) if c[2] else -1,
                                 int64(c[3]), int64(c[4]))

        rows = read_table(path, OpfError, header, nodes=True)
        cost = np.array([row[1] for row in rows], dtype=np.float64)
        return cls(cost, *(np.array([row[j] for row in rows], dtype=np.int64)
                           for j in (2, 3, 4)))


def _seed_indices(seed_labels: np.ndarray) -> np.ndarray:
    seeds = np.flatnonzero(seed_labels != UNLABELED)
    if seeds.size == 0:
        raise OpfError("at least one seed is required")
    return seeds


def _checked(features, labels=None):
    """``features`` as a finite 2-d float64 matrix and ``labels`` as int64,
    one entry per feature row."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise OpfError("features must be a 2-d matrix")
    n = X.shape[0]
    y = None if labels is None else np.asarray(labels, dtype=np.int64)
    if y is not None and y.shape != (n,):
        raise OpfError(f"have {n} feature rows but labels of shape {y.shape}")
    if not np.isfinite(X).all():
        raise OpfError("features must be finite")
    return X, y


def _prim_sweep(X: np.ndarray):
    """Prim minimum spanning tree of the complete Euclidean graph, with path tables.

    Edges are ordered strictly by (weight, lower endpoint, higher endpoint):
    each outside node keeps its lightest link into the tree (equal weights
    to the lower tree node) and each step adopts the least link, so the
    tree is the unique MST under that order, the one Kruskal would build.
    A node joins as a leaf, so its path tables follow from its parent's.
    Returns ``(edges, bottleneck, hop)``: the (parent, child) edges in
    adoption order; ``bottleneck[s, t]``, the largest edge weight on the
    tree path s-t, taken verbatim from the distance matrix so that costs
    stay exact selections; and ``hop[s, t]``, the node after t on that
    path toward s (-1 when s = t). The bottlenecks overwrite the distances
    in place: a distance is last read when the first of its nodes joins.
    """
    n = X.shape[0]
    bottleneck = cdist(X, X)
    # Finite features can still be too far apart for float64 distances.
    if not np.isfinite(bottleneck).all():
        raise OpfError("distances between features overflow float64")
    hop = np.full((n, n), -1, dtype=np.int32)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_w = bottleneck[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    for step in range(n - 1):
        masked = np.where(in_tree, np.inf, best_w)
        cand = np.flatnonzero(masked == masked.min())
        # among the lightest links, the smallest (lower, higher) endpoint pair
        ends = np.sort(np.stack([cand, best_from[cand]]), axis=0)
        child = int(cand[np.lexsort(ends[::-1])[0]])
        parent, w = int(best_from[child]), best_w[child]
        tree = np.flatnonzero(in_tree)
        bottleneck[child, tree] = np.maximum(bottleneck[parent, tree], w)
        bottleneck[tree, child] = bottleneck[child, tree]
        hop[child, tree] = hop[parent, tree]
        hop[child, parent] = child
        hop[tree, child] = parent
        edges[step] = parent, child
        in_tree[child] = True
        dist = bottleneck[child]
        closer = ~in_tree & ((dist < best_w) | ((dist == best_w) & (child < best_from)))
        best_w[closer] = dist[closer]
        best_from[closer] = child
    return edges, bottleneck, hop


def _forest(bottleneck: np.ndarray, hop: np.ndarray, seeds: np.ndarray,
            seed_labels: np.ndarray, prefer_labels: np.ndarray | None = None
            ) -> OptimumPathForest:
    """fmax forest rooted at ``seeds`` over one ``_prim_sweep``'s path tables.

    Each node goes to the seed with the smallest tree bottleneck to it;
    cost ties go to the lowest-ranked tying seed (seeds ranked by
    ascending node index), except that when ``prefer_labels`` is given a
    tying seed whose label matches the node's own entry there wins over
    any mismatched one first.
    """
    per_seed = bottleneck[seeds]
    cost = per_seed.min(axis=0)
    mismatch = (False if prefer_labels is None
                else seed_labels[seeds][:, None] != prefer_labels[None, :])
    # 0: ties the cost (with a preferred label), 1: ties it without, 2: dearer
    rank = np.where(per_seed == cost, mismatch, 2)
    root = seeds[np.argmin(rank, axis=0)]
    pred = hop[root, np.arange(len(cost))].astype(np.int64)
    # Seeds root themselves regardless of coincident rivals.
    cost[seeds] = 0.0
    pred[seeds] = -1
    root[seeds] = seeds
    return OptimumPathForest(cost, pred, root, seed_labels[root])


def opfsemi_propagate(features, seed_labels) -> OptimumPathForest:
    """Propagate seed labels to every node along minimax-cost paths.

    Every node's cost is its minimax distance to the seed set: the
    minimum over paths of the maximal edge weight, realized on a minimum
    spanning tree by the bottleneck property. One Prim sweep builds that
    tree, its ties broken by the (weight, i, j) edge order, together with
    every pairwise tree bottleneck. Equal minimax costs through different
    seeds are common, not exotic (any bottleneck edge shared by the paths
    toward two seeds produces a whole region of exact ties), so ownership
    is resolved lexicographically: a node belongs to the lowest-ranked
    seed among those tying at its cost, seeds ranked by ascending node
    index. Seeds always keep themselves, even when another seed sits at
    distance zero.

    The recorded predecessor is the node's first hop toward its owner on
    the spanning tree; the relation cost(t) = max(cost(pred), |x_pred -
    x_t|) holds exactly (all costs are selections from one pairwise
    distance matrix), and predecessor chains always terminate at a seed.
    Where equal-cost regions of two seeds touch, a chain may pass through
    nodes owned by the other seed on its way down; the stored root and
    label always name the owner.
    """
    X, seed_labels = _checked(features, seed_labels)
    seeds = _seed_indices(seed_labels)
    _, bottleneck, hop = _prim_sweep(X)
    return _forest(bottleneck, hop, seeds, seed_labels)


def minimax_oracle(features, seed_labels):
    """All-pairs minimax distances by (min, max) path relaxation.

    O(n^3) reference used to cross-check the propagation; each node is
    labeled by its minimax-nearest seed, ties to the lower seed index.
    Returns (labels, costs).
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n > 64:
        raise OpfError(f"oracle is cubic; refusing n={n} > 64")
    seed_labels = np.asarray(seed_labels, dtype=np.int64)
    seeds = _seed_indices(seed_labels)
    M = cdist(X, X)
    for mid in range(n):
        np.minimum(M, np.maximum(M[:, mid][:, None], M[mid, :][None, :]), out=M)
    per_seed = M[seeds]
    best = np.argmin(per_seed, axis=0)
    labels = seed_labels[seeds][best]
    costs = per_seed[best, np.arange(n)]
    # A seed's own zero-length path precedes any coincident rival.
    labels[seeds] = seed_labels[seeds]
    costs[seeds] = 0.0
    return labels, costs


def mst(features) -> np.ndarray:
    """Minimum spanning tree of the complete Euclidean graph: the Prim sweep's edges.

    Equal-weight ties resolve by the (weight, i, j) edge order. Returns an
    (n-1) x 2 index array of edges (i, j), i < j, sorted in that order
    (the order in which Kruskal would adopt them).
    """
    X, _ = _checked(features)
    if X.shape[0] < 2:
        raise OpfError("need at least 2 nodes")
    edges, bottleneck, _ = _prim_sweep(X)
    edges.sort(axis=1)
    weight = bottleneck[edges[:, 0], edges[:, 1]]
    return edges[np.lexsort((edges[:, 1], edges[:, 0], weight))]


@dataclass
class OpfSupModel:
    """Supervised optimum-path-forest classifier state."""

    features: np.ndarray
    labels: np.ndarray
    prototype: np.ndarray
    cost: np.ndarray
    forest_label: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def opfsup_train(features, labels) -> OpfSupModel:
    """Fit the supervised forest classifier.

    Prototypes are the endpoints of MST edges that join distinct classes;
    they root an fmax forest over the training set at cost 0, from which
    every other training node receives its optimum-path cost. One Prim
    sweep yields both the tree and the forest. Cost ties between
    prototypes of different classes are resolved in favor of the node's
    own class, which keeps the training set perfectly labeled by its own
    forest (for every node, walking its spanning-tree path toward any
    prototype meets a same-class prototype no more expensively).
    """
    X, y = _checked(features, labels)
    if np.unique(y).size < 2:
        raise OpfError("training set must contain at least 2 classes")
    edges, bottleneck, hop = _prim_sweep(X)
    protos = np.unique(edges[y[edges[:, 0]] != y[edges[:, 1]]])
    forest = _forest(bottleneck, hop, protos, y, prefer_labels=y)
    proto_mask = np.zeros(X.shape[0], dtype=bool)
    proto_mask[protos] = True
    return OpfSupModel(X, y, proto_mask, forest.cost, forest.label)


def opfsup_classify_batch(model: OpfSupModel, queries) -> np.ndarray:
    """Label each query by the training node minimizing max(cost, distance).

    Equal scores resolve to the lower training index.
    """
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if Q.shape[1] != model.dim:
        raise OpfError(f"query dimension {Q.shape[1]} != model dimension {model.dim}")
    dist = cdist(Q, model.features)
    scores = np.maximum(dist, model.cost[None, :])
    winners = np.argmin(scores, axis=1)
    return model.forest_label[winners]
