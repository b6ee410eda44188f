"""Optimum-path-forest algorithms on the complete Euclidean graph.

The path cost function is fmax: the cost of a path is its largest edge
weight, and each node is conquered by the seed offering the smallest such
maximal edge (the minimax, or bottleneck, distance). Semi-supervised
propagation roots the forest at externally supplied seed nodes; the
supervised classifier roots it at prototypes found on the minimum spanning
tree where classes meet.

A cubic Floyd-Warshall minimax oracle and an MST builder are included; by
the bottleneck shortest path property all three routes must agree, which
the test suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import UNLABELED, read_text


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
        lines = [_CSV_HEADER]
        for i in range(len(self.cost)):
            pred = "" if self.predecessor[i] < 0 else str(int(self.predecessor[i]))
            lines.append(
                f"{i},{float(self.cost[i])!r},{pred},{int(self.root[i])},{int(self.label[i])}"
            )
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "OptimumPathForest":
        """Read a forest written by ``to_csv``: rows for nodes 0..n-1, once each."""
        lines = read_text(path, OpfError).splitlines()
        if not lines or lines[0] != _CSV_HEADER:
            raise OpfError(f"{path}: missing forest header")
        rows = [(lineno, line.split(",")) for lineno, line in enumerate(lines[1:], start=2)
                if line.strip()]
        n = len(rows)
        cost = np.zeros(n)
        links = np.zeros((3, n), dtype=np.int64)  # predecessor, root, label
        seen = np.zeros(n, dtype=bool)
        for lineno, parts in rows:
            try:
                if len(parts) != 5:
                    raise ValueError(f"expected 5 fields, got {len(parts)}")
                node = int(parts[0])
                if not 0 <= node < n or seen[node]:
                    raise ValueError(f"node {node} is not one of 0..{n - 1} listed once each")
                cost[node] = float(parts[1])
                links[:, node] = (int(parts[2]) if parts[2] else -1, int(parts[3]),
                                  int(parts[4]))
            except (ValueError, OverflowError) as exc:
                raise OpfError(f"{path}: line {lineno}: {exc}") from exc
            seen[node] = True
        return cls(cost, *links)


def _seed_indices(seed_labels: np.ndarray) -> np.ndarray:
    seeds = np.flatnonzero(seed_labels != UNLABELED)
    if seeds.size == 0:
        raise OpfError("at least one seed is required")
    return seeds


def _prim_adjacency(D: np.ndarray):
    """Prim MST over a dense distance matrix, as an adjacency list.

    Candidate ties resolve to the lower node index (argmin order for the
    extraction, strict improvement for the attachment), so the tree is a
    pure function of the input. Edge weights are taken verbatim from D,
    keeping every downstream cost an exact selection from its entries.
    """
    n = D.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_w = D[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best_w)
        nxt = int(np.argmin(masked))
        src = int(best_from[nxt])
        w = float(best_w[nxt])
        adjacency[src].append((nxt, w))
        adjacency[nxt].append((src, w))
        in_tree[nxt] = True
        closer = ~in_tree & (D[nxt] < best_w)
        best_w[closer] = D[nxt][closer]
        best_from[closer] = nxt
    return adjacency


def _tree_bottleneck_from(adjacency, start: int, n: int):
    """Max edge weight along the unique tree path from ``start`` to each node,
    plus each node's first hop back toward ``start``."""
    cost = np.full(n, np.inf)
    toward = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cost[start] = 0.0
    visited[start] = True
    stack = [start]
    while stack:
        node = stack.pop()
        for nbr, w in adjacency[node]:
            if not visited[nbr]:
                visited[nbr] = True
                toward[nbr] = node
                cost[nbr] = max(cost[node], w)
                stack.append(nbr)
    return cost, toward


def _minimax_forest(X: np.ndarray, seeds: np.ndarray, seed_labels: np.ndarray,
                    prefer_labels: np.ndarray | None = None) -> OptimumPathForest:
    """fmax forest rooted at ``seeds``: minimax costs plus deterministic ownership.

    Ownership of cost-tied nodes goes to the lowest-ranked tying seed
    (seeds ranked by ascending node index); when ``prefer_labels`` is
    given, a tying seed whose label matches the node's own entry there
    wins over any mismatched one first.
    """
    n = X.shape[0]
    cost = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    root = np.arange(n, dtype=np.int64)
    label = np.full(n, UNLABELED, dtype=np.int64)
    if n == 1:
        cost[0] = 0.0
        label[0] = seed_labels[seeds[0]]
        return OptimumPathForest(cost, pred, root, label)

    adjacency = _prim_adjacency(cdist(X, X))
    owner_pos = np.full(n, -1, dtype=np.int64)
    mismatch = np.ones(n, dtype=bool)
    hops = []
    for pos, seed in enumerate(seeds):
        seed_cost, toward = _tree_bottleneck_from(adjacency, int(seed), n)
        hops.append(toward)
        if prefer_labels is None:
            better = seed_cost < cost
        else:
            seed_match = prefer_labels == seed_labels[seed]
            better = (seed_cost < cost) | ((seed_cost == cost) & seed_match & mismatch)
            mismatch = np.where(better, ~seed_match, mismatch)
        cost[better] = seed_cost[better]
        owner_pos[better] = pos
    for t in range(n):
        owner = int(seeds[owner_pos[t]])
        root[t] = owner
        label[t] = seed_labels[owner]
        pred[t] = hops[owner_pos[t]][t]
    # Seeds root themselves regardless of coincident rivals.
    cost[seeds] = 0.0
    pred[seeds] = -1
    root[seeds] = seeds
    label[seeds] = seed_labels[seeds]
    return OptimumPathForest(cost, pred, root, label)


def opfsemi_propagate(features, seed_labels) -> OptimumPathForest:
    """Propagate seed labels to every node along minimax-cost paths.

    Every node's cost is its minimax distance to the seed set: the
    minimum over paths of the maximal edge weight, realized on a minimum
    spanning tree by the bottleneck property. Equal minimax costs through
    different seeds are common, not exotic (any bottleneck edge shared by
    the paths toward two seeds produces a whole region of exact ties), so
    ownership is resolved lexicographically: a node belongs to the
    lowest-ranked seed among those tying at its cost, seeds ranked by
    ascending node index. Seeds always keep themselves, even when another
    seed sits at distance zero.

    The recorded predecessor is the node's first hop toward its owner on
    the spanning tree; the relation cost(t) = max(cost(pred), |x_pred -
    x_t|) holds exactly (all costs are selections from one pairwise
    distance matrix), and predecessor chains always terminate at a seed.
    Where equal-cost regions of two seeds touch, a chain may pass through
    nodes owned by the other seed on its way down; the stored root and
    label always name the owner.
    """
    X = np.asarray(features, dtype=np.float64)
    seed_labels = np.asarray(seed_labels, dtype=np.int64)
    if X.ndim != 2:
        raise OpfError("features must be a 2-d matrix")
    n = X.shape[0]
    if seed_labels.shape[0] != n:
        raise OpfError(f"have {n} nodes but {seed_labels.shape[0]} seed entries")
    if not np.isfinite(X).all():
        raise OpfError("features must be finite")
    seeds = _seed_indices(seed_labels)
    return _minimax_forest(X, seeds, seed_labels)


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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def mst(features) -> np.ndarray:
    """Kruskal minimum spanning tree of the complete Euclidean graph.

    Edges are examined by (weight, i, j), so equal-weight ties resolve to
    the lexicographically first edge. Returns an (n-1) x 2 index array in
    adoption order.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise OpfError("need at least 2 nodes")
    iu, ju = np.triu_indices(n, 1)
    w = cdist(X, X)[iu, ju]
    order = np.lexsort((ju, iu, w))
    uf = _UnionFind(n)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    taken = 0
    for e in order:
        a, b = int(iu[e]), int(ju[e])
        if uf.union(a, b):
            edges[taken] = (a, b)
            taken += 1
            if taken == n - 1:
                break
    return edges


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
    every other training node receives its optimum-path cost. Cost ties
    between prototypes of different classes are resolved in favor of the
    node's own class, which keeps the training set perfectly labeled by
    its own forest (for every node, walking its spanning-tree path toward
    any prototype meets a same-class prototype no more expensively).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise OpfError("features and labels must align")
    if np.unique(y).size < 2:
        raise OpfError("training set must contain at least 2 classes")
    edges = mst(X)
    cross = edges[y[edges[:, 0]] != y[edges[:, 1]]]
    protos = np.unique(cross)
    seed_vec = np.full(X.shape[0], UNLABELED, dtype=np.int64)
    seed_vec[protos] = y[protos]
    forest = _minimax_forest(X, protos, seed_vec, prefer_labels=y)
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


def opfsup_classify(model: OpfSupModel, x) -> int:
    return int(opfsup_classify_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0])
