"""Optimum-path-forest algorithms on the complete Euclidean graph.

The path cost function is fmax: the cost of a path is its largest edge
weight, and each node is conquered by the seed offering the smallest such
maximal edge (the minimax, or bottleneck, distance). Semi-supervised
propagation roots the forest at externally supplied seed nodes; the
supervised classifier roots it at prototypes found on the minimum spanning
tree where classes meet.

Every forest comes from one Prim minimum spanning tree, each distance
computed once, when the first of its two nodes joins. Under the strict
(weight, i, j) edge order the tree is unique. A Kruskal pass over its
n - 1 edges then gives every node its minimax cost to the seeds, its root
and its first hop toward that root (the image foresting transform of
Falcao, Stolfi and Lotufo, restricted to a tree), so memory is the
features, one packed copy of them and O(n) buffers: no n x n table is
ever built. A cubic Floyd-Warshall minimax oracle is included; by the
bottleneck shortest path property both routes must agree, which the test
suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (UNLABELED, EplError, check_labels, check_matrix, distances, int64,
                      read_table, write_table)


class OpfError(EplError):
    """Raised for invalid propagation or training inputs."""


_CSV_HEADER = "node,cost,pred,root,label"

# Query rows that opfsup_classify_batch scores per block of distances.
_CLASSIFY_BLOCK = 64


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
             self.root[i], self.label[i]) for i in range(len(self.cost))), OpfError)

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


def _seeded(features, seed_labels):
    """``features`` as a checked matrix, its seed labels (a class id >= 0 or
    UNLABELED per row) and the indices of the seeds, of which there must be at least one."""
    X = check_matrix(features, OpfError)
    seed_labels = check_labels(seed_labels, X.shape[0], OpfError, unlabeled=True)
    seeds = np.flatnonzero(seed_labels != UNLABELED)
    if seeds.size == 0:
        raise OpfError("at least one seed is required")
    return X, seed_labels, seeds


def _prim_tree(X: np.ndarray):
    """Prim minimum spanning tree of the complete Euclidean graph.

    Edges are ordered strictly by (weight, lower endpoint, higher endpoint):
    each outside node keeps its lightest link into the tree (equal weights
    to the lower tree node) and each step adopts the least link, so the
    tree is the unique MST under that order, the one Kruskal would build.
    The m nodes still outside are packed at the front of four arrays: their
    ids, a copy of their feature rows, their lightest-link weights and
    their tree ends. Adopting a node moves the last outside node into its
    place, and the joining node's distances are computed to those m nodes
    only, so each distance is computed once, into a prefix of a fixed
    buffer (an entry does not depend on the other columns of its call).
    Returns ``(edges, weights)``: the (parent, child) edges in adoption
    order, so every parent joins before its children and node 0 is the
    root, and their weights, taken verbatim from the distances so that
    forest costs stay exact selections.
    """
    n = X.shape[0]
    edges = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1)
    ids = np.arange(1, n)
    rows = X[1:].copy()
    best_w = distances(X[:1], rows, OpfError)[0]
    best_from = np.zeros(n - 1, dtype=np.int64)
    dist = np.empty((1, n - 1))
    mask, closer = np.empty(n - 1, dtype=bool), np.empty(n - 1, dtype=bool)
    for step in range(n - 1):
        m = n - 1 - step
        # among the lightest links, the smallest (lower, higher) endpoint pair
        cand = np.flatnonzero(np.equal(best_w[:m], best_w[:m].min(), out=mask[:m]))
        ends = np.sort(np.stack([ids[cand], best_from[cand]]), axis=0)
        at = int(cand[np.lexsort(ends[::-1])[0]])
        child = int(ids[at])
        edges[step] = best_from[at], child
        weights[step] = best_w[at]
        m -= 1
        for packed in (ids, rows, best_w, best_from):
            packed[at] = packed[m]
        d = distances(X[child:child + 1], rows[:m], OpfError, out=dist[:, :m])[0]
        # closer: a lighter link through child, or an equal one to a lower tree node
        w, tree_end, c, t = best_w[:m], best_from[:m], closer[:m], mask[:m]
        np.greater(tree_end, child, out=c)
        np.logical_and(c, np.equal(d, w, out=t), out=c)
        np.logical_or(c, np.less(d, w, out=t), out=c)
        np.copyto(w, d, where=c)
        np.copyto(tree_end, child, where=c)
    return edges, weights


def _forest(edges: np.ndarray, weights: np.ndarray, seeds: np.ndarray):
    """fmax costs and roots of the forest rooted at ``seeds`` over one ``_prim_tree``.

    A Kruskal pass adds the tree edges by ascending weight, each run of
    equal weights as one group, and a union-find keeps every component's
    lowest seed. A node's cost is the weight of the group that first joins
    it to a seed: its minimax distance to the seed set. The seeds tying at
    that cost are exactly the seeds of the merged component, so its root is
    the component's lowest seed. Seeds root themselves at cost 0, even when
    another seed sits at distance zero. Returns ``(cost, root)``.
    """
    n = len(edges) + 1
    comp, size = list(range(n)), [1] * n

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = a = comp[comp[a]]
        return a

    # Per component root: its members while it holds no seed (None after)
    # and its lowest seed (n before).
    members: list = [[t] for t in range(n)]
    lowest = [n] * n
    for s in seeds.tolist():
        members[s], lowest[s] = None, s
    order = np.argsort(weights, kind="stable")
    w = weights[order]
    last = len(order) - 1
    reached, reached_at, reached_root, pending = [], [], [], []
    for k, (a, b) in enumerate(edges[order].tolist()):
        a, b = find(a), find(b)
        if size[a] > size[b]:
            a, b = b, a
        comp[a], size[b] = b, size[a] + size[b]
        if members[a] is not None and members[b] is not None:
            members[b] += members[a]
        else:
            # The merged component holds a seed: unseeded sides are reached.
            pending += members[a] or members[b] or []
            lowest[b] = min(lowest[a], lowest[b])
            members[b] = None
        if pending and (k == last or w[k + 1] != w[k]):
            # The group of weight w[k] is complete: its components are final.
            reached_root += [lowest[find(t)] for t in pending]
            reached += pending
            reached_at += [k] * len(pending)
            pending = []
    cost = np.zeros(n)
    cost[reached] = w[reached_at]
    root = np.arange(n)
    root[reached] = reached_root
    return cost, root


def _tree_neighbour(edges: np.ndarray, target: np.ndarray) -> np.ndarray:
    """For each node t, its neighbour on the tree path toward ``target[t]``.

    The tree is a ``_prim_tree`` rooted at node 0. When t is an ancestor of
    its target the neighbour is the target's ancestor one level below t,
    found by binary lifting; otherwise it is t's parent. Entries where
    ``target[t] == t`` are meaningless.
    """
    n = len(target)
    parent = np.zeros(n, dtype=np.int64)
    parent[edges[:, 1]] = edges[:, 0]
    depth = [0] * n
    for p, c in edges.tolist():
        depth[c] = depth[p] + 1
    depth = np.array(depth, dtype=np.int64)
    nodes = np.arange(n)
    below = depth[target] > depth
    steps = np.where(below, depth[target] - depth - 1, 0)
    lifted = target.copy()
    up = parent
    while steps.any():
        odd = (steps & 1).astype(bool)
        lifted[odd] = up[lifted[odd]]
        steps >>= 1
        up = up[up]
    return np.where(below & (parent[lifted] == nodes), lifted, parent)


def opfsemi_propagate(features, seed_labels) -> OptimumPathForest:
    """Propagate seed labels to every node along minimax-cost paths.

    Every node's cost is its minimax distance to the seed set: the
    minimum over paths of the maximal edge weight, realized on a minimum
    spanning tree by the bottleneck property. One Prim sweep builds that
    tree, its ties broken by the (weight, i, j) edge order, and a Kruskal
    pass over its edges joins every node to the seeds. Equal minimax costs
    through different seeds are common, not exotic (any bottleneck edge
    shared by the paths toward two seeds produces a whole region of exact
    ties), so ownership is resolved lexicographically: a node belongs to
    the lowest-ranked seed among those tying at its cost, seeds ranked by
    ascending node index. Seeds always keep themselves, even when another
    seed sits at distance zero.

    The recorded predecessor is the node's first hop toward its owner on
    the spanning tree; the relation cost(t) = max(cost(pred), |x_pred -
    x_t|) holds exactly (all costs are tree edge weights, copied verbatim
    from the distance rows), and predecessor chains always terminate at a
    seed.
    Where equal-cost regions of two seeds touch, a chain may pass through
    nodes owned by the other seed on its way down; the stored root and
    label always name the owner.
    """
    X, seed_labels, seeds = _seeded(features, seed_labels)
    edges, weights = _prim_tree(X)
    cost, root = _forest(edges, weights, seeds)
    pred = _tree_neighbour(edges, root)
    pred[seeds] = -1
    return OptimumPathForest(cost, pred, root, seed_labels[root])


def minimax_oracle(features, seed_labels):
    """All-pairs minimax distances by (min, max) path relaxation.

    O(n^3) reference used to cross-check the propagation; each node is
    labeled by its minimax-nearest seed, ties to the lower seed index.
    Returns (labels, costs).
    """
    n = check_matrix(features, OpfError).shape[0]
    if n > 64:
        raise OpfError(f"oracle is cubic; refusing n={n} > 64")
    X, seed_labels, seeds = _seeded(features, seed_labels)
    M = distances(X, X, OpfError)
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
    """Minimum spanning tree of the complete Euclidean graph: the Prim tree's edges.

    Equal-weight ties resolve by the (weight, i, j) edge order. Returns an
    (n-1) x 2 index array of edges (i, j), i < j, sorted in that order
    (the order in which Kruskal would adopt them).
    """
    X = check_matrix(features, OpfError)
    if X.shape[0] < 2:
        raise OpfError("need at least 2 nodes")
    edges, weights = _prim_tree(X)
    edges.sort(axis=1)
    return edges[np.lexsort((edges[:, 1], edges[:, 0], weights))]


@dataclass
class OpfSupModel:
    """Supervised optimum-path-forest classifier state."""

    features: np.ndarray
    labels: np.ndarray
    prototype: np.ndarray
    cost: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def opfsup_train(features, labels) -> OpfSupModel:
    """Fit the supervised forest classifier.

    Prototypes are the endpoints of MST edges that join distinct classes;
    they root an fmax forest over the training set at cost 0, from which
    every other training node receives its optimum-path cost. One Prim
    tree yields both the prototypes and the forest, of which only the
    costs are kept: a query takes its winning node's own training label.
    That is the node's forest label too, cost ties resolved toward its own
    class, since a prototype of that class always ties for its minimum: on
    the tree path from a node toward any prototype, the first class change
    is an edge whose near end is a prototype of the node's own class,
    reached at no greater bottleneck.
    """
    X = check_matrix(features, OpfError)
    y = check_labels(labels, X.shape[0], OpfError)
    if np.unique(y).size < 2:
        raise OpfError("training set must contain at least 2 classes")
    edges, weights = _prim_tree(X)
    protos = np.unique(edges[y[edges[:, 0]] != y[edges[:, 1]]])
    cost, _ = _forest(edges, weights, protos)
    proto_mask = np.zeros(X.shape[0], dtype=bool)
    proto_mask[protos] = True
    return OpfSupModel(X, y, proto_mask, cost)


def opfsup_classify_batch(model: OpfSupModel, queries) -> np.ndarray:
    """Label each query with the training label of the node minimizing
    max(cost, distance).

    Equal scores resolve to the lower training index. Queries are scored
    ``_CLASSIFY_BLOCK`` rows at a time, so memory stays at one block of
    distances however many queries there are.
    """
    Q = check_matrix(np.atleast_2d(queries), OpfError, cols=model.dim)
    winners = np.empty(Q.shape[0], dtype=np.int64)
    for start in range(0, Q.shape[0], _CLASSIFY_BLOCK):
        block = slice(start, start + _CLASSIFY_BLOCK)
        scores = distances(Q[block], model.features, OpfError)
        np.maximum(scores, model.cost, out=scores)
        winners[block] = np.argmin(scores, axis=1)
    return model.labels[winners]
