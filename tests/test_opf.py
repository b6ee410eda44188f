import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from epl import opf
from epl.dataset import UNLABELED
from epl.opf import (OpfError, OptimumPathForest, minimax_oracle, mst,
                     opfsemi_propagate, opfsup_classify_batch, opfsup_train)


def random_instance(rng, n_max=12):
    n = int(rng.integers(3, n_max + 1))
    d = int(rng.integers(1, 5))
    X = rng.uniform(-1.0, 1.0, (n, d))
    k = int(rng.integers(1, 5))
    n_seeds = int(rng.integers(1, min(n, 4) + 1))
    seed_idx = rng.choice(n, n_seeds, replace=False)
    seeds = np.full(n, UNLABELED)
    seeds[seed_idx] = rng.integers(0, k, n_seeds)
    return X, seeds


def grid_points(rng, n_max=12):
    """Points on a 3-per-axis integer grid: duplicates and equal distances abound."""
    n = int(rng.integers(2, n_max + 1))
    return rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(np.float64)


def tied_points(min_size, max_size):
    """Points of a 3-per-axis integer grid in 1-3 dimensions: ties everywhere."""
    return st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                           min_size=min_size, max_size=max_size)
    ).map(lambda rows: np.array(rows, dtype=np.float64))


grid_clouds = tied_points(2, 10)


def reference_sweep(X):
    """All-pairs Prim sweep: the tree edges with every pairwise path table.

    The bitwise reference for the library's tree-only forests. Under the
    (weight, lower, higher) edge order it adopts the same edges; as each
    node joins as a leaf it fills ``bottleneck[s, t]``, the largest edge
    weight on the tree path s-t (taken verbatim from the distance matrix),
    and ``hop[s, t]``, the node after t on that path toward s (-1 when
    s = t). Returns ``(edges, bottleneck, hop)``, edges as (parent, child)
    in adoption order.
    """
    n = X.shape[0]
    bottleneck = cdist(X, X)
    hop = np.full((n, n), -1, dtype=np.int32)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_w = bottleneck[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    for step in range(n - 1):
        masked = np.where(in_tree, np.inf, best_w)
        cand = np.flatnonzero(masked == masked.min())
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


def reference_forest(X, seeds, seed_labels, prefer_labels=None):
    """fmax forest as a column-wise minimum over the seeds' bottleneck rows.

    Cost ties go to the lowest tying seed, except that with
    ``prefer_labels`` a tying seed whose label matches the node's entry
    there wins first; seeds root themselves. The supervised classifier's
    forest is the one with its training labels preferred.
    """
    _, bottleneck, hop = reference_sweep(X)
    per_seed = bottleneck[seeds]
    cost = per_seed.min(axis=0)
    mismatch = (False if prefer_labels is None
                else seed_labels[seeds][:, None] != prefer_labels[None, :])
    rank = np.where(per_seed == cost, mismatch, 2)
    root = seeds[np.argmin(rank, axis=0)]
    pred = hop[root, np.arange(len(cost))].astype(np.int64)
    cost[seeds] = 0.0
    pred[seeds] = -1
    root[seeds] = seeds
    return OptimumPathForest(cost, pred, root, seed_labels[root])


def reference_mst(X):
    edges, bottleneck, _ = reference_sweep(X)
    edges.sort(axis=1)
    weight = bottleneck[edges[:, 0], edges[:, 1]]
    return edges[np.lexsort((edges[:, 1], edges[:, 0], weight))]


def reference_prototypes(X, y):
    edges, _, _ = reference_sweep(X)
    return np.unique(edges[y[edges[:, 0]] != y[edges[:, 1]]])


def assert_supervised_forest(X, y):
    """``opfsup_train`` keeps the prototypes and costs of the reference forest
    with ties to each node's own label, and that forest labels every training
    node with its own label: why the model keeps no forest labels."""
    protos = reference_prototypes(X, y)
    want = reference_forest(X, protos, y, prefer_labels=y)
    model = opfsup_train(X, y)
    assert np.array_equal(np.flatnonzero(model.prototype), protos)
    assert model.cost.dtype == want.cost.dtype
    assert np.array_equal(model.cost, want.cost)
    assert np.array_equal(want.label, y)


def assert_same_forest(forest, reference):
    for name in ("cost", "predecessor", "root", "label"):
        got, want = getattr(forest, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_forest_valid(forest, X, seeds):
    D = cdist(X, X)
    n = X.shape[0]
    for t in range(n):
        if seeds[t] != UNLABELED:
            assert forest.cost[t] == 0.0
            assert forest.predecessor[t] == -1
            assert forest.root[t] == t
            assert forest.label[t] == seeds[t]
        else:
            p = forest.predecessor[t]
            assert p >= 0
            assert forest.cost[t] == max(forest.cost[p], D[p, t])
            assert forest.label[t] == seeds[forest.root[t]]
            node, hops = t, 0
            while forest.predecessor[node] >= 0:
                node = forest.predecessor[node]
                hops += 1
                assert hops <= n
            assert seeds[node] != UNLABELED


class TestOpfSemi:
    def test_one_dimensional_hand_case(self):
        X = np.array([[0.0], [3.0], [7.0], [10.0]])
        seeds = np.array([0, UNLABELED, UNLABELED, 1])
        forest = opfsemi_propagate(X, seeds)
        # brute-force minimax over every simple path agrees: node@3 is
        # 3 away from the left seed vs bottleneck 4 from the right one
        assert forest.label.tolist() == [0, 0, 1, 1]
        assert forest.cost.tolist() == [0.0, 3.0, 3.0, 0.0]

    def test_single_seed_conquers_everything(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 3))
        seeds = np.full(15, UNLABELED)
        seeds[4] = 2
        forest = opfsemi_propagate(X, seeds)
        assert (forest.label == 2).all()
        _, costs = minimax_oracle(X, seeds)
        assert np.array_equal(forest.cost, costs)

    def test_exact_tie_goes_to_lower_seed(self):
        # node 1 exactly tied between seed 0 and seed 2
        X = np.array([[0.0], [5.0], [10.0]])
        seeds = np.array([0, UNLABELED, 1])
        forest = opfsemi_propagate(X, seeds)
        assert forest.label[1] == 0
        assert forest.root[1] == 0

    def test_single_node_is_its_own_seed(self):
        forest = opfsemi_propagate(np.array([[2.0, 3.0]]), np.array([4]))
        assert (forest.cost.tolist(), forest.predecessor.tolist(), forest.root.tolist(),
                forest.label.tolist()) == ([0.0], [-1], [0], [4])

    def test_no_seeds_is_an_error(self):
        with pytest.raises(OpfError, match="seed"):
            opfsemi_propagate(np.zeros((3, 2)), np.full(3, UNLABELED))

    @pytest.mark.parametrize("label", [-2, -5])
    def test_seed_label_below_unlabeled_is_an_error(self, label):
        X = np.arange(6, dtype=float)[:, None]
        seeds = np.array([label, UNLABELED, UNLABELED, 1, UNLABELED, UNLABELED])
        for fit in (opfsemi_propagate, minimax_oracle):
            with pytest.raises(OpfError, match=f"index 0 holds {label}, outside"):
                fit(X, seeds)

    def test_dimension_mismatch(self):
        with pytest.raises(OpfError):
            opfsemi_propagate(np.zeros((3, 2)), np.array([0, UNLABELED]))

    def test_forest_invariants_exhaustive(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            X, seeds = random_instance(rng)
            forest = opfsemi_propagate(X, seeds)
            assert_forest_valid(forest, X, seeds)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            X, seeds = random_instance(rng)
            forest = opfsemi_propagate(X, seeds)
            labels, costs = minimax_oracle(X, seeds)
            assert np.array_equal(forest.label, labels)
            assert np.abs(forest.cost - costs).max() <= 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        X, seeds = random_instance(rng)
        base = opfsemi_propagate(X, seeds)
        scaled = opfsemi_propagate(2.5 * X, seeds)
        assert np.array_equal(base.label, scaled.label)
        assert np.allclose(scaled.cost, 2.5 * base.cost, rtol=1e-12)

    def test_seed_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            X, seeds = random_instance(rng)
            free = np.flatnonzero(seeds == UNLABELED)
            if free.size == 0:
                continue
            more = seeds.copy()
            more[free[0]] = 0
            base = opfsemi_propagate(X, seeds)
            extended = opfsemi_propagate(X, more)
            assert (extended.cost <= base.cost + 1e-15).all()

    def test_duplicate_points_allowed(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        seeds = np.array([0, UNLABELED, UNLABELED])
        forest = opfsemi_propagate(X, seeds)
        assert forest.cost[1] == 0.0
        assert forest.label.tolist() == [0, 0, 0]

    def test_forest_csv_dump(self, tmp_path):
        X = np.array([[0.0], [1.0], [2.0]])
        forest = opfsemi_propagate(X, np.array([0, UNLABELED, UNLABELED]))
        path = tmp_path / "forest.csv"
        forest.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,cost,pred,root,label"
        assert len(lines) == 4
        assert lines[1] == "0,0.0,,0,0"

    def test_forest_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "forest.csv"
        for _ in range(20):
            X, seeds = random_instance(rng)
            forest = opfsemi_propagate(X, seeds)
            forest.to_csv(path)
            back = OptimumPathForest.from_csv(path)
            for name in ("cost", "predecessor", "root", "label"):
                assert np.array_equal(getattr(back, name), getattr(forest, name))
                assert getattr(back, name).dtype == getattr(forest, name).dtype

    @pytest.mark.parametrize("row, match", [
        ("0,0.0", "expected 5 fields"),
        ("0,0.0,,0,0,0", "invalid literal"),  # the extra comma stays in the node cell
        ("-5,0.0,,0,0", "node -5"),
        ("3,0.0,,0,0", "node 3"),
        ("1,0.0,,0,0", "node 1"),      # duplicate of the next row
        ("0,0.0,,zero,0", "invalid literal"),
        ("0,cheap,,0,0", "could not convert"),
        ("0,0.0,,0,99999999999999999999", "too large"),
    ])
    def test_forest_csv_rejects_malformed_rows(self, tmp_path, row, match):
        path = tmp_path / "forest.csv"
        path.write_text(f"node,cost,pred,root,label\n{row}\n1,1.0,0,0,0\n")
        with pytest.raises(OpfError, match=match):
            OptimumPathForest.from_csv(path)


class TestMinimaxOracle:
    def test_two_nodes(self):
        X = np.array([[0.0], [4.0]])
        labels, costs = minimax_oracle(X, np.array([1, UNLABELED]))
        assert labels.tolist() == [1, 1]
        assert costs.tolist() == [0.0, 4.0]

    def test_triangle_detour_beats_direct_edge(self):
        # colinear 0, 1, 3: direct edge 0-2 weighs 3, detour max(1, 2) = 2
        X = np.array([[0.0], [1.0], [3.0]])
        _, costs = minimax_oracle(X, np.array([0, UNLABELED, UNLABELED]))
        assert costs[2] == 2.0

    def test_size_limit(self):
        with pytest.raises(OpfError, match="64"):
            minimax_oracle(np.zeros((65, 2)), np.full(65, UNLABELED))


def spanning_tree_weight_oracle(X):
    """Minimum spanning tree weight by enumerating all spanning edge sets."""
    n = X.shape[0]
    D = cdist(X, X)
    edges = list(itertools.combinations(range(n), 2))
    best = np.inf
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(D[a, b] for a, b in subset))
    return best


class TestMst:
    def test_colinear_points(self):
        X = np.array([[0.0], [1.0], [2.0]])
        edges = mst(X)
        assert sorted(map(tuple, edges.tolist())) == [(0, 1), (1, 2)]

    def test_weight_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            X = rng.uniform(size=(n, 2))
            edges = mst(X)
            D = cdist(X, X)
            total = sum(D[a, b] for a, b in edges)
            assert total == pytest.approx(spanning_tree_weight_oracle(X), abs=1e-12)

    def test_bottleneck_property(self):
        # minimax distance between any pair equals the max edge on their MST path
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            X = rng.uniform(size=(n, 3))
            edges = mst(X)
            D = cdist(X, X)
            adj = [[] for _ in range(n)]
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            for source in range(n):
                seeds = np.full(n, UNLABELED)
                seeds[source] = 0
                _, costs = minimax_oracle(X, seeds)
                path_max = np.zeros(n)
                stack = [(source, 0.0)]
                seen = {source}
                while stack:
                    u, running = stack.pop()
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            path_max[v] = max(running, D[u, v])
                            stack.append((v, path_max[v]))
                assert np.array_equal(path_max, costs)


@pytest.mark.parametrize("fit", [opfsemi_propagate, opfsup_train])
@pytest.mark.parametrize("features, match", [
    ([[0.0], [np.nan], [1.0]], "finite"),
    ([[0.0], [1.0], [np.inf]], "finite"),
    ([0.0, 1.0, 2.0], "2-d"),
    (np.zeros((3, 1, 1)), "2-d"),
    (np.zeros((4, 2)), "4 feature rows"),
    ([[0.0, 0.0], [1e200, 1e200], [-1e200, -1e200]], "overflow"),
])
def test_malformed_features_raise_opf_error(fit, features, match):
    with pytest.raises(OpfError, match=match):
        fit(features, np.array([0, 1, 1]))


@pytest.mark.parametrize("features", [[[0.0], [np.nan]], [0.0, 1.0]])
def test_mst_rejects_malformed_features(features):
    with pytest.raises(OpfError):
        mst(features)


class TestOpfSup:
    def test_two_blobs_two_prototypes(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 2)) * 0.2
        b = rng.normal(size=(20, 2)) * 0.2 + 10.0
        X = np.vstack([a, b])
        y = np.repeat([0, 1], 20)
        model = opfsup_train(X, y)
        assert model.prototype.sum() == 2
        # the two prototypes are the closest cross-class pair on the MST
        protos = np.flatnonzero(model.prototype)
        assert y[protos].tolist() == [0, 1]

    def test_training_accuracy_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(6, 25))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.integers(0, int(rng.integers(2, 4)), n)
            if np.unique(y).size < 2:
                continue
            model = opfsup_train(X, y)
            assert (opfsup_classify_batch(model, X) == y).all()

    def test_single_class_is_an_error(self):
        with pytest.raises(OpfError, match="2 classes"):
            opfsup_train(np.random.default_rng(0).normal(size=(5, 2)), np.zeros(5, dtype=int))

    def test_blob_center_classified_correctly(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(15, 2)) * 0.3
        b = rng.normal(size=(15, 2)) * 0.3 + np.array([12.0, 0.0])
        model = opfsup_train(np.vstack([a, b]), np.repeat([0, 1], 15))
        assert opfsup_classify_batch(model, np.array([[0.0, 0.0]]))[0] == 0
        assert opfsup_classify_batch(model, np.array([[12.0, 0.0]]))[0] == 1

    def test_equidistant_tie_goes_to_lower_index(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        model = opfsup_train(X, y)
        # both prototypes tie at distance 1 with equal costs
        assert opfsup_classify_batch(model, np.array([[1.0]]))[0] == 0

    def test_dimension_mismatch(self):
        model = opfsup_train(np.array([[0.0], [2.0]]), np.array([0, 1]))
        with pytest.raises(OpfError, match="dimension"):
            opfsup_classify_batch(model, np.array([[0.0, 1.0]]))


class TestTiedInputs:
    """Grid points: equal edge weights and coincident nodes everywhere."""

    @settings(max_examples=200, deadline=None)
    @given(grid_clouds)
    def test_mst_cycle_property(self, X):
        # Under the strict (w, i, j) edge order every non-tree edge is the
        # largest on the cycle it closes, so the tree is the unique MST.
        n = X.shape[0]
        D = cdist(X, X)
        edges = mst(X)
        assert edges.shape == (n - 1, 2)
        assert (edges[:, 0] < edges[:, 1]).all()

        def key(a, b):
            return (D[a, b], min(a, b), max(a, b))

        adj = [[] for _ in range(n)]
        for a, b in edges.tolist():
            adj[a].append(b)
            adj[b].append(a)
        tree = set(map(tuple, edges.tolist()))
        for a in range(n):
            parent = {a: None}  # DFS from a: parent links lead back to a
            stack = [a]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        stack.append(v)
            assert len(parent) == n
            for b in range(a + 1, n):
                node = b
                while (a, b) not in tree and parent[node] is not None:
                    assert key(parent[node], node) < key(a, b)
                    node = parent[node]

    @settings(max_examples=200, deadline=None)
    @given(grid_clouds, st.data())
    def test_propagation_matches_oracle(self, X, data):
        n = X.shape[0]
        seed_idx = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                                      unique=True))
        seeds = np.full(n, UNLABELED)
        seeds[seed_idx] = data.draw(st.lists(st.integers(0, 2), min_size=len(seed_idx),
                                             max_size=len(seed_idx)))
        forest = opfsemi_propagate(X, seeds)
        assert_forest_valid(forest, X, seeds)
        labels, costs = minimax_oracle(X, seeds)
        assert np.array_equal(forest.label, labels)
        assert np.array_equal(forest.cost, costs)

    def test_opfsup_grid_golden(self):
        # sha256 of (prototype, cost, labels) over a seeded batch of grid
        # instances, recorded before the forest became one Prim sweep (then
        # hashing the forest's labels, which always equal the training ones).
        rng = np.random.default_rng(31)
        digest = hashlib.sha256()
        for _ in range(300):
            X = grid_points(rng)
            y = rng.integers(0, 3, X.shape[0])
            if np.unique(y).size < 2:
                continue
            model = opfsup_train(X, y)
            for part in (model.prototype, model.cost, model.labels):
                digest.update(part.tobytes())
        assert digest.hexdigest() == (
            "9013010d72b8c3dda742d0e80ddc280d8f2302f992fd2b963cf574f00b28f143")

    @settings(max_examples=300, deadline=None)
    @given(tied_points(1, 40), st.data())
    def test_forests_match_all_pairs_reference(self, X, data):
        n = X.shape[0]
        labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        seed_idx = np.array(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
        seeds = np.full(n, UNLABELED)
        seeds[seed_idx] = labels[seed_idx]
        assert_same_forest(opfsemi_propagate(X, seeds), reference_forest(X, seed_idx, seeds))
        if n >= 2:
            assert np.array_equal(mst(X), reference_mst(X))
        if np.unique(labels).size >= 2:
            assert_supervised_forest(X, labels)

    @pytest.mark.parametrize("X, seeds", [
        ([[3.0]], [1]),
        ([[0.0], [2.0]], [UNLABELED, 1]),
        ([[0.0], [2.0]], [0, 1]),
        ([[1.0, 1.0], [1.0, 1.0]], [UNLABELED, 2]),
        ([[1.0, 1.0], [1.0, 1.0]], [1, 0]),
        # coincident seeds, with and without a coincident free node
        ([[0.0], [0.0], [0.0], [1.0]], [2, UNLABELED, 1, UNLABELED]),
        ([[0.0], [1.0], [1.0], [2.0]], [UNLABELED, 1, 0, UNLABELED]),
        ([[0.0], [0.0], [1.0], [1.0], [1.0]], [UNLABELED, 1, 0, UNLABELED, 0]),
    ])
    def test_small_and_coincident_cases_match_reference(self, X, seeds):
        X, seeds = np.array(X), np.array(seeds)
        seed_idx = np.flatnonzero(seeds != UNLABELED)
        forest = opfsemi_propagate(X, seeds)
        assert_same_forest(forest, reference_forest(X, seed_idx, seeds))
        assert_forest_valid(forest, X, seeds)
        if len(X) >= 2:
            assert np.array_equal(mst(X), reference_mst(X))
        labels = np.where(seeds == UNLABELED, 0, seeds)
        if np.unique(labels).size >= 2:
            assert_supervised_forest(X, labels)

    def test_larger_forests_match_reference(self):
        # Sizes past the hypothesis clouds, on scaled continuous data and on
        # duplicate-heavy grids, both forests per instance.
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(40, 160))
            X = (rng.integers(0, 4, (n, 2)).astype(np.float64) if trial % 2 else
                 rng.normal(size=(n, int(rng.integers(1, 6)))) * 10.0 ** rng.integers(-3, 4))
            y = rng.integers(0, 4, n)
            seed_idx = np.sort(rng.choice(n, int(rng.integers(1, 12)), replace=False))
            seeds = np.full(n, UNLABELED)
            seeds[seed_idx] = y[seed_idx]
            assert_same_forest(opfsemi_propagate(X, seeds), reference_forest(X, seed_idx, seeds))
            assert np.array_equal(mst(X), reference_mst(X))
            if np.unique(y).size >= 2:
                assert_supervised_forest(X, y)


class TestClassifyBlocks:
    BLOCK = opf._CLASSIFY_BLOCK

    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_one_matrix_argmin(self, count):
        rng = np.random.default_rng(count)
        X = rng.integers(0, 5, (60, 2)).astype(np.float64)
        y = rng.integers(0, 3, 60)
        model = opfsup_train(X, y)
        # Grid and half-grid queries: many score exactly alike.
        grid = np.array(list(itertools.product(np.arange(9) / 2.0, repeat=2)))
        scores = np.maximum(cdist(grid, model.features), model.cost)
        best = scores == scores.min(axis=1, keepdims=True)
        # Queries whose best score ties between training rows of different
        # labels sit on both sides of every block edge.
        tied = grid[[np.unique(model.labels[row]).size > 1 for row in best]]
        assert len(tied)
        Q = grid[rng.integers(0, len(grid), count)]
        for edge in range(self.BLOCK, count + 1, self.BLOCK):
            Q[edge - 1] = Q[min(edge, count - 1)] = tied[edge % len(tied)]
        scores = np.maximum(cdist(Q, model.features), model.cost)
        want = model.labels[np.argmin(scores, axis=1)]
        got = opfsup_classify_batch(model, Q)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("query, match", [
        (np.inf, "finite"), (np.nan, "finite"), (-np.inf, "finite"),
        (1e308, "overflow"), (-1e308, "overflow"),
    ])
    def test_unscorable_queries_raise(self, query, match):
        model = opfsup_train([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1])
        with pytest.raises(OpfError, match=match):
            opfsup_classify_batch(model, [[query]])
        # also when the bad row sits in a later block
        Q = np.zeros((2 * self.BLOCK + 5, 1))
        Q[-2] = query
        with pytest.raises(OpfError, match=match):
            opfsup_classify_batch(model, Q)


def test_forests_need_no_pairwise_tables():
    # One 3000 x 3000 float64 table alone would take 72 MB.
    rng = np.random.default_rng(43)
    X = rng.normal(size=(3000, 4))
    y = rng.integers(0, 3, 3000)
    Q = rng.normal(size=(1000, 4))
    seeds = np.full(3000, UNLABELED)
    seeds[::100] = y[::100]
    limit = 8 * 2**20
    tracemalloc.start()
    try:
        opfsup_classify_batch(opfsup_train(X, y), Q)
        _, sup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        opfsemi_propagate(X, seeds)
        _, semi_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sup_peak < limit
    assert semi_peak < limit
