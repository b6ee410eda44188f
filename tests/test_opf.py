import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

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


# Tied inputs: up to 10 points of a 3-per-axis integer grid in 1-3 dimensions.
grid_clouds = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                       min_size=2, max_size=10)
).map(lambda rows: np.array(rows, dtype=np.float64))


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
        # sha256 of (prototype, cost, forest_label) over a seeded batch of
        # grid instances, recorded before the forest became one Prim sweep.
        rng = np.random.default_rng(31)
        digest = hashlib.sha256()
        for _ in range(300):
            X = grid_points(rng)
            y = rng.integers(0, 3, X.shape[0])
            if np.unique(y).size < 2:
                continue
            model = opfsup_train(X, y)
            for part in (model.prototype, model.cost, model.forest_label):
                digest.update(part.tobytes())
        assert digest.hexdigest() == (
            "9013010d72b8c3dda742d0e80ddc280d8f2302f992fd2b963cf574f00b28f143")
