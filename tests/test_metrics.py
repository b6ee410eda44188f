import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epl.dataset import distances, format_row
from epl.metrics import (ConfusionMatrix, MetricError, accuracy, cohen_kappa, confusion,
                         knn_consistency, per_class_recall)


def kappa_oracle(counts):
    """Direct formula evaluation with plain Python loops."""
    counts = np.asarray(counts)
    k = counts.shape[0]
    n = counts.sum()
    p_o = sum(counts[i][i] for i in range(k)) / n
    p_e = 0.0
    for c in range(k):
        row = sum(counts[c][j] for j in range(k))
        col = sum(counts[i][c] for i in range(k))
        p_e += row * col
    p_e /= n * n
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


class TestConfusion:
    def test_identity_predictions(self):
        y = np.arange(10) % 3
        cm = confusion(y, y)
        assert np.trace(cm.counts) == 10
        assert cm.counts.sum() == 10

    def test_direct_counts(self):
        truth = np.array([0, 0, 1])
        pred = np.array([0, 1, 1])
        cm = confusion(pred, truth)
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_recount_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, 1000)
        pred = rng.integers(0, 5, 1000)
        cm = confusion(pred, truth)
        for i in range(5):
            for j in range(5):
                expect = sum(1 for t, p in zip(truth, pred) if t == i and p == j)
                assert cm.counts[i, j] == expect
        assert np.array_equal(cm.counts.sum(axis=1), np.bincount(truth, minlength=5))

    def test_empty_input_is_an_error(self):
        with pytest.raises(MetricError, match="empty"):
            confusion(np.array([], dtype=int), np.array([], dtype=int), class_count=2)

    def test_unlabeled_index_is_an_error(self):
        with pytest.raises(MetricError, match="unlabeled"):
            confusion(np.array([0, -1]), np.array([0, 1]))

    @pytest.mark.parametrize("pred,truth,k,match", [
        ([0, 1], [5, 0], 3, r"index 0 holds 5, outside \[0, 3\)"),
        ([0, 1], [-2, 0], 3, r"index 0 holds -2, outside \[0, 3\)"),
        ([0, 1], [0, -2], None, r"index 1 holds -2, outside \[0, inf\)"),
        ([0, -3], [0, 1], None, r"index 1 holds -3, outside \[0, inf\)"),
        ([0, 3], [0, 1], 3, r"index 1 holds 3, outside \[0, 3\)"),
    ])
    def test_label_outside_the_classes_is_named(self, pred, truth, k, match):
        with pytest.raises(MetricError, match=match):
            confusion(pred, truth, class_count=k)

    def test_vectors_of_different_lengths_are_an_error(self):
        with pytest.raises(MetricError, match=r"2 feature rows but labels of shape \(3,\)"):
            confusion([0, 1, 1], [0, 1], class_count=2)


class TestAccuracy:
    def test_perfect(self):
        cm = ConfusionMatrix(np.diag([4, 6]))
        assert accuracy(cm) == 1.0

    def test_all_wrong(self):
        cm = ConfusionMatrix(np.array([[0, 5], [5, 0]]))
        assert accuracy(cm) == 0.0

    def test_hand_count(self):
        cm = ConfusionMatrix(np.array([[2, 1], [0, 1]]))
        assert accuracy(cm) == pytest.approx(0.75)


class TestKappa:
    def test_perfect_agreement(self):
        cm = ConfusionMatrix(np.diag([50, 50]))
        assert cohen_kappa(cm) == 1.0

    def test_constant_prediction_chance_level(self):
        cm = ConfusionMatrix(np.array([[50, 0], [50, 0]]))
        assert cohen_kappa(cm) == pytest.approx(0.0)

    def test_worked_example(self):
        cm = ConfusionMatrix(np.array([[50, 10], [15, 25]]))
        assert cohen_kappa(cm) == pytest.approx(0.22 / 0.47, abs=1e-9)
        assert cohen_kappa(cm) == pytest.approx(0.468085, abs=1e-6)

    def test_degenerate_single_cell(self):
        cm = ConfusionMatrix(np.array([[7, 0], [0, 0]]))
        assert cohen_kappa(cm) == 1.0

    def test_oracle_10000_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 30, (k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts)
            assert cohen_kappa(cm) == pytest.approx(kappa_oracle(counts), abs=1e-12)
            assert -1.0 - 1e-12 <= cohen_kappa(cm) <= 1.0 + 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_class_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        truth = rng.integers(0, k, 200)
        pred = rng.integers(0, k, 200)
        perm = rng.permutation(k)
        base = cohen_kappa(confusion(pred, truth, class_count=k))
        permuted = cohen_kappa(confusion(perm[pred], perm[truth], class_count=k))
        assert permuted == pytest.approx(base, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kappa_accuracy_identity(self, seed):
        # kappa = (acc - p_e) / (1 - p_e) holds for every matrix
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, (3, 3))
        if counts.sum() == 0:
            counts[1, 2] = 3
        cm = ConfusionMatrix(counts)
        n = cm.n
        rows = cm.counts.sum(axis=1)
        cols = cm.counts.sum(axis=0)
        p_e = float(rows @ cols) / (n * n)
        if p_e < 1.0:
            expect = (accuracy(cm) - p_e) / (1.0 - p_e)
            assert cohen_kappa(cm) == pytest.approx(expect, abs=1e-12)


class TestScoreRow:
    def test_per_class_recall(self):
        cm = ConfusionMatrix(np.array([[3, 1], [2, 2]]))
        assert per_class_recall(cm).tolist() == pytest.approx([0.75, 0.5])

    def test_csv_row(self):
        cm = ConfusionMatrix(np.diag([5, 5]))
        row = format_row(("blobs", "linear", 7, accuracy(cm), cohen_kappa(cm)))
        assert row == "blobs,linear,7,1.0,1.0"


class TestKnnConsistency:
    def test_two_far_clusters(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 2)) * 0.1
        b = rng.normal(size=(30, 2)) * 0.1 + 100.0
        pts = np.vstack([a, b])
        labels = np.repeat([0, 1], 30)
        assert knn_consistency(pts, labels, k=5) == 1.0

    def test_random_labels_near_half(self):
        scores = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(size=(200, 2))
            labels = rng.integers(0, 2, 200)
            scores.append(knn_consistency(pts, labels, k=10))
        assert abs(np.mean(scores) - 0.5) < 0.05

    def test_tie_broken_to_lower_index(self):
        # middle point equidistant to both ends; its neighbour must be index 0
        pts = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1])
        # fractions: point0 -> neighbour1 (same), point1 -> neighbour0 (same),
        # point2 -> neighbour1 (diff) = mean 2/3
        assert knn_consistency(pts, labels, k=1) == pytest.approx(2.0 / 3.0)

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 2))
        labels = rng.integers(0, 3, 80)
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        base = knn_consistency(pts, labels, k=7)
        assert knn_consistency(pts @ rot.T, labels, k=7) == base
        assert knn_consistency(pts * 3.7, labels, k=7) == base

    def test_k_capped_at_n_minus_1(self):
        pts = np.arange(8, dtype=float).reshape(4, 2)
        labels = np.array([0, 0, 1, 1])
        assert knn_consistency(pts, labels, k=100) == knn_consistency(pts, labels, k=3)

    def test_unlabeled_rejected(self):
        with pytest.raises(MetricError):
            knn_consistency(np.zeros((3, 2)), np.array([0, -1, 1]), k=1)

    @pytest.mark.parametrize("k, match", [
        (2.5, "k must be a whole number, got 2.5"), (True, "k must be a whole number, got True"),
        (0, "k must be at least 1, got 0")])
    def test_k_is_a_whole_number_of_at_least_one(self, k, match):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 0.0], [9.0, 1.0]])
        with pytest.raises(MetricError, match=match):
            knn_consistency(pts, np.array([0, 0, 1, 1]), k=k)
        assert knn_consistency(pts, np.array([0, 0, 1, 1]), k=np.int64(1)) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 150), d=st.integers(1, 3), grid=st.integers(0, 4),
           k=st.integers(1, 160), classes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_row_blocks_equal_the_full_matrix(self, n, d, grid, k, classes, seed):
        # Points on an integer grid (grid > 0) give distance ties and duplicate
        # points; n runs below and above the 64-row block, k up to and past n - 1.
        rng = np.random.default_rng(seed)
        pts = (rng.integers(0, grid + 1, size=(n, d)).astype(np.float64) if grid
               else rng.normal(size=(n, d)))
        labels = rng.integers(0, classes, n)
        kk = min(k, n - 1)
        dist = distances(pts, pts, MetricError)
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")[:, :kk]
        reference = float((labels[order] == labels[:, None]).mean())
        assert knn_consistency(pts, labels, k) == reference
