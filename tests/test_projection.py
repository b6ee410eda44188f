import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epl.dataset import UNLABELED, generate_blobs
from epl.metrics import knn_consistency
from epl.opf import opfsemi_propagate
from epl.projection import (Embedding2D, ProjectionConfig, ProjectionError,
                            conditional_affinities, kl_divergence, kl_gradient,
                            pairwise_affinities, tsne_project)


def kl_summation_oracle(P, coords):
    """Naive double loop over the definition."""
    n = coords.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = 1.0 / (1.0 + ((coords[i] - coords[j]) ** 2).sum())
    q = w / w.sum()
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and P[i, j] > 0:
                total += P[i, j] * np.log(P[i, j] / max(q[i, j], 1e-12))
    return total


class TestAffinities:
    def test_three_equidistant_points(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        cond, _ = conditional_affinities(tri, 1.5)
        off = ~np.eye(3, dtype=bool)
        assert cond[off] == pytest.approx(0.5)
        P = pairwise_affinities(tri, 1.5)
        assert P[off] == pytest.approx(1.0 / 6.0)

    def test_normalization_and_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            X = rng.normal(size=(30, 4))
            P = pairwise_affinities(X, 10.0)
            assert P.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.abs(P - P.T).max() == 0.0
            assert np.abs(np.diag(P)).max() == 0.0
            assert (P >= 0).all()

    def test_realized_perplexity_within_tolerance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 5))
        tol = 1e-5
        cond, _ = conditional_affinities(X, 15.0, tol)
        # independent entropy recomputation in bits
        for i in range(50):
            p = cond[i][cond[i] > 0]
            perp = 2.0 ** (-(p * np.log2(p)).sum())
            assert abs(perp - 15.0) <= tol

    def test_perplexity_must_be_reachable(self):
        X = np.random.default_rng(2).normal(size=(10, 3))
        with pytest.raises(ProjectionError):
            pairwise_affinities(X, 9.5)  # max realized perplexity is n - 1

    @pytest.mark.parametrize("value,cause", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (1e200, "overflow"),
        (1e154, "squared-distance range")])
    def test_bad_features_name_the_cause_without_warnings(self, value, cause):
        X = np.random.default_rng(7).normal(size=(20, 3))
        X[4, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProjectionError, match=cause):
                conditional_affinities(X, 5.0)
            with pytest.raises(ProjectionError, match=cause):
                tsne_project(X, ProjectionConfig(perplexity=5.0, iterations=5))

    def test_degenerate_coincident_rows(self):
        X = np.zeros((5, 2))
        cond, _ = conditional_affinities(X, 2.0)
        off = ~np.eye(5, dtype=bool)
        assert cond[off] == pytest.approx(0.25)


class TestKl:
    def test_zero_when_q_equals_p(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(12, 2))
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
        w = 1.0 / (1.0 + d2)
        np.fill_diagonal(w, 0.0)
        P = w / w.sum()
        assert kl_divergence(P, coords) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(4, 10))
            coords = rng.normal(size=(n, 2))
            raw = rng.uniform(size=(n, n))
            raw = (raw + raw.T) / 2.0
            np.fill_diagonal(raw, 0.0)
            P = raw / raw.sum()
            assert kl_divergence(P, coords) >= 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(15, 3))
            P = pairwise_affinities(X, 5.0)
            coords = rng.normal(size=(15, 2))
            assert kl_divergence(P, coords) == pytest.approx(
                kl_summation_oracle(P, coords), abs=1e-10)


class TestGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        P = pairwise_affinities(X, 8.0, 1e-6)
        Y = rng.normal(size=(20, 2))
        grad = kl_gradient(P, Y)
        h = 1e-5
        fd = np.zeros_like(Y)
        for i in range(20):
            for j in range(2):
                plus, minus = Y.copy(), Y.copy()
                plus[i, j] += h
                minus[i, j] -= h
                fd[i, j] = (kl_divergence(P, plus) - kl_divergence(P, minus)) / (2 * h)
        assert np.abs(grad - fd).max() / np.abs(fd).max() <= 1e-4


class TestScratchBuffers:
    """A reused `work` pair is scratch only: results equal the fresh-buffer calls."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-4, 1.0, 30.0]))
    def test_reused_work_is_bitwise_equal(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        P = pairwise_affinities(rng.normal(size=(n, 3)), min(3.0, n - 1.5))
        P[0, n - 1] = P[n - 1, 0] = 0.0  # a zero entry the KL mask must skip
        work = (np.full((n, n), np.nan), np.full((n, n), np.nan))
        for P_eff in (P * 12.0, P, P * 4.0):
            Y = rng.normal(0.0, scale, (n, 2))
            assert np.array_equal(kl_gradient(P_eff, Y, work), kl_gradient(P_eff, Y))
            assert kl_divergence(P_eff, Y, work) == kl_divergence(P_eff, Y)
            assert kl_divergence(P, Y, work) == kl_divergence(P, Y)
            assert np.array_equal(kl_gradient(P, Y, work), kl_gradient(P, Y))


class TestTsne:
    def test_determinism(self):
        ds = generate_blobs(3, 20, 6, 0.5, 8.0, seed=1)
        cfg = ProjectionConfig(perplexity=10.0, iterations=120,
                               exaggeration_iters=30, momentum_switch=30, seed=5)
        a = tsne_project(ds.features, cfg)
        b = tsne_project(ds.features, ProjectionConfig(
            perplexity=10.0, iterations=120, exaggeration_iters=30,
            momentum_switch=30, seed=5))
        assert np.array_equal(a.coordinates, b.coordinates)
        assert a.final_kl == b.final_kl

    def test_well_separated_blobs_stay_separated(self):
        ds = generate_blobs(4, 40, 8, 0.1, 10.0, seed=2)
        cfg = ProjectionConfig(perplexity=20.0, iterations=400,
                               exaggeration_iters=100, momentum_switch=100, seed=3)
        emb = tsne_project(ds.features, cfg)
        assert knn_consistency(emb.coordinates, ds.labels, k=10) >= 0.99

    def test_centering_after_every_iteration(self):
        ds = generate_blobs(3, 15, 4, 0.5, 8.0, seed=4)
        emb = tsne_project(ds.features, ProjectionConfig(
            perplexity=8.0, iterations=60, exaggeration_iters=20,
            momentum_switch=20, seed=1))
        assert np.abs(emb.coordinates.mean(axis=0)).max() <= 1e-9

    def test_late_kl_settles(self):
        ds = generate_blobs(3, 25, 5, 0.3, 9.0, seed=5)
        emb = tsne_project(ds.features, ProjectionConfig(
            perplexity=12.0, iterations=300, exaggeration_iters=80,
            momentum_switch=80, seed=2))
        assert emb.max_late_kl_increase <= 1e-3
        assert emb.final_kl >= 0.0

    def test_rigid_rotation_leaves_consumers_unchanged(self):
        ds = generate_blobs(3, 20, 5, 0.8, 8.0, seed=6)
        emb = tsne_project(ds.features, ProjectionConfig(
            perplexity=10.0, iterations=150, exaggeration_iters=40,
            momentum_switch=40, seed=7))
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rotated = emb.coordinates @ rot.T
        seeds = np.full(len(ds.labels), UNLABELED)
        seeds[::10] = ds.labels[::10]
        base = opfsemi_propagate(emb.coordinates, seeds)
        turned = opfsemi_propagate(rotated, seeds)
        assert np.array_equal(base.label, turned.label)
        assert knn_consistency(rotated, ds.labels, k=10) == \
            knn_consistency(emb.coordinates, ds.labels, k=10)

    def test_too_few_points(self):
        with pytest.raises(ProjectionError):
            tsne_project(np.zeros((3, 2)), ProjectionConfig(perplexity=2.0))

    def test_config_validation(self):
        with pytest.raises(ProjectionError):
            ProjectionConfig(perplexity=50.0).validate(20)
        with pytest.raises(ProjectionError):
            ProjectionConfig(iterations=0).validate(100)

    def test_embedding_requires_finite_coordinates(self):
        with pytest.raises(ProjectionError):
            Embedding2D(np.array([[0.0, np.inf]]), 0.0, 1)
