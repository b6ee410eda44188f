import ctypes
import errno
import faulthandler
import json
import mmap
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import epl
import epl.host
import epl.projection
from epl.dataset import UNLABELED, generate_blobs
from epl.metrics import knn_consistency
from epl.opf import opfsemi_propagate
from epl.projection import (Embedding2D, ProjectionConfig, ProjectionError, Workspace,
                            _bisect_row, _entropy_and_probs, _sum_halves,
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


# Reference forms of the kernels, the affinities and the bisection: fresh
# arrays, one Student-t kernel per call, full-matrix passes, a full
# distance matrix, and a bisection that shifts the row and compresses
# p > 0 on every evaluation. The library's blocked in-place gradient,
# shared tail kernel, row-wise affinities and leaner bisection must match
# them bit for bit; its blocked KL must match `ref_kl_blocked` bit for bit
# and the gathered sum `ref_kl_divergence` to 1e-12 relative.
def ref_weights(coords):
    w = 1.0 / (cdist(coords, coords, "sqeuclidean") + 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def ref_kl_divergence(P, coords):
    w = ref_weights(coords)
    q = w / w.sum()
    mask = P > 0
    p = P[mask]
    log_q = np.log(np.maximum(q[mask], 1e-12))
    return float((p * (np.log(p) - log_q)).sum())


def ref_kl_blocked(P, coords, block=64):
    """sum p log p minus sum p log q, each summed block of `block` rows by block."""
    w = ref_weights(coords)
    log_q = np.log(np.maximum(w / w.sum(), 1e-12))
    p_log_p = cross = 0.0
    for start in range(0, P.shape[0], block):
        rows = slice(start, start + block)
        p = P[rows][P[rows] > 0]
        p_log_p += float((p * np.log(p)).sum())
        cross += float((P[rows] * log_q[rows]).sum())
    return p_log_p - cross


def assert_kl_matches(P, coords, kl):
    assert kl == ref_kl_blocked(P, coords)
    gathered = ref_kl_divergence(P, coords)
    assert abs(kl - gathered) <= 1e-12 * abs(gathered)


def ref_kl_gradient(P, coords):
    w = ref_weights(coords)
    m = (P - w / w.sum()) * w
    return 4.0 * (m.sum(axis=1)[:, None] * coords - m @ coords)


def ref_entropy_and_probs(d2, beta):
    shifted = d2 - d2.min()
    w = np.exp(-beta * shifted)
    p = w / w.sum()
    nz = p > 0
    return p, float(-(p[nz] * np.log(p[nz])).sum())


def ref_bisect_row(row, perplexity, tol):
    beta = 1.0
    _, h = ref_entropy_and_probs(row, beta)
    lo = hi = None
    for _ in range(64):
        if np.exp(h) > perplexity:
            lo = beta
            beta *= 2.0
        else:
            hi = beta
            beta /= 2.0
        if lo is not None and hi is not None:
            break
        _, h = ref_entropy_and_probs(row, beta)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        _, h = ref_entropy_and_probs(row, mid)
        perp = np.exp(h)
        if abs(perp - perplexity) <= tol:
            return mid
        if perp > perplexity:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not converge")


def ref_conditional_affinities(X, perplexity, tol):
    """A full distance matrix and an off-diagonal mask; rows bisected by the library."""
    n = X.shape[0]
    d2 = cdist(X, X, "sqeuclidean")
    off = ~np.eye(n, dtype=bool)
    cond, betas = np.zeros((n, n)), np.ones(n)
    for i in range(n):
        row = d2[i][off[i]]
        if row.max() - row.min() <= 1e-12 * max(row.max(), 1.0):
            cond[i][off[i]] = 1.0 / (n - 1)
        else:
            betas[i], cond[i][off[i]] = _bisect_row(row, perplexity, tol, i)
    return cond, betas


def outcome(fn, *args):
    """fn's result, or the type and message of the ProjectionError it raised."""
    try:
        return fn(*args)
    except ProjectionError as err:
        return type(err), str(err)


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
        # the realized perplexity of a row is at most n - 1 (uniform)
        with pytest.raises(ProjectionError, match="exceeds n - 1 = 9"):
            pairwise_affinities(X, 9.5)
        with pytest.raises(ProjectionError, match="exceeds n - 1 = 9"):
            tsne_project(X, ProjectionConfig(perplexity=9.5, iterations=1))
        assert len(tsne_project(X, ProjectionConfig(perplexity=9.0, iterations=1))) == 10

    @pytest.mark.parametrize("scale", [1e10, 1e12, 1e24])
    def test_wide_feature_scale_brackets(self, scale):
        # the needed precision is far below 2**-64, so the bracket search
        # must keep halving it
        X = np.random.default_rng(0).normal(size=(24, 3))
        X[:, 0] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond, betas = conditional_affinities(X, 3.0)
        assert betas.min() < 2.0 ** -64
        for row in cond:
            p = row[row > 0]
            assert abs(np.exp(-(p * np.log(p)).sum()) - 3.0) <= 1e-5

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

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([63, 64, 65, 131]), st.integers(3, 200)),
           d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["normal", "duplicates", "all_equal", "wide_column"]),
           perplexity=st.floats(1.5, 30.0))
    def test_row_wise_affinities_equal_the_full_matrix_forms(self, n, d, seed, kind,
                                                             perplexity):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if kind == "duplicates":
            pairs = int(rng.integers(1, n // 2 + 1))
            X[1:2 * pairs:2] = X[0:2 * pairs:2]
        elif kind == "all_equal":
            X[:] = X[0]
        elif kind == "wide_column":
            X[:, 0] *= 1e10
        perplexity = min(perplexity, n - 1.5)
        got = outcome(conditional_affinities, X, perplexity, 1e-5)
        want = outcome(ref_conditional_affinities, X, perplexity, 1e-5)
        if isinstance(want[0], type):
            assert got == want
            return
        (cond, betas), (ref_cond, ref_betas) = got, want
        assert np.array_equal(cond, ref_cond) and np.array_equal(betas, ref_betas)
        assert np.array_equal(pairwise_affinities(X, perplexity, 1e-5),
                              (ref_cond + ref_cond.T) / (2.0 * n))

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
    """A reused workspace is scratch only: results equal the fresh-buffer calls."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-4, 1.0, 30.0]))
    def test_reused_work_is_bitwise_equal(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        P = pairwise_affinities(rng.normal(size=(n, 3)), min(3.0, n - 1.5))
        P[0, n - 1] = P[n - 1, 0] = 0.0  # a zero entry the KL must skip
        work = Workspace(n)
        work.w.fill(np.nan)
        work.scratch.fill(np.nan)
        for alpha in (12.0, 1.0, 4.0):
            Y = rng.normal(0.0, scale, (n, 2))
            assert np.array_equal(kl_gradient(P, Y, work, alpha), kl_gradient(P * alpha, Y))
            assert kl_divergence(P * alpha, Y, work) == kl_divergence(P * alpha, Y)
            assert kl_divergence(P, Y, work) == kl_divergence(P, Y)
            assert np.array_equal(kl_gradient(P, Y, work), kl_gradient(P, Y))


def _joint_with_zeros(rng, n):
    """A joint P with a block of exact zeros besides the diagonal."""
    P = pairwise_affinities(rng.normal(size=(n, 3)), min(5.0, n - 1.5))
    cut = rng.integers(1, n)
    P[:cut, cut:] = P[cut:, :cut] = 0.0
    return P / P.sum()


class TestBitwiseAgainstReference:
    """The blocked gradient, the shared kernel and the bisection equal the reference forms."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([63, 64, 65, 131]), st.integers(4, 200)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-4, 1.0, 30.0]),
           calls=st.lists(st.tuples(st.sampled_from(["kl", "grad"]), st.integers(0, 2),
                                    st.integers(0, 2), st.sampled_from([1.0, 12.0, 4.0])),
                          min_size=1, max_size=12))
    def test_kernel_calls_on_one_workspace(self, n, seed, scale, calls):
        # Any order of calls on any P, coordinates and exaggeration: a
        # kernel or P-side term left by one call must serve only the same
        # coordinates or P, and a gradient must leave no kernel behind.
        rng = np.random.default_rng(seed)
        P = _joint_with_zeros(rng, n)
        Ps = (P, P * 12.0, _joint_with_zeros(rng, n))
        Y = rng.normal(0.0, scale, (n, 2))
        Ys = (Y, rng.normal(0.0, scale, (n, 2)), Y)
        work = Workspace(n)
        for kind, p, y, alpha in calls:
            if y == 2:
                Y += rng.normal(0.0, scale, (n, 2))  # same array, new values
            if kind == "kl":
                assert_kl_matches(Ps[p], Ys[y], kl_divergence(Ps[p], Ys[y], work))
            else:
                assert np.array_equal(kl_gradient(Ps[p], Ys[y], work, alpha),
                                      ref_kl_gradient(Ps[p] * alpha, Ys[y]))

    @pytest.mark.parametrize("n", [63, 64, 65, 131])
    def test_tail_pattern_at_block_edges(self, n):
        # The descent's tail: the KL of Y builds the kernel that the next
        # gradient, on an exaggerated P, reuses.
        rng = np.random.default_rng(n)
        P = _joint_with_zeros(rng, n)
        work = Workspace(n)
        for _ in range(3):
            Y = rng.normal(0.0, 1.0, (n, 2))
            assert_kl_matches(P, Y, kl_divergence(P, Y, work))
            assert np.array_equal(kl_gradient(P, Y, work, 12.0), ref_kl_gradient(P * 12.0, Y))

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([1e-3, 1.0, 1e3]), perplexity=st.floats(1.5, 40.0))
    def test_bisection(self, size, seed, spread, perplexity):
        # spread 1e3 underflows most of each row's probabilities to exact zeros
        row = np.random.default_rng(seed).uniform(0.0, spread, size)
        perplexity = min(perplexity, size - 0.5)
        beta, p = _bisect_row(row, perplexity, 1e-5, 0)
        assert beta == ref_bisect_row(row, perplexity, 1e-5)
        assert np.array_equal(p, ref_entropy_and_probs(row, beta)[0])
        for b in (beta, 1.0, 1e-3):
            new, old = _entropy_and_probs(row - row.min(), b), ref_entropy_and_probs(row, b)
            assert np.array_equal(new[0], old[0]) and new[1] == old[1]

    def test_one_kernel_per_tail_step(self, monkeypatch):
        built = []
        weights = epl.projection._student_t_weights
        monkeypatch.setattr(epl.projection, "_student_t_weights",
                            lambda *a, **k: built.append(1) or weights(*a, **k))
        X = generate_blobs(3, 12, 4, 0.5, 8.0, seed=3).features
        tsne_project(X, ProjectionConfig(perplexity=8.0, iterations=70, seed=1))
        # 70 gradients and 50 KLs, of which 49 share the next gradient's kernel
        assert len(built) == 70 + 50 - 49


# Run in a fresh interpreter that caps its own address space (RLIMIT_AS) at
# its size now plus `headroom` times one n x n float64 matrix, then projects
# n points; prints the ProjectionError and the function whose allocation failed.
_PROJECT_UNDER_RLIMIT = """
import json, os, resource, sys, traceback
import numpy as np
from epl.projection import ProjectionConfig, ProjectionError, tsne_project
n, headroom = int(sys.argv[1]), float(sys.argv[2])
X = np.random.default_rng(0).normal(size=(n, 2))
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS,
                   (size + int(headroom * n * n * 8), resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    tsne_project(X, ProjectionConfig(iterations=1))
except ProjectionError as exc:
    print(json.dumps([str(exc), type(exc.__cause__).__name__,
                      traceback.extract_tb(exc.__cause__.__traceback__)[-1].name]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
@pytest.mark.parametrize("headroom", [0.5, 1.5])
def test_out_of_memory_for_an_n_by_n_matrix_is_a_projection_error(headroom):
    # The workspace maps both matrices at once, before any work: with room
    # for half a matrix or for one and a half, its map fails.
    done = subprocess.run([sys.executable, "-c", _PROJECT_UNDER_RLIMIT, "8000", str(headroom)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                               "PYTHONPATH": str(Path(epl.__file__).resolve().parent.parent)})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        "out of memory: exact t-SNE of 8000 points holds two 8000 x 8000 float64 matrices, "
        "977 MB", "MemoryError", "__init__"]


def test_descent_holds_p_and_one_buffer(monkeypatch):
    # P, the workspace's n x n buffer and its two 64-row scratch blocks are
    # 2.26 n^2 float64 at n = 1000; an exaggerated copy of P, a second
    # buffer or an n x n KL temporary would pass 3 n^2. P and w are mapped
    # shared, which tracemalloc does not see: the workspace counts them.
    n = 1000
    X = generate_blobs(4, n // 4, 16, 0.5, 10.0, seed=1).features
    config = ProjectionConfig(perplexity=30.0, iterations=60, exaggeration_iters=30,
                              momentum_switch=30, seed=1)
    made = []

    class Counted(Workspace):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(epl.projection, "Workspace", Counted)
    tracemalloc.start()
    try:
        emb = tsne_project(X, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [work] = made
    assert work.nbytes >= 2 * n * n * 8  # P and w
    assert emb.kl_tail.size == 50
    assert peak + work.nbytes <= 2.5 * n * n * 8, (peak + work.nbytes) / (n * n * 8)


@pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                   MemoryError()], ids=["ENOMEM", "MemoryError"])
def test_a_shared_map_that_fails_is_the_out_of_memory_error(monkeypatch, error):
    maps = []

    def map_or_fail(*args, **kwargs):
        maps.append(args)
        raise error

    monkeypatch.setattr(mmap, "mmap", map_or_fail)
    X = np.random.default_rng(0).normal(size=(400, 3))
    with pytest.raises(ProjectionError) as raised:
        tsne_project(X, ProjectionConfig(iterations=1))
    assert str(raised.value) == ("out of memory: exact t-SNE of 400 points holds two "
                                 "400 x 400 float64 matrices, 2 MB")
    assert isinstance(raised.value.__cause__, MemoryError)
    assert len(maps) == 1
    _no_child_left()


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
        X = np.random.default_rng(3).normal(size=(20, 3))
        with pytest.raises(ProjectionError):
            tsne_project(X, ProjectionConfig(perplexity=50.0))
        with pytest.raises(ProjectionError):
            ProjectionConfig(iterations=0)

    @pytest.mark.parametrize("field,value,message", [
        ("perplexity", np.nan, "perplexity must be a number"),
        ("learning_rate", np.inf, "learning_rate"),
        ("learning_rate", np.nan, "learning_rate"),
        ("early_exaggeration", np.inf, "early_exaggeration"),
        ("early_exaggeration", -np.inf, "early_exaggeration"),
        ("momentum_start", -0.1, "momentum_start"),
        ("momentum_start", np.nan, "momentum_start"),
        ("momentum_final", np.inf, "momentum_final"),
        ("entropy_tolerance", 0.0, "entropy_tolerance"),
        ("entropy_tolerance", -1.0, "entropy_tolerance"),
        ("entropy_tolerance", np.nan, "entropy_tolerance"),
        ("entropy_tolerance", np.inf, "entropy_tolerance"),
        ("exaggeration_iters", -1, "exaggeration_iters"),
        ("momentum_switch", -5, "momentum_switch"),
    ])
    def test_bad_setting_is_rejected_by_name(self, field, value, message):
        with pytest.raises(ProjectionError, match=message):
            ProjectionConfig(**{field: value})

    def test_zero_phase_lengths_and_momentum_are_valid(self):
        cfg = ProjectionConfig(exaggeration_iters=0, momentum_switch=0, momentum_start=0.0,
                               momentum_final=0.0, iterations=3)
        X = np.random.default_rng(4).normal(size=(50, 3))
        assert np.isfinite(tsne_project(X, cfg).coordinates).all()

    def test_a_checked_config_cannot_be_edited(self):
        cfg = ProjectionConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.entropy_tolerance = np.inf

    @pytest.mark.parametrize("P_shape,coords_shape", [
        ((6, 6), (5, 2)), ((5, 4), (5, 2)), ((5, 5, 1), (5, 2)), ((5,), (5, 2)),
        ((5, 5), (5,)), ((5, 5), (5, 2, 1)), ((0, 0), ()),
    ])
    def test_kernels_reject_mismatched_shapes(self, P_shape, coords_shape):
        P = np.full(P_shape, 0.01)
        coords = np.zeros(coords_shape)
        for kernel in (kl_gradient, kl_divergence):
            with pytest.raises(ProjectionError, match="coordinates|shape"):
                kernel(P, coords)

    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [6, 130])
    def test_kernels_reject_a_p_that_is_not_a_distribution(self, n, value):
        rng = np.random.default_rng(n)
        coords = rng.normal(size=(n, 2))
        P = np.full((n, n), 1.0 / (n * (n - 1)))
        np.fill_diagonal(P, 0.0)
        i = n - 2  # the last row block when n > 64, so the error offsets its row
        P[i, 1] = value
        work = Workspace(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (kl_gradient, kl_divergence):
                with pytest.raises(ProjectionError, match=rf"P\[{i}, 1\] is .*"
                                                          "finite and non-negative"):
                    kernel(P, coords)
                with pytest.raises(ProjectionError, match="finite and non-negative"):
                    kernel(P, coords, work)

    def test_kernels_reject_coordinates_whose_distances_all_overflow(self):
        rng = np.random.default_rng(5)
        P = pairwise_affinities(rng.normal(size=(6, 3)), 2.0)
        coords = rng.normal(size=(6, 2)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (kl_gradient, kl_divergence):
                with pytest.raises(ProjectionError, match="float64 overflow"):
                    kernel(P, coords)

    def test_kernels_reject_a_workspace_of_another_size(self):
        P, coords = np.full((5, 5), 0.04), np.zeros((5, 2))
        for kernel in (kl_gradient, kl_divergence):
            with pytest.raises(ProjectionError, match="5 x 5"):
                kernel(P, coords, Workspace(6))
        with pytest.raises(ProjectionError, match="5 x 5"):
            pairwise_affinities(np.eye(5), 2.0, work=Workspace(6))

    def test_affinities_rebuilt_in_a_workspace_renew_its_p_log_p(self):
        # The workspace's P is one array: built again, its sum p log p is
        # taken again.
        rng = np.random.default_rng(3)
        X, Y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
        work = Workspace(40)
        kl_divergence(pairwise_affinities(X, 5.0, work=work), Y, work)
        P = pairwise_affinities(X, 9.0, work=work)
        assert kl_divergence(P, Y, work) == kl_divergence(P.copy(), Y)

    def test_a_kernel_given_another_p_replaces_the_workspaces_p(self):
        # The array pairwise_affinities returned for a workspace is its P, and
        # a kernel call with that workspace and another P copies the other P
        # into it: the returned array changes, an invalid P included.
        rng = np.random.default_rng(4)
        X, Y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
        for kernel in (kl_gradient, kl_divergence):
            work = Workspace(40)
            P = pairwise_affinities(X, 5.0, work=work)
            other = pairwise_affinities(X, 9.0)
            kernel(other, Y, work)
            assert P is work.p and np.array_equal(P, other)
            bad = other.copy()
            bad[1, 2] = -1.0
            with pytest.raises(ProjectionError, match=r"P\[1, 2\] is -1.0"):
                kernel(bad, Y, work)
            assert np.array_equal(P, bad)

    def test_embedding_requires_finite_coordinates(self):
        with pytest.raises(ProjectionError):
            Embedding2D(np.array([[0.0, np.inf]]), np.empty(0))


@contextmanager
def _forced_sides(sides):
    """A context in which every workspace entered splits its passes between `sides` sides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epl.projection, "_side_count", lambda n: sides)
        yield mp


@contextmanager
def _callers(mp, *names):
    """Wrap each of epl.projection's `names` for the context; yields a
    function that returns, per name, the ids of the processes that called
    it so far, a helper's too."""
    with tempfile.TemporaryDirectory() as directory:
        log = os.open(os.path.join(directory, "calls"), os.O_RDWR | os.O_CREAT | os.O_APPEND)

        def logged(name, real):
            def call(*args, **kwargs):
                os.write(log, f"{name} {os.getpid()}\n".encode())
                return real(*args, **kwargs)
            return call

        for name in names:
            mp.setattr(epl.projection, name, logged(name, getattr(epl.projection, name)))

        def callers():
            seen = {name: set() for name in names}
            for line in os.pread(log, 1 << 24, 0).decode().splitlines():
                name, pid = line.split()
                seen[name].add(int(pid))
            return seen

        try:
            yield callers
        finally:
            os.close(log)


def _no_child_left():
    # waitpid raises ChildProcessError only when this process has no child,
    # running or exited.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="the helper is forked on Linux")


class TestSideCount:
    """One side or two: the kernels and the descent give the same bytes."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.one_of(st.sampled_from([4, 11, 12, 63, 64, 65, 127, 129, 191, 193, 257]),
                       st.integers(4, 300)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-4, 1.0, 30.0]))
    def test_bytes_do_not_depend_on_the_side_count(self, n, seed, scale):
        # n <= 64 runs on one side unless forced; n <= 11 leaves the weight
        # sum unsplit (n^2 <= 128); odd n puts the sum's midpoint mid-row.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        P = _joint_with_zeros(rng, n)
        Y = rng.normal(0.0, scale, (n, 2))
        config = ProjectionConfig(perplexity=min(5.0, (n - 1) / 2), iterations=60,
                                  exaggeration_iters=20, momentum_switch=20, seed=seed % 97)
        results, processes = {}, {}
        for sides in (1, 2):
            # The weights, the gradient and KL passes, and the bisection.
            with _forced_sides(sides) as mp, _callers(
                    mp, "cdist_sqeuclidean", "_row_blocks", "_bisect_rows") as callers:
                emb = tsne_project(X, config)
                results[sides] = (kl_gradient(P, Y), kl_gradient(P, Y, exaggeration=12.0),
                                  kl_divergence(P, Y), emb.coordinates, emb.kl_tail)
                processes[sides] = callers()
        for pids in processes[1].values():
            assert pids == {os.getpid()}
        for pids in processes[2].values():
            assert os.getpid() in pids and len(pids) == 2
        one, two = results[1], results[2]
        assert all(np.array_equal(a, b) for a, b in zip(one, two))
        assert np.array_equal(one[0], ref_kl_gradient(P, Y))
        assert np.array_equal(one[1], ref_kl_gradient(P * 12.0, Y))


@pytest.mark.parametrize("kind", ["normal", "cauchy", "lognormal"])
@pytest.mark.parametrize("size", [129, 130, 135, 136, 255, 257, 1000, 4097, 8193, 65537,
                                  313600, 1_000_003])
def test_weight_sum_splits_where_numpy_pairwise_sum_does(size, kind):
    # The weight sum S is the sum of the two parts `_sum_halves` cuts, so that
    # it equals w.sum() on one side or two. A numpy that moves its
    # pairwise split fails here by name instead of in every golden digest.
    rng = np.random.default_rng(size)
    a = {"normal": rng.normal, "cauchy": rng.standard_cauchy,
         "lognormal": lambda size: rng.lognormal(0.0, 4.0, size)}[kind](size=size)
    first, second = _sum_halves(size)
    assert first.stop == second.start and second.stop == size
    assert a.sum() == a[first].sum() + a[second].sum(), (
        f"numpy {np.__version__} no longer sums {size} contiguous float64 items as the "
        f"sums of items [0, {first.stop}) and [{first.stop}, {size}): epl.projection's "
        "weight sum S must follow its pairwise split")


@pytest.mark.parametrize("n", [5, 11, 12, 65, 559, 560])
def test_weight_sum_equals_the_matrix_sum(n):
    coords = np.random.default_rng(n).normal(0.0, 1.0, (n, 2))
    for sides in (1, 2):
        with _forced_sides(sides), Workspace(n) as work:
            total = epl.projection._student_t_weights(work, coords)
            out = work.w.copy()
        assert np.array_equal(out, ref_weights(coords))
        assert total == out.sum(), f"numpy {np.__version__}"


@pytest.fixture
def watchdog():
    """End the run with every thread's traceback (seen with -s) and a failing
    exit code instead of hanging on a deadlock."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def forks(monkeypatch):
    """The process ids of the helpers forked from here on."""
    pids, real_fork = [], epl.host.fork

    def recorded(main):
        child = real_fork(main)  # only this process returns
        if child is not None:
            pids.append(child.pid)
        return child

    monkeypatch.setattr(epl.host, "fork", recorded)
    return pids


class TwoArgError(Exception):
    """Pickles, but cannot be unpickled: its __init__ needs two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


PR_SET_CHILD_SUBREAPER = 36  # prctl option, <linux/prctl.h>


def _running(pid: int) -> bool:
    """Whether process `pid` still runs: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


# A caller whose descent runs until it is killed: after its tenth gradient
# it prints its helper's process id.
_KILLED_MID_DESCENT = """
import numpy as np
import epl.projection as projection
projection._side_count = lambda n: 2
real_gradient, calls = projection.kl_gradient, []

def gradient(P, coords, work=None, exaggeration=1.0):
    calls.append(1)
    if len(calls) == 10:
        print(work._helper.pid, flush=True)
    return real_gradient(P, coords, work, exaggeration)

projection.kl_gradient = gradient
X = np.random.default_rng(0).normal(size=(200, 3))
projection.tsne_project(X, projection.ProjectionConfig(perplexity=10.0, iterations=10**7))
"""


@needs_fork
@pytest.mark.usefixtures("watchdog")
class TestHelperProcess:
    """The helper process ends with its call or its caller, and a failure on
    either half is raised, not hung."""

    n = 130

    def _inputs(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(self.n, 3))
        return X, pairwise_affinities(X, 5.0), rng.normal(size=(self.n, 2))

    @pytest.mark.parametrize("sides", [1, 2])
    def test_no_child_outlives_a_call(self, sides, forks):
        X, P, Y = self._inputs()
        config = ProjectionConfig(perplexity=5.0, iterations=30, exaggeration_iters=10,
                                  momentum_switch=10)
        with _forced_sides(sides):
            calls = [lambda: tsne_project(X, config), lambda: kl_gradient(P, Y),
                     lambda: kl_divergence(P, Y)]
            failing = [lambda: tsne_project(X, ProjectionConfig(
                           perplexity=5.0, iterations=30, learning_rate=1e300)),
                       lambda: kl_gradient(P, Y * 1e200), lambda: kl_divergence(P, Y * 1e200)]
            for call in calls:
                call()
                _no_child_left()
            for call in failing:
                with pytest.raises(ProjectionError, match="overflow|not finite"):
                    call()
                _no_child_left()
        # Only the projections enter a workspace; standalone kernels fork nothing.
        assert len(forks) == (2 if sides == 2 else 0)

    @pytest.mark.parametrize("failing_half", ["helper", "caller", "both"])
    @pytest.mark.parametrize("call", ["tsne_project", "kl_gradient", "kl_divergence"])
    def test_a_failing_half_comes_back_with_its_type_and_message(self, monkeypatch, forks,
                                                                failing_half, call):
        # Where both halves fail, the caller's exception is the one raised.
        X, _, Y = self._inputs()
        real_cdist = epl.projection.cdist_sqeuclidean

        def cdist(XA, XB, *args, **kwargs):
            # Row halves come as XA = XB[rows]; the helper's starts past row 0.
            if len(XA) < len(XB) and (failing_half == "both" or (
                    (XA[0] == XB[0]).all() == (failing_half == "caller"))):
                raise RuntimeError(f"injected failure in process {os.getpid()}")
            return real_cdist(XA, XB, *args, **kwargs)

        # Patched before the fork, so the helper runs it too.
        monkeypatch.setattr(epl.projection, "cdist_sqeuclidean", cdist)
        with _forced_sides(2), Workspace(self.n) as work:
            P = pairwise_affinities(X, 5.0, work=work)
            run = {"tsne_project": lambda: tsne_project(X, ProjectionConfig(perplexity=5.0)),
                   "kl_gradient": lambda: kl_gradient(P, Y, work),
                   "kl_divergence": lambda: kl_divergence(P, Y, work)}[call]
            with pytest.raises(RuntimeError) as raised:
                run()
        [helper] = forks if call != "tsne_project" else forks[1:]
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == "injected failure in process " + str(
            helper if failing_half == "helper" else os.getpid())
        _no_child_left()

    @pytest.mark.parametrize("kind, message", [
        ("unpicklable", "weights_half on the helper, 130 points: LocalError: local "
         "(not sent back whole: "),
        ("unreadable", "weights_half on the helper, 130 points: its answer could not "
         "be read: TypeError: "),
    ])
    def test_a_helper_exception_that_cannot_come_back_is_a_projection_error(
            self, monkeypatch, forks, kind, message):
        _, P, Y = self._inputs()
        real_cdist = epl.projection.cdist_sqeuclidean

        class LocalError(Exception):  # pickle cannot find a local class by name
            pass

        def cdist(XA, XB, *args, **kwargs):
            if not (XA[0] == XB[0]).all():  # the helper's half
                raise LocalError("local") if kind == "unpicklable" else TwoArgError("two", "args")
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(epl.projection, "cdist_sqeuclidean", cdist)
        with _forced_sides(2), Workspace(self.n) as work:
            with pytest.raises(ProjectionError) as raised:
                kl_gradient(P, Y, work)
        assert str(raised.value).startswith(message), str(raised.value)
        assert len(forks) == 1
        _no_child_left()

    def test_a_workspace_keeps_working_after_its_helper_failed(self, monkeypatch, forks):
        X, _, Y = self._inputs()
        real_cdist = epl.projection.cdist_sqeuclidean
        failures = [1]  # the helper's copy: one failure in the helper's first half

        def cdist(XA, XB, *args, **kwargs):
            if len(XA) < len(XB) and not (XA[0] == XB[0]).all() and failures:
                failures.pop()
                raise MemoryError("injected")
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(epl.projection, "cdist_sqeuclidean", cdist)
        with _forced_sides(2), Workspace(self.n) as work:
            P = pairwise_affinities(X, 5.0, work=work)
            with pytest.raises(MemoryError, match="injected"):
                kl_gradient(P, Y, work)
            assert np.array_equal(kl_gradient(P, Y, work), ref_kl_gradient(P, Y))
            assert _running(forks[0])
        assert len(forks) == 1 and failures == [1]
        _no_child_left()

    def test_a_p_shared_after_the_fork_gets_a_helper_that_sees_it(self, forks):
        X, P_here, Y = self._inputs()
        with _forced_sides(2), Workspace(self.n) as work:
            kl_divergence(P_here, Y, work)  # forks the helper before P is built
            P = pairwise_affinities(X, 5.0, work=work)
            assert np.array_equal(kl_gradient(P, Y, work), ref_kl_gradient(P, Y))
            assert len(forks) == 1 and _running(forks[0])
        _no_child_left()

    @pytest.mark.parametrize("how, death", [("exit", "exit code 3"), ("signal", "signal 9"),
                                            ("idle", "signal 9")])
    def test_a_helper_that_dies_is_a_projection_error(self, monkeypatch, forks, how, death):
        # The helper exits or is killed in its half, or is killed between splits.
        X, _, Y = self._inputs()
        real_cdist, parent = epl.projection.cdist_sqeuclidean, os.getpid()

        def cdist(XA, XB, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3) if how == "exit" else os.kill(os.getpid(), 9)
            return real_cdist(XA, XB, *args, **kwargs)

        if how != "idle":
            monkeypatch.setattr(epl.projection, "cdist_sqeuclidean", cdist)
        with _forced_sides(2), Workspace(self.n) as work:
            P = pairwise_affinities(X, 5.0, work=work)
            if how == "idle":
                os.kill(forks[0], 9)
            with pytest.raises(ProjectionError, match=(
                    f"^weights_half on the helper, 130 points: the child process ended "
                    f"with {death} before answering$")):
                kl_gradient(P, Y, work)
            _no_child_left()
            # The caller runs both halves from then on.
            assert np.array_equal(kl_gradient(P, Y, work), ref_kl_gradient(P, Y))
        assert len(forks) == 1

    def test_without_a_fork_both_halves_run_here(self, monkeypatch, forks):
        X, _, _ = self._inputs()
        config = ProjectionConfig(perplexity=5.0, iterations=60, exaggeration_iters=20,
                                  momentum_switch=20)
        with _forced_sides(1):
            expected = tsne_project(X, config)

        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        with _forced_sides(2) as mp, _callers(mp, "cdist_sqeuclidean") as callers:
            emb = tsne_project(X, config)
            assert callers() == {"cdist_sqeuclidean": {os.getpid()}}
        assert forks == []
        assert np.array_equal(emb.coordinates, expected.coordinates)
        assert np.array_equal(emb.kl_tail, expected.kl_tail)
        _no_child_left()

    def test_projections_from_other_threads_run_one_side(self, forks):
        # Three projections at once, each on its own thread, under the real
        # side rule: no fork while another thread runs, and the bytes of a
        # one-sided projection on the main thread.
        X, _, _ = self._inputs()
        config = ProjectionConfig(perplexity=5.0, iterations=40, exaggeration_iters=10,
                                  momentum_switch=10)
        results = [None] * 3

        def project(i):
            results[i] = tsne_project(X, config)

        with _forced_sides(1):
            expected = tsne_project(X, config)
        threads = [threading.Thread(target=project, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for emb in results:
            assert emb is not None, "a projection raised on its thread"
            assert np.array_equal(emb.coordinates, expected.coordinates)
            assert np.array_equal(emb.kl_tail, expected.kl_tail)
        assert forks == []

    def test_a_killed_caller_leaves_no_helper(self):
        # As a child subreaper, this process adopts the helper once its caller
        # dies, so it can reap the helper and read how it ended.
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            pytest.skip("cannot adopt orphaned processes here")
        try:
            caller = subprocess.Popen(
                [sys.executable, "-c", _KILLED_MID_DESCENT], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                     "PYTHONPATH": str(Path(epl.__file__).resolve().parent.parent)})
            try:
                line = caller.stdout.readline()
            finally:
                caller.kill()
                _, errors = caller.communicate()
            assert line.strip().isdigit(), errors
            helper, status = int(line), None
            deadline = time.monotonic() + 2.0
            while status is None and time.monotonic() < deadline:
                pid, code = os.waitpid(helper, os.WNOHANG)
                status = os.waitstatus_to_exitcode(code) if pid else None
                time.sleep(0.01)
            if status is None:
                os.kill(helper, 9)
                os.waitpid(helper, 0)
        finally:
            libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
        # Exit code 0: the helper read EOF on its job pipe and returned.
        assert status == 0, f"helper {helper} had not ended 2 s after its caller died"
        _no_child_left()

    def test_the_helper_computes_under_the_callers_numpy_error_state(self):
        _, P, Y = self._inputs()
        P[self.n - 1, 0] = 1e300  # in the helper's half: alpha P overflows there
        results = []
        for sides in (1, 2):
            with _forced_sides(sides), Workspace(self.n) as work, np.errstate(all="ignore"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                results.append(kl_gradient(P, Y, work, exaggeration=1e10).tobytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("kernel", [kl_gradient, kl_divergence])
    def test_a_standalone_kernel_call_runs_on_the_callers_thread(self, monkeypatch, kernel):
        # Every half of every pass (kernel build, weight sum, gradient or KL)
        # asks `_halves` or `_sum_halves` for its rows on the thread that runs it.
        _, P, Y = self._inputs()
        seen = []

        def spy(real):
            def recorded(size):
                seen.append(threading.current_thread().name)
                return real(size)
            return recorded

        with _forced_sides(2):
            for name in ("_halves", "_sum_halves"):
                monkeypatch.setattr(epl.projection, name, spy(getattr(epl.projection, name)))
            kernel(P, Y)
        assert len(seen) == 6 and set(seen) == {threading.current_thread().name}
