import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epl.contrastive import (ADAM_EPS, BETA1, BETA2, LATENT_DIM, ContrastiveError,
                             EncoderParams, TrainConfig, augment, extract_features,
                             finetune_supcon, init_params, make_view_batch, ntxent_loss,
                             relu_mlp, relu_mlp_backward, safe_std, supcon_loss, train,
                             _AdamW, _backward, _forward)
from epl.dataset import generate_blobs, stratified_split
from epl.metrics import knn_consistency


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def ntxent_scalar_oracle(Z, tau):
    """Straight-line evaluation of the pairwise loss formula."""
    n = Z.shape[0]
    total = 0.0
    for i in range(n):
        j = i ^ 1
        num = np.exp(Z[i] @ Z[j] / tau)
        den = sum(np.exp(Z[i] @ Z[a] / tau) for a in range(n) if a != i)
        total += -np.log(num / den)
    return total / n


def _masked_logits_reference(Z, tau):
    s = Z @ Z.T
    s /= tau
    np.fill_diagonal(s, -np.inf)
    return s


def _softmax_reference(s):
    row_max = s.max(axis=1, keepdims=True)
    e = np.exp(s - row_max)
    total = e.sum(axis=1, keepdims=True)
    return e / total, (np.log(total) + row_max)[:, 0]


def ntxent_mask_reference(Z, tau):
    """The partner-indexed loss and its softmax-based gradient, as the pair
    loss was written before it took positive sums."""
    n = Z.shape[0]
    rows = np.arange(n)
    partner = rows ^ 1
    s = _masked_logits_reference(Z, tau)
    positive = s[rows, partner]
    g, log_denom = _softmax_reference(s)
    loss = float((log_denom - positive).mean())
    g[rows, partner] -= 1.0
    g /= n
    return loss, (g @ Z + g.T @ Z) / tau


def supcon_mask_reference(Z, labels, tau):
    """The B x B positive-mask form of the supervised loss and its gradient."""
    y = np.asarray(labels, dtype=np.int64)
    n = Z.shape[0]
    pos = y[:, None] == y[None, :]
    np.fill_diagonal(pos, False)
    counts = pos.sum(axis=1)
    s = _masked_logits_reference(Z, tau)
    positive = np.where(pos, s, 0.0).sum(axis=1) / counts
    g, log_denom = _softmax_reference(s)
    loss = float((log_denom - positive).mean())
    g -= pos / counts[:, None]
    g /= n
    return loss, (g @ Z + g.T @ Z) / tau


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays().values(),
                                                    b.arrays().values()))


class TestAugment:
    def test_zero_strength_is_identity(self):
        x = np.random.default_rng(0).normal(size=12)
        assert np.array_equal(augment(x, 0.0, 0.0, 1.0, np.random.default_rng(1)), x)

    def test_full_dropout_zeroes_everything(self):
        x = np.random.default_rng(0).normal(size=12)
        assert not augment(x, 0.2, 1.0, 1.0, np.random.default_rng(1)).any()

    def test_empirical_dropout_rate(self):
        rng = np.random.default_rng(2)
        x = np.ones(8)
        zeros = 0
        draws = 10_000
        for _ in range(draws):
            zeros += (augment(x, 0.5, 0.3, 1.0, rng) == 0.0).sum()
        rate = zeros / (draws * 8)
        assert abs(rate - 0.3) <= 0.01

    def test_determinism_per_stream_state(self):
        x = np.arange(6, dtype=float)
        a = augment(x, 0.2, 0.1, 1.0, np.random.default_rng(33))
        b = augment(x, 0.2, 0.1, 1.0, np.random.default_rng(33))
        assert np.array_equal(a, b)


class TestEncode:
    def _zero_params(self, d=5):
        p = init_params(d, np.random.default_rng(0))
        for arr in p.arrays().values():
            arr[...] = 0.0
        return p

    def test_zero_params_give_basis_head(self):
        p = self._zero_params()
        cache = _forward(p, np.ones((1, 5)))
        latent, head = cache["latent"][0], cache["head"][0]
        assert not latent.any()
        assert head[0] == 1.0 and not head[1:].any()

    def test_unit_norm_heads(self):
        rng = np.random.default_rng(1)
        p = init_params(7, rng)
        heads = _forward(p, rng.normal(size=(1000, 7)))["head"]
        assert np.abs(np.linalg.norm(heads, axis=1) - 1.0).max() <= 1e-9

    def test_positive_scaling_of_head_layer_is_invisible(self):
        rng = np.random.default_rng(2)
        p = init_params(6, rng)
        x = rng.normal(size=(10, 6))
        base = _forward(p, x)["head"]
        p.v2 *= 2.0
        p.c2 *= 2.0
        doubled = _forward(p, x)["head"]
        assert np.allclose(base, doubled, atol=1e-12)

    def test_dimension_mismatch(self):
        data = generate_blobs(2, 10, 5, 0.5, 6.0, seed=0)
        p = init_params(4, np.random.default_rng(0))
        with pytest.raises(ContrastiveError, match="dimension"):
            extract_features(p, data, [0])

    def test_extract_features_is_the_forward_latent(self):
        data = generate_blobs(3, 30, 6, 0.7, 8.0, seed=4)
        p = init_params(6, np.random.default_rng(5))
        rows = np.array([7, 0, 33, 89, 33])
        every = np.arange(data.sample_count)
        assert np.array_equal(extract_features(p, data, every),
                              _forward(p, data.features)["latent"])
        assert np.array_equal(extract_features(p, data, rows),
                              _forward(p, data.features[rows])["latent"])
        narrow = init_params(5, np.random.default_rng(5))
        with pytest.raises(ContrastiveError, match="dimension"):
            extract_features(narrow, data, every)

    def test_identity_construction_recovers_input(self):
        # identity blocks pass non-negative inputs through to the first latent columns
        p = init_params(4, np.random.default_rng(0))
        p.w1[...] = 0.0
        p.w1[:4, :4] = np.eye(4)
        p.b1[...] = 0.0
        p.w2[...] = 0.0
        p.w2[:4, :4] = np.eye(4)
        p.b2[...] = 0.0
        x = np.abs(np.random.default_rng(1).normal(size=(6, 4)))
        latent = _forward(p, x)["latent"]
        assert np.array_equal(latent[:, :4], x)
        assert not latent[:, 4:].any()


class TestLosses:
    def test_identical_embeddings_hit_log_bound(self):
        for b in (2, 4, 8):
            z = np.tile(unit_rows(np.random.default_rng(3), 1, 6), (2 * b, 1))
            loss, _ = ntxent_loss(z, 0.07, True)
            assert loss == pytest.approx(np.log(2 * b - 1), abs=1e-9)
            loss_s, _ = supcon_loss(z, np.zeros(2 * b, dtype=int), 0.07, True)
            assert loss_s == pytest.approx(np.log(2 * b - 1), abs=1e-9)

    def test_micro_batch_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        Z = unit_rows(rng, 4, 5)
        loss, _ = ntxent_loss(Z, 0.3, True)
        assert loss == pytest.approx(ntxent_scalar_oracle(Z, 0.3), abs=1e-10)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            Z = unit_rows(rng, 8, 4)
            assert ntxent_loss(Z, 0.07, True)[0] >= 0.0
            labels = rng.integers(0, 2, 8)
            labels[1::2] = labels[::2]  # partners share labels
            assert supcon_loss(Z, np.repeat(labels[::2], 2), 0.07, True)[0] >= 0.0

    def test_supcon_equals_ntxent_with_one_positive_each(self):
        rng = np.random.default_rng(6)
        Z = unit_rows(rng, 12, 6)
        labels = np.repeat(np.arange(6), 2)
        ln, gn = ntxent_loss(Z, 0.07, True)
        ls, gs = supcon_loss(Z, labels, 0.07, True)
        assert abs(ln - ls) <= 1e-10
        assert np.abs(gn - gs).max() <= 1e-10

    @pytest.mark.parametrize("loss_name", ["ntxent", "supcon"])
    def test_gradients_match_finite_differences(self, loss_name):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            Z = unit_rows(rng, 8, 5)
            labels = np.repeat(rng.integers(0, 2, 4), 2)
            if loss_name == "ntxent":
                fn = lambda z: ntxent_loss(z, 0.07, True)
            else:
                fn = lambda z: supcon_loss(z, labels, 0.07, True)
            _, grad = fn(Z)
            h = 1e-6
            fd = np.zeros_like(Z)
            for i in range(Z.shape[0]):
                for j in range(Z.shape[1]):
                    plus, minus = Z.copy(), Z.copy()
                    plus[i, j] += h
                    minus[i, j] -= h
                    fd[i, j] = (fn(plus)[0] - fn(minus)[0]) / (2 * h)
            worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
        assert worst <= 1e-5

    def test_singleton_class_is_an_error_naming_the_view(self):
        rng = np.random.default_rng(8)
        Z = unit_rows(rng, 4, 3)
        with pytest.raises(ContrastiveError, match="view 2"):
            supcon_loss(Z, np.array([0, 0, 1, 2]), 0.07, True)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -0.5])
    def test_bad_temperature(self, tau):
        Z = unit_rows(np.random.default_rng(9), 4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (lambda: ntxent_loss(Z, tau, True),
                       lambda: supcon_loss(Z, [0, 0, 1, 1], tau, False)):
                with pytest.raises(ContrastiveError,
                                   match="temperature must be positive and finite"):
                    fn()

    @pytest.mark.parametrize("labels", [[0.5, 0.9, 1.2, 1.7], [0.0, 0.0, float("nan"), 1.0],
                                        [0.0, 0.0, 1.0, float("inf")], [0, 0, 1e300, 1e300],
                                        ["a", "a", "b", "b"]])
    def test_labels_must_be_whole_numbers(self, labels):
        Z = unit_rows(np.random.default_rng(17), 4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContrastiveError, match="labels must be whole numbers"):
                supcon_loss(Z, labels, 0.1, True)

    def test_whole_float_labels_are_the_integer_labels(self):
        Z = unit_rows(np.random.default_rng(18), 6, 3)
        assert (supcon_loss(Z, [2.0, 2.0, -1.0, -1.0, 2.0, 2.0], 0.1, False)
                == supcon_loss(Z, [2, 2, -1, -1, 2, 2], 0.1, False))

    def test_view_batch_pairing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 3))
        views, labels = make_view_batch(X, np.arange(5), 0.1, 0.0, 1.0, rng)
        assert views.shape == (10, 3)
        # views 2t and 2t+1 are noisy copies of row t, so it is their nearest row
        nearest = np.argmin(((views[:, None, :] - X[None]) ** 2).sum(axis=2), axis=1)
        assert nearest.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert labels.tolist() == nearest.tolist()
        views, labels = make_view_batch(X, None, 0.0, 0.0, 1.0, rng)
        assert np.array_equal(views, np.repeat(X, 2, axis=0)) and labels is None


class TestEndToEndBackprop:
    def test_sampled_weights_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = init_params(6, rng)
        X = rng.normal(size=(8, 6))

        def total(p):
            return ntxent_loss(_forward(p, X)["head"], 0.07, True)[0]

        cache = _forward(params, X)
        loss, d_head = ntxent_loss(cache["head"], 0.07, True)
        grads = _backward(params, cache, d_head, params.zeros_like()).arrays()
        h = 1e-6
        names = list(params.arrays())
        worst = 0.0
        for _ in range(50):
            name = names[rng.integers(0, len(names))]
            arr = getattr(params, name)
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            plus = total(params)
            arr[idx] = orig - h
            minus = total(params)
            arr[idx] = orig
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(grads[name][idx] - fd) / max(abs(fd), 1e-10))
        assert worst <= 1e-4


class TestLossOnly:
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.integers(2, 40), dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           classes=st.integers(1, 3))
    def test_loss_is_bitwise_equal_with_and_without_gradients(self, pairs, dim, seed,
                                                              classes):
        rng = np.random.default_rng(seed)
        Z = unit_rows(rng, 2 * pairs, dim)
        labels = np.repeat(rng.integers(0, classes, pairs), 2)
        tau = rng.uniform(0.05, 1.0)
        assert ntxent_loss(Z, tau, False) == (ntxent_loss(Z, tau, True)[0], None)
        assert supcon_loss(Z, labels, tau, False) == (supcon_loss(Z, labels, tau, True)[0], None)

    def test_zero_norm_head_row_takes_the_masked_path(self):
        rng = np.random.default_rng(14)
        params = init_params(5, rng)  # zero biases
        X = rng.normal(size=(8, 5))
        X[3] = 0.0  # every layer maps it to zero, so its head norm is zero
        cache = _forward(params, X)
        assert cache["ok"].sum() == 7
        assert np.array_equal(cache["head"][3], np.eye(16)[0])
        labels = np.repeat([0, 1, 0, 1], 2)
        for fn in (lambda z, g: ntxent_loss(z, 0.1, g),
                   lambda z, g: supcon_loss(z, labels, 0.1, g)):
            loss, d_head = fn(cache["head"], True)
            assert fn(cache["head"], False) == (loss, None)
            grads = _backward(params, cache, d_head, params.zeros_like())
            assert np.isfinite(grads.flat).all()


_PAIRS_AND_CLASSES = st.integers(2, 64).flatmap(
    lambda pairs: st.tuples(st.just(pairs), st.integers(1, pairs)))


class TestPositiveSums:
    @settings(max_examples=150, deadline=None)
    @given(pairs_classes=_PAIRS_AND_CLASSES, dim=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1), tau=st.floats(0.05, 1.0),
           duplicates=st.integers(0, 4), basis_rows=st.integers(0, 2))
    def test_losses_match_the_mask_reference(self, pairs_classes, dim, seed, tau,
                                             duplicates, basis_rows):
        pairs, classes = pairs_classes
        rng = np.random.default_rng(seed)
        n = 2 * pairs
        Z = unit_rows(rng, n, dim)
        for _ in range(duplicates):
            Z[rng.integers(n)] = Z[rng.integers(n)]
        # the head of a zero-norm row is the first basis vector
        Z[rng.choice(n, basis_rows, replace=False)] = np.eye(dim)[0]
        labels = np.repeat(rng.integers(0, classes, pairs), 2)
        for got, want in ((ntxent_loss(Z, tau, True), ntxent_mask_reference(Z, tau)),
                          (supcon_loss(Z, labels, tau, True),
                           supcon_mask_reference(Z, labels, tau))):
            assert abs(got[0] - want[0]) <= 1e-10
            # Each gradient term is at most ~1 / (n tau); where they cancel
            # exactly (all views equal) both sides are rounding noise.
            scale = max(np.abs(want[1]).max(), 1.0 / (n * tau))
            assert np.abs(got[1] - want[1]).max() <= 1e-9 * scale

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_peak_memory_is_one_logit_matrix(self, with_grad):
        b = 1024
        rng = np.random.default_rng(15)
        Z = unit_rows(rng, b, 16)
        labels = np.repeat(rng.integers(0, 4, b // 2), 2)
        for fn in (lambda: ntxent_loss(Z, 0.1, with_grad),
                   lambda: supcon_loss(Z, labels, 0.1, with_grad)):
            tracemalloc.start()
            try:
                fn()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * b * b * 8


def forward_backward_reference(params, X, d_head):
    """The head normalization and its gradient as two paths: every row
    unit-normed, or a masked path that handles the zero-norm rows apart."""
    a1, h1, latent = relu_mlp(X, params.w1, params.b1, params.w2, params.b2)
    a2, h2, raw = relu_mlp(latent, params.v1, params.c1, params.v2, params.c2)
    norms = np.sqrt((raw ** 2).sum(axis=1))
    ok = norms > 1e-12
    if ok.all():
        head = raw / norms[:, None]
        inner = (d_head * head).sum(axis=1, keepdims=True)
        d_raw = (d_head - inner * head) / norms[:, None]
    else:
        head = np.empty_like(raw)
        head[ok] = raw[ok] / norms[ok, None]
        head[~ok] = 0.0
        head[~ok, 0] = 1.0
        d_raw = np.zeros_like(d_head)
        inner = (d_head[ok] * head[ok]).sum(axis=1, keepdims=True)
        d_raw[ok] = (d_head[ok] - inner * head[ok]) / norms[ok, None]
    grads = params.zeros_like()
    d_a2 = relu_mlp_backward(latent, a2, h2, params.v2, d_raw,
                             (grads.v1, grads.c1, grads.v2, grads.c2))
    relu_mlp_backward(X, a1, h1, params.w2, d_a2 @ params.v1.T,
                      (grads.w1, grads.b1, grads.w2, grads.b2))
    return head, grads


@settings(max_examples=200, deadline=None)
@given(views=st.integers(1, 160), dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.integers(0, 4))
def test_one_masked_path_equals_the_two_path_head(views, dim, seed, zero_rows):
    rng = np.random.default_rng(seed)
    params = init_params(dim, rng)  # zero biases: a zero input row has a zero head norm
    X = rng.normal(size=(views, dim))
    X[rng.choice(views, min(zero_rows, views), replace=False)] = 0.0
    d_head = rng.normal(size=(views, params.v2.shape[1]))
    head, grads = forward_backward_reference(params, X, d_head)
    cache = _forward(params, X)
    assert np.array_equal(cache["head"], head)
    assert np.array_equal(_backward(params, cache, d_head, params.zeros_like()).flat, grads.flat)


def adamw_reference(theta: dict, m: dict, v: dict, grads: dict, t: int, lr: float,
                    weight_decay: float) -> None:
    """The per-array AdamW step: the flat step must match it bit for bit."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, g in grads.items():
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        theta[name] -= lr * (update + weight_decay * theta[name])


_SHAPE = st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple)


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(_SHAPE, min_size=8, max_size=8), seed=st.integers(0, 2**32 - 1),
       weight_decay=st.floats(1e-6, 0.5))
def test_flat_adamw_step_equals_the_per_array_step(shapes, seed, weight_decay):
    rng = np.random.default_rng(seed)
    names = EncoderParams._FIELDS
    params = EncoderParams(*(rng.normal(size=shape) for shape in shapes))
    theta = {name: arr.copy() for name, arr in params.arrays().items()}
    m = {name: np.zeros(shape) for name, shape in zip(names, shapes)}
    v = {name: np.zeros(shape) for name, shape in zip(names, shapes)}
    optimizer = _AdamW(params, weight_decay)
    grads = params.zeros_like()
    for t in range(1, 21):
        lr = float(rng.uniform(1e-5, 1e-1))
        for name, shape in zip(names, shapes):
            getattr(grads, name)[...] = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
        optimizer.step(params, grads, lr)
        adamw_reference(theta, m, v, grads.arrays(), t, lr, weight_decay)
    for name in names:
        assert np.array_equal(getattr(params, name), theta[name])

    def flat(arrays):
        return np.concatenate([arrays[name].ravel() for name in names])
    assert np.array_equal(optimizer.m, flat(m)) and np.array_equal(optimizer.v, flat(v))


@pytest.fixture(scope="module")
def blob_world():
    ds = generate_blobs(3, 40, 6, 1.0, 10.0, seed=21)
    split = stratified_split(ds, 0.10, 0.60, 0.30, seed=5)
    return ds, split


class TestTraining:
    def test_zero_epochs_returns_initial_parameters(self, blob_world):
        ds, split = blob_world
        cfg = TrainConfig(epochs=0, seed=3)
        got = train("simclr", ds, split, cfg)
        expect = init_params(ds.dim, np.random.default_rng(3))
        assert params_equal(got, expect)

    def test_determinism(self, blob_world):
        ds, split = blob_world
        a = train("supcon", ds, split, TrainConfig(epochs=4, batch_size=16, seed=9))
        b = train("supcon", ds, split, TrainConfig(epochs=4, batch_size=16, seed=9))
        assert params_equal(a, b)

    def test_supcon_reduces_training_loss(self, blob_world):
        ds, split = blob_world
        from epl.contrastive import _batch_loss
        cfg = TrainConfig(epochs=25, batch_size=16, seed=1)
        sup = split.supervised
        X = ds.features[sup]
        y = ds.labels[sup]
        initial = init_params(ds.dim, np.random.default_rng(1))
        trained = train("supcon", ds, split, cfg)
        before = _batch_loss(X, y, cfg, safe_std(X, ContrastiveError),
                             np.random.default_rng(123), initial, None)
        after = _batch_loss(X, y, cfg, safe_std(X, ContrastiveError),
                            np.random.default_rng(123), trained, None)
        assert after < before

    def test_supcon_needs_labels(self, blob_world):
        ds, split = blob_world
        from epl.dataset import Dataset
        unlabeled = Dataset(ds.features, None, 0, "unlabeled")
        with pytest.raises(ContrastiveError):
            train("supcon", unlabeled, split, TrainConfig(epochs=1))

    def test_unknown_mode(self, blob_world):
        ds, split = blob_world
        with pytest.raises(ContrastiveError, match="mode"):
            train("banana", ds, split, TrainConfig(epochs=1))

    def test_finetune_zero_epochs_is_identity(self, blob_world):
        ds, split = blob_world
        base = train("simclr", ds, split, TrainConfig(epochs=2, batch_size=16, seed=4))
        same = finetune_supcon(base, ds, split, TrainConfig(epochs=0, seed=5))
        assert params_equal(base, same)

    def test_finetune_determinism(self, blob_world):
        ds, split = blob_world
        base = train("simclr", ds, split, TrainConfig(epochs=2, batch_size=16, seed=4))
        a = finetune_supcon(base, ds, split, TrainConfig(epochs=3, batch_size=16, seed=6))
        b = finetune_supcon(base, ds, split, TrainConfig(epochs=3, batch_size=16, seed=6))
        assert params_equal(a, b)

    @pytest.mark.parametrize("setting", [
        {"epochs": -1}, {"batch_size": 1}, {"validation_fraction": 0.7},
        {"validation_fraction": float("nan")}, {"temperature": float("nan")},
        {"temperature": float("inf")}, {"learning_rate": 0.0},
        {"learning_rate": float("nan")}, {"weight_decay": -1.0},
        {"weight_decay": float("nan")}, {"noise": -1.0}, {"noise": float("inf")},
        {"dropout": 1.0}, {"dropout": -0.1}, {"dropout": float("nan")}])
    def test_finetune_checks_its_config_like_train(self, setting):
        # train and finetune_supcon share one TrainConfig, which checks itself when built
        with pytest.raises(ContrastiveError):
            TrainConfig(**{"epochs": 1, "batch_size": 16, **setting})

    def test_finetune_does_not_hurt_latent_consistency(self):
        # overlapping blobs: label-aware fine-tuning should not lose ground
        ds = generate_blobs(3, 60, 8, 2.0, 10.0, seed=31)
        split = stratified_split(ds, 0.10, 0.60, 0.30, seed=8)
        cfg = TrainConfig(epochs=15, batch_size=32, seed=13)
        base = train("simclr", ds, split, cfg)
        tuned = finetune_supcon(base, ds, split, TrainConfig(epochs=15, batch_size=32, seed=13))
        idx = np.sort(np.concatenate([split.supervised, split.unsupervised]))
        before = knn_consistency(extract_features(base, ds, idx), ds.labels[idx], 10)
        after = knn_consistency(extract_features(tuned, ds, idx), ds.labels[idx], 10)
        assert after >= before - 0.02

    @pytest.mark.parametrize("setting,cause", [
        # NaN heads are mapped to the first basis vector, so the loss stays finite.
        ({"learning_rate": 1e308}, "a parameter is"),
        ({"temperature": 1e-310}, "training loss is")])
    def test_non_finite_training_names_the_epoch(self, blob_world, setting, cause):
        ds, split = blob_world
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContrastiveError, match=f"epoch 0: {cause} not finite"):
                train("simclr", ds, split, TrainConfig(epochs=3, batch_size=16, **setting))

    def test_overflowing_feature_scale_is_a_typed_error(self, blob_world):
        ds, split = blob_world
        feats = ds.features.copy()
        feats[split.supervised[0], 2] = 1e200
        extreme = type(ds)(feats, ds.labels, ds.class_count, "extreme")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in ("simclr", "supcon"):
                with pytest.raises(ContrastiveError, match="standard deviation"):
                    train(mode, extreme, split, TrainConfig(epochs=1))

    def test_non_finite_latents_are_a_typed_error(self, blob_world):
        ds, _ = blob_world
        params = init_params(ds.dim, np.random.default_rng(0))
        params.w1[...] = 1e300
        params.w2[...] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContrastiveError, match="not finite"):
                extract_features(params, ds, np.arange(ds.sample_count))

    def test_extraction_contract(self, blob_world):
        ds, split = blob_world
        params = train("simclr", ds, split, TrainConfig(epochs=1, batch_size=16, seed=2))
        feats = extract_features(params, ds, split.test)
        assert feats.shape == (split.test.size, LATENT_DIM)
        again = extract_features(params, ds, split.test)
        assert np.array_equal(feats, again)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        params = init_params(5, rng)
        path = tmp_path / "enc.bin"
        params.save(path, {"mode": "simclr", "seed": 0})
        loaded = EncoderParams.load(path)
        assert params_equal(params, loaded)
        assert (tmp_path / "enc.bin.cfg").exists()

    def test_pickled_copy_keeps_one_flat_buffer(self):
        params = init_params(5, np.random.default_rng(12))
        copy = pickle.loads(pickle.dumps(params))
        assert params_equal(params, copy)
        assert np.array_equal(copy.flat, params.flat)
        copy.flat[:] = 0.0  # every field is a view into the new buffer
        assert all(not arr.any() for arr in copy.arrays().values())

    def test_kind_mismatch(self, tmp_path):
        from epl import checkpoint as ckpt
        path = tmp_path / "other.bin"
        ckpt.save_checkpoint(path, ckpt.KIND_ENCODER + 1, {"w": np.zeros((2, 2))}, {})
        with pytest.raises(ContrastiveError, match="not an encoder"):
            EncoderParams.load(path)

    def test_warm_start_training_runs(self, tmp_path, blob_world):
        ds, split = blob_world
        base = train("simclr", ds, split, TrainConfig(epochs=2, batch_size=16, seed=4))
        path = tmp_path / "warm.bin"
        base.save(path, {})
        warm = EncoderParams.load(path)
        out = train("simclr", ds, split, TrainConfig(epochs=2, batch_size=16, seed=5), init=warm)
        assert not params_equal(out, base)
