import warnings

import numpy as np
import pytest

from epl.contrastive import flat_views, row_softmax
from epl.dataset import UNLABELED, generate_blobs
from epl.probe import (LINEAR_EPOCHS, LINEAR_LAMBDA, LinearModel, ProbeError, SoftmaxConfig,
                       predict, train_linear, train_softmax, _init_softmax,
                       _softmax_loss_grads)


def fit_linear(X, y, class_count):
    return train_linear(X, y, LINEAR_LAMBDA, LINEAR_EPOCHS, class_count)


class TestLinearProbe:
    def test_separable_blobs_reach_full_training_accuracy(self):
        ds = generate_blobs(3, 50, 4, 0.2, 12.0, seed=1)
        model = fit_linear(ds.features, ds.labels, 3)
        assert (predict(model, ds.features) == ds.labels).mean() == 1.0

    def test_xor_cannot_exceed_three_quarters(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_linear(X, y, 2)
        assert (predict(model, X) == y).mean() <= 0.75

    def test_duplicated_training_set_same_decision(self):
        ds = generate_blobs(2, 30, 3, 0.5, 8.0, seed=2)
        base = fit_linear(ds.features, ds.labels, 2)
        doubled = fit_linear(np.vstack([ds.features, ds.features]),
                             np.concatenate([ds.labels, ds.labels]), 2)
        grid = np.random.default_rng(0).uniform(-15, 15, (500, 3))
        assert np.array_equal(predict(base, grid), predict(doubled, grid))

    def test_objective_running_average_non_increasing(self):
        ds = generate_blobs(3, 40, 4, 0.4, 10.0, seed=3)
        model = fit_linear(ds.features, ds.labels, 3)
        running = np.cumsum(model.objective_trace) / np.arange(
            1, len(model.objective_trace) + 1)
        assert (np.diff(running) <= 1e-6).all()

    def test_single_class_rejected(self):
        with pytest.raises(ProbeError):
            fit_linear(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
def test_linear_probe_rejects_a_bad_lambda(lam):
    data = generate_blobs(2, 10, 3, 0.5, 6.0, seed=1)
    with pytest.raises(ProbeError, match="lambda must be finite and non-negative"):
        train_linear(data.features, data.labels, lam, LINEAR_EPOCHS, 2)


def test_linear_probe_trains_just_below_the_divergent_lambda():
    data = generate_blobs(2, 10, 3, 0.5, 6.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = train_linear(data.features, data.labels, 1999.0, LINEAR_EPOCHS, 2)
    assert np.isfinite(model.weights).all() and np.isfinite(model.objective_trace).all()


@pytest.mark.parametrize("lam", [2000.0, 1e6, 1e308])
def test_linear_probe_rejects_a_divergent_lambda(lam):
    # the first step is 1e-3, and 1e-3 x lambda >= 2 stops the weight decay contracting
    data = generate_blobs(2, 10, 3, 0.5, 6.0, seed=1)
    with pytest.raises(ProbeError, match="too large"):
        train_linear(data.features, data.labels, lam, LINEAR_EPOCHS, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_probes_reject_non_finite_features(value):
    data = generate_blobs(2, 10, 3, 0.5, 6.0, seed=1)
    feats = data.features.copy()
    feats[4, 1] = value
    with pytest.raises(ProbeError, match="finite"):
        fit_linear(feats, data.labels, 2)
    with pytest.raises(ProbeError, match="finite"):
        train_softmax(feats, data.labels, SoftmaxConfig(), 2)


class TestSoftmaxProbe:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 5))
        model = _init_softmax(X, 3, SoftmaxConfig(seed=1), rng)
        y = rng.integers(0, 3, 40)
        names = ("w1", "b1", "w2", "b2")
        shapes = [getattr(model, name).shape for name in names]
        _, views = flat_views(shapes)
        _, scratch = flat_views(shapes)
        _softmax_loss_grads(model, X, y, views)
        grads = dict(zip(names, views))
        h = 1e-6
        worst = 0.0
        for _ in range(30):
            name = names[rng.integers(0, 4)]
            arr = getattr(model, name)
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            plus = _softmax_loss_grads(model, X, y, scratch)
            arr[idx] = orig - h
            minus = _softmax_loss_grads(model, X, y, scratch)
            arr[idx] = orig
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(grads[name][idx] - fd) / max(abs(fd), 1e-10))
        assert worst <= 1e-4

    def test_learns_separable_blobs(self):
        train_ds = generate_blobs(3, 80, 5, 0.3, 10.0, seed=7)
        test_ds = generate_blobs(3, 40, 5, 0.3, 10.0, seed=7)
        model = train_softmax(train_ds.features, train_ds.labels, SoftmaxConfig(seed=2), 3)
        acc = (predict(model, test_ds.features) == test_ds.labels).mean()
        assert acc >= 0.98

    def test_zero_epochs_is_chance_level_on_balanced_classes(self):
        ds = generate_blobs(4, 100, 6, 0.5, 10.0, seed=8)
        model = train_softmax(ds.features, ds.labels,
                              SoftmaxConfig(epochs=0, seed=3), 4)
        acc = (predict(model, ds.features) == ds.labels).mean()
        assert abs(acc - 0.25) <= 0.15

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        # fitted on constant rows, the input standardization is the identity
        model = _init_softmax(np.zeros((2, 4)), 5, SoftmaxConfig(seed=1), rng)
        probs, _ = row_softmax(model.scores(rng.normal(size=(200, 4)) * 50))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
        assert (probs >= 0).all()

    def test_unlabeled_training_index_is_an_error(self):
        X = np.zeros((3, 2))
        y = np.array([0, UNLABELED, 1])
        with pytest.raises(ProbeError, match="index 1"):
            train_softmax(X, y, SoftmaxConfig(), 2)

    def test_label_count_must_match_the_rows(self):
        X, y = np.zeros((6, 2)), np.array([0, 1, 0, 1, 0])
        for fit in (lambda: train_softmax(X, y, SoftmaxConfig(), 2),
                    lambda: fit_linear(X, y, 2)):
            with pytest.raises(ProbeError, match=r"6 feature rows but labels of shape \(5,\)"):
                fit()

    def test_determinism(self):
        ds = generate_blobs(3, 30, 4, 0.6, 9.0, seed=11)
        a = train_softmax(ds.features, ds.labels, SoftmaxConfig(seed=5), 3)
        b = train_softmax(ds.features, ds.labels, SoftmaxConfig(seed=5), 3)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


class TestPredict:
    def test_zero_weights_all_class_zero(self):
        model = LinearModel(np.zeros((3, 4)), np.zeros(3), np.empty(0))
        X = np.random.default_rng(0).normal(size=(20, 4))
        assert (predict(model, X) == 0).all()

    def test_crafted_score_tie_takes_lower_class(self):
        # classes 1 and 2 tie exactly; class 0 scores lower
        model = LinearModel(np.array([[0.0], [1.0], [1.0]]),
                            np.array([-1.0, 0.0, 0.0]), np.empty(0))
        assert predict(model, np.array([[2.0]]))[0] == 1

    def test_repeated_calls_identical(self):
        ds = generate_blobs(3, 20, 4, 0.5, 9.0, seed=13)
        model = fit_linear(ds.features, ds.labels, 3)
        a = predict(model, ds.features)
        b = predict(model, ds.features)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros((2, 3)), np.zeros(2), np.empty(0))
        with pytest.raises(ProbeError, match="dimension"):
            predict(model, np.zeros((4, 5)))

    def test_overflowing_scores_are_a_typed_error(self):
        model = LinearModel(np.full((2, 3), 1e200), np.zeros(2), np.empty(0))
        with pytest.raises(ProbeError, match="not finite"):
            predict(model, np.full((1, 3), 1e200))

    def test_unknown_model_type(self):
        with pytest.raises(ProbeError):
            predict(object(), np.zeros((1, 2)))
