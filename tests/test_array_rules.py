"""Every public entry point that takes a feature matrix or a label vector
rejects a malformed one with a typed error: never a raw exception, a
warning, or a number computed from it."""

import warnings

import numpy as np
import pytest

from epl.contrastive import (ContrastiveError, TrainConfig, extract_features, init_params,
                             supcon_loss)
from epl.dataset import (UNLABELED, Dataset, DatasetError, EplError, SplitError,
                         check_labels, check_matrix, generate_blobs, stratified_split)
from epl.metrics import confusion, knn_consistency
from epl.opf import (minimax_oracle, mst, opfsemi_propagate, opfsup_classify_batch,
                     opfsup_train)
from epl.probe import ProbeError, SoftmaxConfig, predict, train_linear, train_softmax
from epl.projection import (Embedding2D, ProjectionConfig, ProjectionError,
                            conditional_affinities, kl_divergence, kl_gradient,
                            pairwise_affinities, tsne_project)
from epl.scatter import emit_scatter

_rng = np.random.default_rng(0)
X = _rng.normal(size=(12, 3))
COORDS = _rng.normal(size=(12, 2))
LABELS = np.repeat([0, 1, 2], 4)
SEEDS = np.where(np.arange(12) % 4 == 0, LABELS, UNLABELED)
ROWS = np.arange(12)
P = pairwise_affinities(X, 3.0)
DATA = Dataset(X, LABELS, 3, "d")
ENCODER = init_params(3, np.random.default_rng(1))
FOREST = opfsup_train(X, LABELS)
LINEAR = train_linear(X, LABELS, 1.0, 2, 3)


def _nan(M):
    M = M.copy()
    M[5, 1] = np.nan
    return M


def _inf(M):
    M = M.copy()
    M[7, 0] = -np.inf
    return M


def _at(y, i, value):
    y = y.copy()
    y[i] = value
    return y


# corruption -> (corrupt, what the error says)
MATRICES = {
    "nan": (_nan, "non-finite value nan at row 5, column 1"),
    "inf": (_inf, "non-finite value -inf at row 7, column 0"),
    "1-d": (lambda M: M[:, 0], "2-d matrix"),
    "3-d": (lambda M: M[:, :, None], "2-d matrix"),
    "one-column-short": (lambda M: M[:, :-1], "dimension"),
}
LABEL_VECTORS = {
    "short": lambda y: y[:-1],
    "column": lambda y: y[:, None],
    "half": lambda y: y + 0.5,
    "above": lambda y: _at(y, 3, 99),
    "below-unlabeled": lambda y: _at(y, 3, -2),
    "unlabeled": lambda y: _at(y, 3, UNLABELED),
    "ragged": lambda y: [list(y[:2]), *y[2:]],
}
ALL = tuple(LABEL_VECTORS)
# Labels with no upper bound, and labels where UNLABELED is allowed.
UNBOUNDED = tuple(k for k in ALL if k != "above")
SEEDED = ("short", "column", "half", "below-unlabeled", "ragged")

# (entry point, call(matrix, labels, out), good matrix, good labels,
#  matrix corruptions, label corruptions)
ENTRIES = [
    ("Dataset", lambda M, y, _: Dataset(M, y, 3, "d"), X, LABELS, "nan inf 1-d 3-d", ALL),
    ("knn_consistency", lambda M, y, _: knn_consistency(M, y, 3), COORDS, LABELS,
     "nan inf 1-d 3-d", UNBOUNDED),
    ("confusion(truth)", lambda _, y, __: confusion(LABELS, y, 3), None, LABELS, "", ALL),
    ("confusion(pred)", lambda _, y, __: confusion(y, LABELS, 3), None, LABELS, "", ALL),
    ("confusion(inferred)", lambda _, y, __: confusion(y, LABELS), None, LABELS, "",
     UNBOUNDED),
    ("opfsemi_propagate", lambda M, y, _: opfsemi_propagate(M, y), X, SEEDS,
     "nan inf 1-d 3-d", SEEDED),
    ("minimax_oracle", lambda M, y, _: minimax_oracle(M, y), X, SEEDS, "nan inf 1-d 3-d",
     SEEDED),
    ("mst", lambda M, _, __: mst(M), X, None, "nan inf 1-d 3-d", ()),
    ("opfsup_train", lambda M, y, _: opfsup_train(M, y), X, LABELS, "nan inf 1-d 3-d",
     UNBOUNDED),
    ("opfsup_classify_batch", lambda M, _, __: opfsup_classify_batch(FOREST, M), X, None,
     "nan inf 3-d one-column-short", ()),
    ("train_linear", lambda M, y, _: train_linear(M, y, 1.0, 2, 3), X, LABELS,
     "nan inf 1-d 3-d", ALL),
    ("train_softmax", lambda M, y, _: train_softmax(M, y, SoftmaxConfig(epochs=1), 3), X,
     LABELS, "nan inf 1-d 3-d", ALL),
    ("predict", lambda M, _, __: predict(LINEAR, M), X, None, "nan inf 3-d one-column-short",
     ()),
    ("conditional_affinities", lambda M, _, __: conditional_affinities(M, 3.0), X, None,
     "nan inf 1-d 3-d", ()),
    ("pairwise_affinities", lambda M, _, __: pairwise_affinities(M, 3.0), X, None,
     "nan inf 1-d 3-d", ()),
    ("tsne_project", lambda M, _, __: tsne_project(
        M, ProjectionConfig(perplexity=3.0, iterations=3)), X, None, "nan inf 1-d 3-d", ()),
    ("kl_gradient", lambda M, _, __: kl_gradient(P, M), COORDS, None, "nan inf 1-d 3-d", ()),
    ("kl_divergence", lambda M, _, __: kl_divergence(P, M), COORDS, None, "nan inf 1-d 3-d",
     ()),
    ("Embedding2D", lambda M, _, __: Embedding2D(M, np.empty(0)), COORDS, None,
     "nan inf 1-d 3-d", ()),
    ("emit_scatter", lambda M, y, out: emit_scatter(M, y, out), COORDS, SEEDS,
     "nan inf 1-d 3-d one-column-short", SEEDED),
    ("extract_features", lambda _, idx, __: extract_features(ENCODER, DATA, idx), None, ROWS,
     "", ("column", "half", "above", "below-unlabeled", "unlabeled", "ragged")),
    ("supcon_loss", lambda _, y, __: supcon_loss(np.eye(12), y, 0.1, True), None, LABELS, "",
     ("half", "ragged")),
]

CASES = [pytest.param(call, MATRICES[bad][0](M), y, MATRICES[bad][1], id=f"{name}-{bad}")
         for name, call, M, y, bad_matrices, _ in ENTRIES for bad in bad_matrices.split()]
CASES += [pytest.param(call, M, LABEL_VECTORS[bad](y), None, id=f"{name}-labels-{bad}")
          for name, call, M, y, _, bad_labels in ENTRIES for bad in bad_labels]
CASES += [
    pytest.param(lambda *_: confusion(np.eye(2, dtype=int), np.eye(2, dtype=int)), None, None,
                 "shape", id="confusion-square-arrays"),
    pytest.param(lambda *_: extract_features(ENCODER, DATA, [0.5]), None, None,
                 "whole numbers", id="extract_features-half-index"),
    pytest.param(emit_scatter, np.zeros((0, 2)), np.zeros(0, dtype=int), "at least one point",
                 id="emit_scatter-zero-points"),
    pytest.param(lambda M, *_: tsne_project(M, ProjectionConfig()), X[:, 0], None, "2-d matrix",
                 id="tsne_project-1-d-default-perplexity"),
    pytest.param(lambda M, *_: opfsup_classify_batch(
        opfsup_train(_rng.normal(size=(6, 20)), [0, 1] * 3), M), np.zeros((2, 20, 1)), None,
        "2-d matrix", id="opfsup_classify_batch-3-d-query"),
]


@pytest.mark.parametrize("call, matrix, labels, match", CASES)
def test_malformed_array_is_a_typed_error(tmp_path, call, matrix, labels, match):
    out = tmp_path / "plot.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EplError, match=match):
            call(matrix, labels, out)
    assert not out.exists()


@pytest.mark.parametrize("name, call, matrix, labels",
                         [(name, call, M, y) for name, call, M, y, _, _ in ENTRIES])
def test_well_formed_arrays_pass(tmp_path, name, call, matrix, labels):
    # The corruptions above are the only fault in each case.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(matrix, labels, tmp_path / "plot.svg")


def test_matrix_errors_name_the_first_bad_entry():
    with pytest.raises(DatasetError, match="non-finite value nan at row 5, column 1"):
        check_matrix(_inf(_nan(X)), DatasetError)
    with pytest.raises(DatasetError, match="2-d matrix, got shape \\(12,\\)"):
        check_matrix(X[:, 0], DatasetError)
    with pytest.raises(DatasetError, match="feature dimension 3 != expected dimension 2"):
        check_matrix(X, DatasetError, cols=2)
    with pytest.raises(DatasetError, match="must be numbers"):
        check_matrix([["a", "b"]], DatasetError)
    assert check_matrix(X, DatasetError) is X


@pytest.mark.parametrize("labels, kwargs, match", [
    ([0, 1, 0.5], {}, "whole numbers: index 2 holds 0.5"),
    ([0, np.nan, 1], {}, "whole numbers: index 1 holds nan"),
    ([0, 1, 1e300], {}, "whole numbers: index 2 holds 1e"),
    (["a", "b", "c"], {}, "whole numbers, got <U1 values"),
    ([0, 3, 1], {"bound": 3}, r"index 1 holds 3, outside \[0, 3\)"),
    ([0, -1, 1], {"bound": 3}, r"index 1 holds -1 \(unlabeled\), outside \[0, 3\)"),
    ([0, -2, 1], {"unlabeled": True}, r"index 1 holds -2, outside \[0, inf\) or UNLABELED"),
    ([[0, 1, 2]], {}, r"3 feature rows but labels of shape \(1, 3\)"),
    ([[0], [1, 2], 0], {}, "whole numbers: setting an array element with a sequence"),
])
def test_label_errors_name_the_first_bad_entry(labels, kwargs, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=match):
            check_labels(labels, 3, DatasetError, **kwargs)


def test_whole_labels_come_back_as_int64():
    for labels in ([2, 0, 1], [2.0, 0.0, 1.0], np.array([2, 0, 1], dtype=np.uint8)):
        y = check_labels(labels, 3, DatasetError, bound=3)
        assert y.dtype == np.int64 and y.tolist() == [2, 0, 1]
    assert check_labels([-1, 4], 2, DatasetError, unlabeled=True).tolist() == [-1, 4]


@pytest.mark.parametrize("build, error", [
    (lambda: generate_blobs(3, 10, 2, 0.5, 5.0, seed=-1), DatasetError),
    (lambda: stratified_split(generate_blobs(3, 10, 2, 0.5, 5.0, seed=0),
                              0.2, 0.5, 0.3, seed=-1), SplitError),
    (lambda: TrainConfig(seed=-1), ContrastiveError),
    (lambda: ProjectionConfig(seed=-1), ProjectionError),
    (lambda: SoftmaxConfig(seed=-1), ProbeError),
])
def test_negative_seed_is_a_setting_error(build, error):
    with pytest.raises(error, match="seed must be at least 0, got -1"):
        build()
