"""Finite extremes through every stage entry point, and one place that checks them.

A value of magnitude 10^k, k in [150, 308], of either sign, replaces one
feature or one float setting of a small valid input. Each stage must then
return finite outputs or raise its module's typed error (an EplError):
never a numpy warning, never inf or NaN, and never a score computed from
distances that overflowed. Overflow is checked where it happens, by
``check_finite`` and ``distances`` in ``epl.dataset``; an ``ast`` scan
keeps every other module from testing finiteness on its own.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epl
from epl.contrastive import TrainConfig, extract_features, init_params, train
from epl.dataset import UNLABELED, Dataset, EplError, Role, generate_blobs, stratified_split
from epl.metrics import knn_consistency
from epl.opf import minimax_oracle, opfsemi_propagate, opfsup_classify_batch, opfsup_train
from epl.probe import SoftmaxConfig, predict, train_linear, train_softmax
from epl.projection import ProjectionConfig, tsne_project

DATA = generate_blobs(3, 8, 3, 1.0, 6.0, seed=2)
X, Y = DATA.features, DATA.labels
SPLIT = stratified_split(DATA, 0.25, 0.375, 0.375, seed=1)
SEEDS = np.where(SPLIT.roles == int(Role.SUPERVISED), Y, UNLABELED)
ENCODER = init_params(3, np.random.default_rng(1))
LINEAR = train_linear(X, Y, 1.0, 20, 3)
SOFTMAX = train_softmax(X, Y, SoftmaxConfig(epochs=2), 3)
FOREST = opfsup_train(X, Y)


def _train(mode):
    return lambda M, **s: train(mode, Dataset(M, Y, 3, "extreme"), SPLIT,
                                TrainConfig(epochs=2, batch_size=8, **s))


def _knn_reference(points, labels, k):
    """knn_consistency's score from distances that cannot overflow
    (``math.dist`` scales its sum of squares), ties to the lower index."""
    same = 0
    for i, p in enumerate(points):
        near = sorted((math.dist(p, q), j) for j, q in enumerate(points) if j != i)[:k]
        same += sum(labels[j] == labels[i] for _, j in near)
    return same / (len(points) * k)


# stage -> (call on a feature matrix and settings, the float settings it takes)
STAGES = {
    "train-simclr": (_train("simclr"), ("learning_rate", "temperature", "weight_decay", "noise")),
    "train-supcon": (_train("supcon"), ("learning_rate", "temperature", "weight_decay", "noise")),
    "extract_features": (lambda M: extract_features(ENCODER, Dataset(M, Y, 3, "extreme"),
                                                    np.arange(len(M))), ()),
    "train_linear": (lambda M, lam=1.0: train_linear(M, Y, lam, 20, 3), ("lam",)),
    "train_softmax": (lambda M, **s: train_softmax(M, Y, SoftmaxConfig(epochs=3, **s), 3),
                      ("learning_rate", "momentum")),
    "predict-linear": (lambda M: predict(LINEAR, M), ()),
    "predict-softmax": (lambda M: predict(SOFTMAX, M), ()),
    "opfsemi_propagate": (lambda M: opfsemi_propagate(M, SEEDS), ()),
    "opfsup_train": (lambda M: opfsup_train(M, Y), ()),
    "opfsup_classify_batch": (lambda M: opfsup_classify_batch(FOREST, M), ()),
    "minimax_oracle": (lambda M: minimax_oracle(M, SEEDS), ()),
    # k = 12: an extreme row's neighbours then reach past its own class block
    "knn_consistency": (lambda M: knn_consistency(M, Y, 12), ()),
    "tsne_project": (lambda M, **s: tsne_project(M, ProjectionConfig(
        perplexity=3.0, iterations=60, exaggeration_iters=20, momentum_switch=20, **s)),
                     ("learning_rate", "early_exaggeration", "momentum_start",
                      "momentum_final")),
}
CASES = [(stage, slot) for stage, (_, setting_names) in STAGES.items()
         for slot in ("features", *setting_names)]


def _finite(out) -> bool:
    """Every array and number a stage returned, its models' arrays included, is finite."""
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if not isinstance(out, (np.ndarray, np.generic, float, int)):
        return all(_finite(v) for v in vars(out).values() if isinstance(v, np.ndarray))
    return bool(np.isfinite(out).all())


@pytest.mark.parametrize("stage, slot", CASES)
@settings(max_examples=50, deadline=None)
@given(power=st.integers(150, 308), sign=st.sampled_from([1.0, -1.0]),
       at=st.integers(0, X.size - 1))
def test_finite_extreme_gives_finite_outputs_or_a_typed_error(stage, slot, power, sign, at):
    call, _ = STAGES[stage]
    extreme = sign * float(f"1e{power}")
    M = X.copy()
    if slot == "features":
        M.flat[at] = extreme
        setting = {}
    else:
        setting = {slot: extreme}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(M, **setting)
        except EplError:
            return
    assert _finite(out), out
    if stage == "knn_consistency":
        assert out == _knn_reference(M, Y, 12)


def _finiteness_tests(path: Path) -> list[str]:
    """Where the module names ``isfinite`` (numpy's or math's), as file:line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)
        if name == "isfinite":
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_only_the_rule_book_tests_finiteness():
    # Every other module goes through check_matrix, check_finite, distances
    # or a setting check, so the rule and its wording live in one place.
    modules = sorted(Path(epl.__file__).parent.glob("*.py"))
    assert "dataset.py" in [path.name for path in modules]
    assert "dataset.py:" in " ".join(_finiteness_tests(Path(epl.__file__).parent / "dataset.py"))
    found = [site for path in modules if path.name != "dataset.py"
             for site in _finiteness_tests(path)]
    assert not found, found
