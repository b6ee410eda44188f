"""epl's bound distance kernels against scipy's public ``cdist``.

``epl.host`` loads scipy's compiled ``_distance_pybind`` extension
without importing ``scipy.spatial`` and binds its Euclidean and squared
Euclidean ``cdist`` kernels. ``scipy.spatial.distance.cdist`` calls the
same kernels after ``np.asarray``, so the two must agree bit for bit, with
or without ``out=``, and raise the same ValueErrors.
"""

import importlib.abc
import importlib.machinery
import importlib.metadata
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import epl
from epl import host
from epl.dataset import EplError, distances
from epl.host import cdist_euclidean, cdist_sqeuclidean

KERNELS = {"euclidean": cdist_euclidean, "sqeuclidean": cdist_sqeuclidean}
# 1e160 squared overflows float64; 1e-170 squared underflows to zero.
SCALES = [1e-170, 1e-8, 1.0, 1e3, 1e150, 1e160, 1e300]


def _rows(seed, n, d, scale):
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, d)) * scale


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(sorted(KERNELS)), seed=st.integers(0, 2**32 - 1),
       na=st.integers(1, 40), nb=st.integers(1, 40), d=st.integers(1, 32),
       scale=st.sampled_from(SCALES))
def test_kernel_equals_cdist_bit_for_bit(metric, seed, na, nb, d, scale):
    A, B = _rows(seed, na, d, scale), _rows(seed + 1, nb, d, scale)
    with np.errstate(over="ignore"):
        assert KERNELS[metric](A, B).tobytes() == cdist(A, B, metric).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), na=st.integers(1, 30), nb=st.integers(1, 30),
       d=st.integers(1, 8), scale=st.sampled_from(SCALES))
def test_distances_rejects_an_overflow_as_a_typed_error(seed, na, nb, d, scale):
    A, B = _rows(seed, na, d, scale), _rows(seed + 1, nb, d, scale)
    with np.errstate(over="ignore"):
        expected = cdist(A, B)
    if np.isfinite(expected).all():
        assert distances(A, B, EplError).tobytes() == expected.tobytes()
    else:
        with pytest.raises(EplError, match="float64 overflow"):
            distances(A, B, EplError)


@settings(max_examples=80, deadline=None)
@given(metric=st.sampled_from(sorted(KERNELS)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 60), d=st.integers(1, 16), cut=st.data())
def test_out_into_a_row_block_of_a_larger_matrix(metric, seed, n, d, cut):
    X = _rows(seed, n, d, 1.0)
    start = cut.draw(st.integers(0, n - 1))
    stop = cut.draw(st.integers(start + 1, n))
    mine, theirs = np.full((n, n), -1.0), np.full((n, n), -1.0)
    assert KERNELS[metric](X[start:stop], X, out=mine[start:stop]) is not None
    cdist(X[start:stop], X, metric, out=theirs[start:stop])
    assert mine.tobytes() == theirs.tobytes()
    assert (np.delete(mine, np.s_[start:stop], axis=0) == -1.0).all()
    # Each entry is computed on its own: the block equals the full matrix's rows.
    assert mine[start:stop].tobytes() == cdist(X, X, metric)[start:stop].tobytes()


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(sorted(KERNELS)), seed=st.integers(0, 2**32 - 1),
       d=st.integers(1, 40), m=st.integers(1, 300), extra=st.integers(0, 40),
       scale=st.sampled_from(SCALES))
def test_out_into_a_prefix_for_a_subset_of_columns(metric, seed, d, m, extra, scale):
    # The OPF Prim tree measures a joining node against the nodes still
    # outside, packed in no fixed order, into a prefix of one buffer: an
    # entry must not depend on which other columns share the call.
    rng = np.random.default_rng(seed)
    a, B = (rng.standard_cauchy(shape) * scale for shape in ((1, d), (m + extra, d)))
    idx = rng.permutation(m + extra)[:m]
    buf = np.full((1, m + extra + 1), -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert KERNELS[metric](a, B[idx], out=buf[:, :m]) is not None
        full = KERNELS[metric](a, B)
    assert buf[:, :m].tobytes() == full[:, idx].tobytes()
    assert (buf[:, m:] == -1.0).all()


@settings(max_examples=80, deadline=None)
@given(metric=st.sampled_from(sorted(KERNELS)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 30), d=st.integers(2, 20), step=st.integers(2, 3),
       layout=st.sampled_from(["rows", "columns", "fortran", "negative"]))
def test_non_contiguous_input(metric, seed, n, d, step, layout):
    X = _rows(seed, n * step, d * step, 1.0)
    A = {"rows": X[::step], "columns": X[:, ::step], "fortran": np.asfortranarray(X),
         "negative": X[::-step, ::-1]}[layout]
    B = X[:A.shape[0] + 1, :A.shape[1]]
    assert not A.flags.c_contiguous
    assert KERNELS[metric](A, B).tobytes() == cdist(A, B, metric).tobytes()
    assert KERNELS[metric](B, A).tobytes() == cdist(B, A, metric).tobytes()


def _value_error(call) -> list[str]:
    """The words of the ValueError `call` raises."""
    with pytest.raises(ValueError) as raised:
        call()
    return re.findall(r"\w+", str(raised.value))


@pytest.mark.parametrize("metric", sorted(KERNELS))
@pytest.mark.parametrize("case", ["1-d XA", "1-d XB", "columns", "out rows", "out columns"])
def test_same_value_error_as_cdist(metric, case):
    A, B = np.ones((3, 2)), np.ones((4, 2))
    args, out = {"1-d XA": ((np.ones(3), B), None),
                 "1-d XB": ((A, np.ones(2)), None),
                 "columns": ((A, np.ones((4, 3))), None),
                 "out rows": ((A, B), np.empty((4, 4))),
                 "out columns": ((A, B), np.empty((3, 3)))}[case]
    mine = _value_error(lambda: KERNELS[metric](*args, out=out))
    assert mine == _value_error(lambda: cdist(*args, metric, out=out))
    assert mine


def _fresh(code: str) -> dict:
    """Run `code` in a new interpreter with epl importable; its last stdout line as JSON."""
    src = str(Path(epl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_scipy_spatial_imported_later_reuses_epls_module():
    # epl registers no scipy module, so scipy's own import of the extension
    # sets scipy.spatial's attribute and gets the module epl bound from.
    facts = _fresh(
        "import json\n"
        "import epl\n"
        "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import scipy.spatial\n"
        "theirs = scipy.spatial._distance_pybind\n"
        "print(json.dumps({'before': before,\n"
        "                  'same': theirs is scipy.spatial.distance._distance_pybind,\n"
        "                  'bound': (epl.host.cdist_euclidean is theirs.cdist_euclidean and\n"
        "                            epl.host.cdist_sqeuclidean is theirs.cdist_sqeuclidean)}))\n")
    assert facts == {"before": [], "same": True, "bound": True}


def test_a_missing_extension_names_scipys_version(monkeypatch):
    real = importlib.machinery.PathFinder.find_spec

    def miss(name, path=None, target=None):
        return None if name == "scipy.spatial._distance_pybind" else real(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", staticmethod(miss))
    version = importlib.metadata.version("scipy")
    with pytest.raises(ImportError, match=rf"scipy {re.escape(version)} has no compiled "
                                          r"module scipy\.spatial\._distance_pybind"):
        host._distance_kernels()


def test_a_missing_kernel_is_named(monkeypatch):
    stub = types.ModuleType("scipy.spatial._distance_pybind")
    stub.cdist_euclidean = cdist_euclidean
    real = importlib.machinery.PathFinder.find_spec

    class StubLoader(importlib.abc.Loader):
        def create_module(self, spec):
            return stub

        def exec_module(self, module):
            pass

    def plant(name, path=None, target=None):
        if name == stub.__name__:
            return importlib.machinery.ModuleSpec(name, StubLoader())
        return real(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", staticmethod(plant))
    version = importlib.metadata.version("scipy")
    with pytest.raises(ImportError, match=rf"scipy {re.escape(version)} has no "
                                          r"scipy\.spatial\._distance_pybind\.cdist_sqeuclidean"):
        host._distance_kernels()
