"""What this host gives a run, decided in one place: how many CPUs a
projection splits its passes between, whether a family's arms may run in
forked children, scipy's compiled distance kernels, and the threads of
numpy's bundled OpenBLAS. ``header()`` names each decision and the
libraries whose kernels make the bytes in a run manifest."""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np


def cpu_count() -> int:
    """Threads a projection of more than 64 points splits each step
    between: 2 when this process may run on two or more CPUs, else 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def arm_workers() -> int:
    """Arms run at once: the projection's CPU rule, 2 when this process
    may run on two or more CPUs, else 1. It is 1 wherever a fork is not safe:
    off Linux, and while another thread of this process runs, which could
    hold a lock that the child would then wait on forever."""
    forkable = (sys.platform == "linux" and hasattr(os, "fork")
                and threading.active_count() == 1)
    return cpu_count() if forkable else 1


_KERNEL_MODULE = "scipy.spatial._distance_pybind"


def _scipy_module(name: str):
    """scipy's module `name` run from its file in scipy's tree, or None if
    there is no such file. Neither scipy's ``__init__.py`` nor that of a
    subpackage on the way runs, and the module is not registered in
    ``sys.modules``."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, *name.split(".")[1:-1]) for d in scipy.submodule_search_locations])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scipy_version() -> str:
    """The installed scipy's version, read from ``scipy.version`` as
    ``scipy.__version__`` is, without importing the package."""
    module = _scipy_module("scipy.version")
    return "(not installed)" if module is None else module.version


def _distance_kernels():
    """scipy's compiled ``cdist_euclidean`` and ``cdist_sqeuclidean``, the
    kernels ``scipy.spatial.distance.cdist(A, B, metric, out=)`` calls for
    those metrics after ``np.asarray``. They check the rank, the column
    count and ``out`` themselves, with the same ValueErrors.

    The extension is loaded from scipy's ``spatial`` directory without
    running ``scipy/spatial/__init__.py``, whose imports (scipy.sparse,
    scipy.special, scipy.linalg) would more than double the process's
    memory, and without registering it in ``sys.modules``. A later
    ``import scipy.spatial`` therefore loads the extension itself, which
    sets ``scipy.spatial._distance_pybind``; CPython initializes an
    extension once per process and hands back the same module object.
    """
    module = _scipy_module(_KERNEL_MODULE)
    if module is None:
        raise ImportError(f"scipy {scipy_version()} has no compiled module {_KERNEL_MODULE}")
    try:
        return module.cdist_euclidean, module.cdist_sqeuclidean
    except AttributeError as exc:
        raise ImportError(f"scipy {scipy_version()} has no {_KERNEL_MODULE}.{exc.name}") from None


# cdist_*(A, B, out=None): all pairwise (squared) Euclidean distances of the
# rows of A and B, written into ``out`` when it is given.
cdist_euclidean, cdist_sqeuclidean = _distance_kernels()


def _openblas():
    """The OpenBLAS that numpy's wheels bundle in ``numpy.libs``, bound
    through ctypes, or None for a numpy built against another BLAS or
    without these symbols. ``RTLD_NOLOAD`` binds only a library this
    process has already loaded: numpy's copy, never a second one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (name for name in names if name.startswith("libscipy_openblas64_")):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name), mode=os.RTLD_NOLOAD)
            get, put, core = (lib.scipy_openblas_get_num_threads64_,
                              lib.scipy_openblas_set_num_threads64_,
                              lib.scipy_openblas_get_corename64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        core.argtypes, core.restype = [], ctypes.c_char_p
        return lib
    return None


_BLAS = _openblas()


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs a call on, or None without the binding."""
    return None if _BLAS is None else _BLAS.scipy_openblas_get_num_threads64_()


def set_blas_threads(count: int | None) -> None:
    """Run numpy's OpenBLAS on ``count`` threads. Without the binding, or
    for a count of None, nothing changes."""
    if _BLAS is not None and count is not None:
        _BLAS.scipy_openblas_set_num_threads64_(count)


def header() -> list[str]:
    """A run manifest's host lines: the decisions above, then the libraries
    and kernels the bytes may depend on."""
    threads, core = ("(no OpenBLAS binding)",) * 2 if _BLAS is None else (
        blas_threads(), _BLAS.scipy_openblas_get_corename64_().decode())
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return [f"projection_threads = {cpu_count()}",
            f"arm_workers = {arm_workers()}",
            f"blas_threads = {threads}",
            f"numpy = {np.__version__}",
            f"scipy = {scipy_version()}",
            f"blas_core = {core}",
            f"numpy_simd = {' '.join(simd)}"]
