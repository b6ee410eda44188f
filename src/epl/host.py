"""What this host gives a run, decided in one place: how many CPUs a
projection splits its passes between, whether a projection's helper and a
family's arms may run in forked children, the one way epl forks such a
child and asks it for work (``fork``, ``Child``), scipy's compiled
distance kernels, and the threads of numpy's bundled OpenBLAS.
``header()`` names each decision and the libraries whose kernels make
the bytes in a run manifest."""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import pickle
import signal
import sys
import threading

import numpy as np


def cpu_count() -> int:
    """CPUs this process may use, capped at 2: 2 when its affinity mask
    holds two or more, else 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def arm_workers() -> int:
    """Processes that share the work at once: arms of a family, or the two
    row halves of a projection of more than 64 points. It is ``cpu_count()``
    where a fork is safe, else 1: off Linux, and while another thread of
    this process runs, which could hold a lock that the child would then
    wait on forever."""
    forkable = (sys.platform == "linux" and hasattr(os, "fork")
                and threading.active_count() == 1)
    return cpu_count() if forkable else 1


class _Unsent(str):
    """What a child answers for a value it cannot pickle: what the value
    was, and why it could not be sent."""


def _write_answer(answers, value) -> None:
    """Write ``value`` as one answer: its pickle after the pickle's length in
    8 bytes, or 8 zero bytes for None. A value that cannot be pickled is
    sent as an ``_Unsent`` naming it."""
    if value is None:
        answers.write(bytes(8))
    else:
        try:
            payload = pickle.dumps(value)
        except Exception as exc:
            what = (f"{type(value).__name__}: {value}" if isinstance(value, BaseException)
                    else "its answer")
            payload = pickle.dumps(_Unsent(f"{what} (not sent back whole: {exc})"))
        answers.write(len(payload).to_bytes(8, "little"))
        answers.write(payload)
    answers.flush()


class Child:
    """A forked child that serves one-byte requests (``fork``). ``send(code)``
    writes a request; ``answer(name, error)`` reads the reply: the value
    that ``serve(code)`` returned or the exception it raised. A read takes
    exactly the answer's bytes, so it does not wait for other processes to
    close their copies of the pipe. ``pid`` is None once the child is reaped."""

    def __init__(self, pid: int, requests, answers):
        self.pid, self._requests, self._answers = pid, requests, answers

    def send(self, code: int) -> None:
        try:
            self._requests.write(bytes((code,)))
        except BrokenPipeError:  # the child has ended: `answer` says how
            pass

    def answer(self, name: str, error):
        """The answer to the request sent last: a value, or an exception to
        raise. An exception or value the child could not pickle, an answer
        that cannot be read and a child that ends before answering come
        back as ``error(f"{name}: ...")``; this never raises."""
        header = self._answers.read(8)
        size = int.from_bytes(header, "little")
        payload = self._answers.read(size)
        if len(header) < 8 or len(payload) < size:
            how = self.close() or "exit code 0"
            return error(f"{name}: the child process ended with {how} before answering")
        if not size:
            return None
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            return error(f"{name}: its answer could not be read: {type(exc).__name__}: {exc}")
        return error(f"{name}: {value}") if isinstance(value, _Unsent) else value

    def close(self, kill: bool = False) -> str | None:
        """Close the pipes and wait for the child to end, after a SIGKILL if
        ``kill``: None when it exited with code 0 or was reaped before, else
        how it ended, as "exit code 3" or "signal 9"."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        self._requests.close()
        self._answers.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return None if code == 0 else f"exit code {code}" if code > 0 else f"signal {-code}"


def fork(serve) -> Child | None:
    """A child process that answers each one-byte request ``code`` it reads
    with ``serve(code)`` (``Child``) and never returns into the caller's
    frames. It exits with code 0 at EOF on its request pipe or when its
    parent has gone (a broken pipe), else with 1. None where no pipe or no
    process can be had."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    requests_in, requests_out, answers_in, answers_out = fds
    if pid == 0:
        code = 1
        try:
            os.close(requests_out)
            os.close(answers_in)
            with os.fdopen(requests_in, "rb", buffering=0) as requests, \
                    os.fdopen(answers_out, "wb") as answers:
                while request := requests.read(1):
                    try:
                        value = serve(request[0])
                    except Exception as exc:
                        value = exc
                    _write_answer(answers, value)
            code = 0
        except BrokenPipeError:  # no one is left to answer
            code = 0
        finally:
            os._exit(code)
    os.close(requests_in)
    os.close(answers_out)
    return Child(pid, os.fdopen(requests_out, "wb", buffering=0), os.fdopen(answers_in, "rb"))


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
    and kernels the bytes may depend on. ``arm_workers`` is also the sides
    ``epl.projection`` splits a projection of more than 64 points between."""
    threads, core = ("(no OpenBLAS binding)",) * 2 if _BLAS is None else (
        blas_threads(), _BLAS.scipy_openblas_get_corename64_().decode())
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return [f"arm_workers = {arm_workers()}",
            f"blas_threads = {threads}",
            f"numpy = {np.__version__}",
            f"scipy = {scipy_version()}",
            f"blas_core = {core}",
            f"numpy_simd = {' '.join(simd)}"]
