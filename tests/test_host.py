"""epl.host: the CPU and fork rules read from the real affinity mask, one
BLAS thread per member of an arm wave, and the manifest lines that name
the kernels behind the bytes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epl
from epl import host, workers
from epl.pipeline import PipelineError, RunManifest, RunState

UNBOUND = "(no OpenBLAS binding)"
SIMD = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="arm waves fork")


def _fresh(code: str, out: Path, **env) -> dict:
    """Run `code` in a new interpreter with epl importable, ``env`` added to
    its environment and ``out`` as its argument; its last stdout line as JSON."""
    src = str(Path(epl.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + code, str(out)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, **env})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# A manifest's host lines: those between its wall clock and the blank line.
HEADER = """
import json
from epl import host
from epl.pipeline import RunManifest, RunState
lines = RunManifest("experiment c1", "").write(
    sys.argv[1], RunState(None, None, None, None)).read_text().splitlines()
print(json.dumps({"cpus": host.cpu_count(), "workers": host.arm_workers(),
                  "header": lines[5:lines.index("")]}))
"""
ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
def test_one_cpu_in_the_affinity_mask_gives_one_side_and_no_fork(tmp_path):
    facts = _fresh(ONE_CPU + HEADER, tmp_path)
    assert (facts["cpus"], facts["workers"]) == (1, 1)
    header = dict(line.split(" = ", 1) for line in facts["header"])
    assert list(header)[:4] == ["arm_workers", "blas_threads", "numpy", "scipy"]
    assert header["arm_workers"] == "1"


@pytest.mark.skipif(host.blas_threads() is None or "X86_V3" not in SIMD,
                    reason="OpenBLAS's Haswell core needs the binding and AVX2")
def test_header_names_the_blas_core_and_numpys_simd_targets(tmp_path):
    # The subprocess forces OpenBLAS's Haswell kernels and numpy's first
    # dispatch target for itself; its header names what it ran.
    facts = _fresh(HEADER, tmp_path, OPENBLAS_CORETYPE="Haswell",
                   NPY_DISABLE_CPU_FEATURES=" ".join(SIMD[SIMD.index("X86_V3") + 1:]))
    assert "blas_core = Haswell" in facts["header"]
    assert "numpy_simd = X86_V3" in facts["header"]


# The libraries mapped into a fresh process once numpy is imported, and
# the file epl's OpenBLAS binding names after that.
BOUND = """
import json, os
import numpy
mapped = set(open("/proc/self/maps").read().split())
from epl import host
print(json.dumps({"mapped": sorted(mapped), "bound": host._BLAS and host._BLAS._name}))
"""


@pytest.mark.skipif(host.blas_threads() is None or not os.path.exists("/proc/self/maps"),
                    reason="needs the binding and a process map")
def test_the_binding_is_the_openblas_numpy_loaded(tmp_path):
    facts = _fresh(BOUND, tmp_path)
    assert os.path.realpath(facts["bound"]) in facts["mapped"]


@pytest.fixture
def two_blas_threads():
    """This process's OpenBLAS on two threads, its own count restored after."""
    count = host.blas_threads()
    if count is None:
        pytest.skip("numpy's OpenBLAS is not bound here")
    host.set_blas_threads(2)
    yield
    host.set_blas_threads(count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_each_member_of_a_wave_runs_one_blas_thread(two_blas_threads):
    state = RunState(None, None, None, None)
    rows = workers.run_wave(state, [(stage, lambda: [host.blas_threads()])
                                    for stage in ("r0.simclr.c1", "r0.supcon.c1")])
    assert rows == [1, 1]
    assert host.blas_threads() == 2
    assert workers.run_wave(state, [("r0.simclr.c1", lambda: [host.blas_threads()])]) == [2]

    def failing():
        raise ValueError("this process's arm")

    with pytest.raises(ValueError, match="this process's arm"):
        workers.run_wave(state, [("r0.simclr.c1", failing),
                                 ("r0.supcon.c1", lambda: [host.blas_threads()])])
    assert host.blas_threads() == 2
    _no_child_left()


@needs_fork
def test_a_wave_that_cannot_fork_runs_on_this_processs_count(two_blas_threads, monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = workers.run_wave(RunState(None, None, None, None),
                            [(stage, lambda: [host.blas_threads()])
                             for stage in ("r0.simclr.c1", "r0.supcon.c1")])
    assert rows == [2, 2]
    assert host.blas_threads() == 2


@needs_fork
def test_without_the_binding_a_wave_runs_and_the_header_says_so(tmp_path, monkeypatch):
    monkeypatch.setattr(host, "_BLAS", None)
    rows = workers.run_wave(RunState(None, None, None, None),
                            [(stage, lambda stage=stage: [stage])
                             for stage in ("r0.simclr.c1", "r0.supcon.c1")])
    assert rows == ["r0.simclr.c1", "r0.supcon.c1"]
    lines = RunManifest("experiment c1", "").write(
        tmp_path, RunState(None, None, None, None)).read_text().splitlines()
    assert {f"blas_threads = {UNBOUND}", f"blas_core = {UNBOUND}"} <= set(lines)
    _no_child_left()


@needs_fork
def test_an_answer_larger_than_the_pipe_buffer_comes_back_whole():
    # 1 MiB, past a pipe's 64 KiB buffer; None and a raised exception come
    # back as answers too.
    data = bytes(range(256)) * 4096

    def serve(code):
        if code == 2:
            raise KeyError("two")
        return data[code:] if code else None

    child = host.fork(serve)
    answers = []
    for code in (1, 0, 2, 3):
        child.send(code)
        answers.append(child.answer("serve", RuntimeError))
    assert answers[0] == data[1:] and answers[1] is None and answers[3] == data[3:]
    assert type(answers[2]) is KeyError and answers[2].args == ("two",)
    assert child.close() is None
    _no_child_left()


@needs_fork
def test_a_child_exits_with_code_0_once_its_request_pipe_closes():
    child = host.fork(lambda code: code * 2)
    child.send(21)
    assert child.answer("double", RuntimeError) == 42
    assert child.close() is None and child.pid is None
    assert child.close() is None  # reaped once
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("dead_before_the_request", [True, False], ids=["dead", "dying"])
def test_a_request_to_a_dead_child_is_the_typed_error(dead_before_the_request):
    child = host.fork(lambda code: os.kill(os.getpid(), signal.SIGKILL))
    if dead_before_the_request:  # the request meets a closed pipe
        os.kill(child.pid, signal.SIGKILL)
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
    child.send(0)
    error = child.answer("r0.supcon.c1", PipelineError)
    assert type(error) is PipelineError
    assert str(error) == "r0.supcon.c1: the child process ended with signal 9 before answering"
    assert child.pid is None
    _no_child_left()
