"""Arms run at once: the first in this process, each other one in a forked child.

An arm is a (stage, run) pair: ``run()`` yields the arm's result rows,
and the arm runs in the run state's arm isolation under its stage name.
A child runs its arm in its own copy of the run state and pickles a
report into a pipe: the arm's rows (with those it finished before a
failure), the manifest's ``[timing]`` and ``[errors]`` lines it added,
and the encoders and propagations it added to the state. This process
merges the reports in arm order, so the state, the manifest and the rows
are those of a run that ran every arm here, one after another. Files an
arm writes are written by the process that ran it.
"""

from __future__ import annotations

import os
import pickle
import signal

from . import host
from .pipeline import PipelineError

# RunState caches a child's arm may add to and this process takes back.
_CACHES = ("encoders", "propagations")


def _rows(state, stage: str, run) -> list:
    """The arm's rows, run in arm isolation: the rows it yielded before a
    failure are kept."""
    rows = []
    with state.arm(stage):
        rows.extend(run())
    return rows


def _report(state, stage: str, run) -> tuple:
    """Run the arm in this (child) process: (rows, (timings, errors), added caches)."""
    manifest = state.manifest
    if manifest is not None:  # this copy keeps only the lines the arm adds
        manifest.timings, manifest.errors = [], []
    known = {name: set(getattr(state, name)) for name in _CACHES}
    rows = _rows(state, stage, run)
    added = {name: {key: value for key, value in getattr(state, name).items()
                    if key not in known[name]} for name in _CACHES}
    lines = ([], []) if manifest is None else (manifest.timings, manifest.errors)
    return rows, lines, added


class _Forked:
    """An arm run in a forked child. ``rows()`` reads its report, reaps it and
    merges the report into the state; ``close()`` kills and reaps a child
    whose report was not read. Where the pipe or the fork fails, the arm
    runs in this process when its rows are asked for."""

    def __init__(self, state, stage: str, run):
        self.state, self.stage, self.run, self.pid = state, stage, run, None
        fds = []
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no pipe or no process to spare: the arm runs here
            for fd in fds:
                os.close(fd)
            return
        read_fd, write_fd = fds
        if pid == 0:  # the child never returns into the caller's frames
            code = 1
            try:
                os.close(read_fd)
                try:
                    value = _report(state, stage, run)
                except Exception as exc:  # no manifest: this process raises it
                    value = exc
                try:
                    payload = pickle.dumps(value)
                except Exception as exc:
                    what = (f"{type(value).__name__}: {value}" if isinstance(value, Exception)
                            else "the arm's report")
                    payload = pickle.dumps(PipelineError(
                        f"{stage}: {what} (not sent back whole: {exc})"))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self.pipe = pid, os.fdopen(read_fd, "rb")

    def rows(self) -> list:
        if self.pid is None:
            return _rows(self.state, self.stage, self.run)
        payload = self.pipe.read()
        self.pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0:
            how = f"exit code {code}" if code > 0 else f"signal {-code}"
            report = PipelineError(f"{self.stage}: the arm worker ended with {how} "
                                   "before sending its result")
        else:
            try:
                report = pickle.loads(payload)
            except Exception as exc:
                report = PipelineError(f"{self.stage}: the arm worker's result could not "
                                       f"be read: {type(exc).__name__}: {exc}")
        if isinstance(report, Exception):  # recorded, or raised without a manifest
            with self.state.arm(self.stage):
                raise report
            return []
        rows, (timings, errors), added = report
        if self.state.manifest is not None:
            self.state.manifest.timings += timings
            self.state.manifest.errors += errors
        for name, entries in added.items():
            getattr(self.state, name).update(entries)
        return rows

    def close(self) -> None:
        if self.pid is not None:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_wave(state, arms) -> list:
    """The rows of ``arms``, (stage, run) pairs run at once: the first here,
    each other one in a forked child, merged in arm order. In a wave of two
    or more, each process runs numpy's OpenBLAS on one thread, so the wave
    starts no more BLAS threads than there are CPUs; this process gets its
    own count back when no child could be forked and when the wave ends.
    Every child is reaped before this returns or raises."""
    children, count = [], host.blas_threads()
    try:
        if len(arms) > 1:
            host.set_blas_threads(1)  # before the forks, so each child inherits it
        for stage, run in arms[1:]:
            children.append(_Forked(state, stage, run))
        if not any(child.pid for child in children):  # the arms run here in turn
            host.set_blas_threads(count)
        rows = _rows(state, *arms[0])
        for child in children:
            rows += child.rows()
        return rows
    finally:
        host.set_blas_threads(count)
        for child in children:
            child.close()
