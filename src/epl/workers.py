"""Jobs run at once: the first in this process, each other one in a forked child.

A job is a callable that returns a (value, seconds) pair and raises no
Exception of its own (``RunState._training`` makes a training such a
job). A child pickles its pair into a pipe and exits; this process reads
it and reaps the child. The pipeline imports this module only for a wave
of two or more jobs, so a run that trains one encoder at a time loads
none of it.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

from .pipeline import PipelineError


class _Forked:
    """``job`` run in a forked child. ``outcome()`` reads its pair and reaps
    it; ``close()`` kills and reaps a child whose pair was not read. Where
    the pipe or the fork fails, the job runs in this process when its pair
    is asked for."""

    def __init__(self, job, stage: str):
        self.job, self.stage, self.pid = job, stage, None
        self.start = time.perf_counter()
        fds = []
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no pipe or no process to spare: the job runs here
            for fd in fds:
                os.close(fd)
            return
        read_fd, write_fd = fds
        if pid == 0:  # the child never returns into the caller's frames
            code = 1
            try:
                os.close(read_fd)
                value, seconds = job()
                try:
                    payload = pickle.dumps((value, seconds))
                except Exception as exc:
                    payload = pickle.dumps((PipelineError(
                        f"{stage}: {type(value).__name__}: {value} (not sent back whole: "
                        f"{exc})"), seconds))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self.pipe = pid, os.fdopen(read_fd, "rb")

    def outcome(self):
        if self.pid is None:
            return self.job()
        payload = self.pipe.read()
        self.pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        seconds = time.perf_counter() - self.start
        if code != 0:
            how = f"exit code {code}" if code > 0 else f"signal {-code}"
            return PipelineError(f"{self.stage}: the training worker ended with {how} "
                                 "before sending its result"), seconds
        try:
            return pickle.loads(payload)
        except Exception as exc:
            return PipelineError(f"{self.stage}: the training worker's result could "
                                 f"not be read: {type(exc).__name__}: {exc}"), seconds

    def close(self) -> None:
        if self.pid is not None:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def run_wave(jobs, stages) -> list:
    """Each job's (value, seconds), all run at once: the first here, each other
    one in a forked child named by its stage in errors. Every child is reaped
    before this returns or raises."""
    children = []
    try:
        for job, stage in zip(jobs[1:], stages[1:]):
            children.append(_Forked(job, stage))
        return [jobs[0]()] + [child.outcome() for child in children]
    finally:
        for child in children:
            child.close()
