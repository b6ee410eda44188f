"""Arms run at once: the first in this process, each other one in a forked child.

An arm is a (stage, run) pair: ``run()`` yields the arm's result rows,
which go into the run state's record as it yields them, and the arm runs
in the state's arm isolation under its stage name. A child (``host.fork``)
is sent one request: it runs its arm in its own copy of the run state and
answers with what the arm appended to each part of the record
(``RunState.journal``), the rows it finished before a failure included.
This process appends those in arm order, so the record is that of a run
that ran every arm here, one after another. Files an arm writes are
written by the process that ran it.
"""

from __future__ import annotations

from . import host
from .pipeline import PipelineError


def _run(state, stage: str, run) -> None:
    """The arm in arm isolation, its rows appended to the record as it yields them."""
    with state.arm(stage):
        state.rows.extend(run())


def _appended(state, stage: str, run) -> dict:
    """Run the arm in this (child) process: what it appended to each part of
    the record, a list's items or a cache's (key, value) pairs."""
    marks = {name: len(part) for name, part in state.journal().items()}
    _run(state, stage, run)
    return {name: list(part.items() if isinstance(part, dict) else part)[marks[name]:]
            for name, part in state.journal().items()}


def _append(state, stage: str, answer) -> None:
    """A child's answer appended to each part of the record; an answer that
    is an exception is recorded in the arm's isolation."""
    if isinstance(answer, Exception):
        with state.arm(stage):
            raise answer
        return
    for name, part in state.journal().items():
        (part.update if isinstance(part, dict) else part.extend)(answer[name])


def run_wave(state, arms) -> None:
    """Run ``arms``, (stage, run) pairs, at once: the first here, each other
    one in a forked child, appended to the record in arm order. Where the
    pipe or the fork fails, the arm runs here in its turn. In a wave of two
    or more, each process runs numpy's OpenBLAS on one thread, so the wave
    starts no more BLAS threads than there are CPUs; this process gets its
    own count back when no child could be forked and when the wave ends.
    Every child is killed and reaped before this returns or raises: one
    that answered only waits for another request, and a kill does not wait
    for the EOF that a later child's copy of its pipe would hold back."""
    children, count = [], host.blas_threads()
    try:
        if len(arms) > 1:
            host.set_blas_threads(1)  # before the forks, so each child inherits it
        for stage, run in arms[1:]:
            child = host.fork(lambda _code, stage=stage, run=run: _appended(state, stage, run))
            if child is not None:
                child.send(0)
            children.append(child)
        if all(child is None for child in children):  # the arms run here in turn
            host.set_blas_threads(count)
        _run(state, *arms[0])
        for (stage, run), child in zip(arms[1:], children):
            if child is None:
                _run(state, stage, run)
            else:
                _append(state, stage, child.answer(stage, PipelineError))
    finally:
        host.set_blas_threads(count)
        for child in children:
            if child is not None:
                child.close(kill=True)
