"""Arms run at once: the first in this process, each other one in a forked child.

An arm is a (stage, run) pair: ``run()`` yields the arm's result rows,
and the arm runs in the run state's arm isolation under its stage name.
A child (``host.fork``) is sent one request: it runs its arm in its own
copy of the run state and answers with a report of the arm's rows (with
those it finished before a failure), the manifest's ``[timing]`` and
``[errors]`` lines it added, and the encoders and propagations it added
to the state. This process merges the reports in arm order, so the
state, the manifest and the rows are those of a run that ran every arm
here, one after another. Files an arm writes are written by the process
that ran it.
"""

from __future__ import annotations

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


def _merged(state, stage: str, report) -> list:
    """The rows of a child's report, its lines and caches merged into the
    state; a report that is an exception is recorded in the arm's
    isolation, or raised without a manifest."""
    if isinstance(report, Exception):
        with state.arm(stage):
            raise report
        return []
    rows, (timings, errors), added = report
    if state.manifest is not None:
        state.manifest.timings += timings
        state.manifest.errors += errors
    for name, entries in added.items():
        getattr(state, name).update(entries)
    return rows


def run_wave(state, arms) -> list:
    """The rows of ``arms``, (stage, run) pairs run at once: the first here,
    each other one in a forked child, merged in arm order. Where the pipe
    or the fork fails, the arm runs here in its turn. In a wave of two or
    more, each process runs numpy's OpenBLAS on one thread, so the wave
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
            child = host.fork(lambda _code, stage=stage, run=run: _report(state, stage, run))
            if child is not None:
                child.send(0)
            children.append(child)
        if all(child is None for child in children):  # the arms run here in turn
            host.set_blas_threads(count)
        rows = _rows(state, *arms[0])
        for (stage, run), child in zip(arms[1:], children):
            rows += (_rows(state, stage, run) if child is None
                     else _merged(state, stage, child.answer(stage, PipelineError)))
        return rows
    finally:
        host.set_blas_threads(count)
        for child in children:
            if child is not None:
                child.close(kill=True)
