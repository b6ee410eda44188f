"""Exact 2D t-SNE with per-row perplexity bisection and analytic gradients.

Affinities: each row gets a Gaussian conditional distribution whose
precision is bisected until the realized perplexity (2 to the Shannon
entropy) matches the target; the conditionals are then symmetrized and
normalized to a joint P. The embedding minimizes KL(P || Q) with a
Student-t Q by plain gradient descent with momentum, early exaggeration,
and re-centering after every step. Everything is O(n^2) and bit-stable
for a fixed seed.

The projection holds P and one n x n buffer through the descent.
`conditional_affinities` writes the squared distances into the matrix it
returns and replaces each row by its conditional in turn, and
`pairwise_affinities` symmetrizes that matrix in place, block pair by
block pair, so it becomes P.

The descent computes one gradient per step and no KL until the last 50
steps. `tsne_project` lends one `Workspace` to every `kl_gradient` and
`kl_divergence` call. Its buffer `w` holds the Student-t weights
1 / (1 + |y_i - y_j|^2) (zero diagonal) of the coordinates it was built
for, with their sum S. A gradient overwrites `w`, one block of
_BLOCK_ROWS rows at a time, with (alpha P - w / S) * w, where alpha is the
early exaggeration, so P is never copied; a KL only reads `w`. A call
rebuilds the weights only for other coordinates than the ones they hold,
so in the last 50 steps the kernel that the KL of step t builds is the
one the gradient of step t + 1 uses: one kernel per step, not two. The
KL is sum p log p, taken once per P array, minus sum p log q, summed one
row block at a time. The gradient computes the same float operations as
the full-matrix form, so its bytes do not depend on the workspace or the
blocking; the KL's bytes depend on the block order and nothing else.

Each kernel build, weight sum, gradient pass and KL pass, and the
perplexity bisection, is split into two row halves, cut at the first
multiple of _BLOCK_ROWS from n / 2 on. Inside a `with`, a workspace runs
the second half in a forked helper process over buffers mapped MAP_SHARED,
P's included (see `Workspace.split`), when `_side_count(n)` is 2;
otherwise, and in a standalone `kl_gradient` or `kl_divergence` call, the
caller runs both halves in turn. Every element is computed by the same
float operations either way, so only the one full reduction could depend
on the split: the weight sum S. It is always taken as the sums of its two
parts, cut where numpy's pairwise sum splits a contiguous array of more
than 128 items, so it equals `w.sum()` bit for bit on one side or two.
`w @ Y` stays one BLAS call in the caller, the KL adds its per-block sums
in block order, and each bisected row runs the same `_bisect_row`. The
bytes therefore do not depend on the side count.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import host
from .dataset import (EplError, check_at_least, check_finite, check_matrix, check_non_negative,
                      check_positive)
from .host import cdist_sqeuclidean

_Q_EPS = 1e-12
_INIT_SIGMA = 1e-4
# The bracket search doubles the precision beta at most this many times
# from 1, so beta * squared distance stays finite for every beta it tries
# when the distances stay below _MAX_SHIFTED_D2. It halves beta until it
# underflows, so wide distance spreads still find a bracket.
_BISECT_STEPS = 64
_MAX_SHIFTED_D2 = np.finfo(np.float64).max / 2.0 ** _BISECT_STEPS
# Rows per block of the gradient's and the KL's passes, and the side of the
# symmetrization's blocks. A block of w, P and the scratch holds
# 64 x 3 float64 = 1.5 kB per column, so it stays in a 2 MB L2 cache up to
# n ~ 1300.
_BLOCK_ROWS = 64
# numpy sums a contiguous float64 array of more than this many items as the
# pairwise sums of two parts, cut at a multiple of 8 near the middle.
_PAIRWISE_BLOCK = 128


class ProjectionError(EplError):
    """Raised for invalid configurations or failed bisection."""


@dataclass(frozen=True)
class ProjectionConfig:
    """Descent settings, checked when built. The perplexity's upper bound
    depends on the point count, so `conditional_affinities` checks it."""

    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch: int = 250
    seed: int = 0
    entropy_tolerance: float = 1e-5

    def __post_init__(self):
        if math.isnan(self.perplexity):
            raise ProjectionError("perplexity must be a number, got NaN")
        if self.perplexity <= 1:
            raise ProjectionError("perplexity must exceed 1")
        check_at_least("iterations", self.iterations, 1, ProjectionError)
        for name in ("learning_rate", "early_exaggeration", "entropy_tolerance"):
            check_positive(name, getattr(self, name), ProjectionError)
        for name in ("momentum_start", "momentum_final"):
            check_non_negative(name, getattr(self, name), ProjectionError)
        for name in ("exaggeration_iters", "momentum_switch", "seed"):
            check_at_least(name, getattr(self, name), 0, ProjectionError)


@dataclass
class Embedding2D:
    coordinates: np.ndarray
    # The plain-objective KL of each of the last (up to 50) iterations.
    kl_tail: np.ndarray

    def __post_init__(self):
        self.coordinates = check_matrix(self.coordinates, ProjectionError)

    def __len__(self) -> int:
        return self.coordinates.shape[0]

    @property
    def final_kl(self) -> float:
        return float(self.kl_tail[-1])

    @property
    def max_late_kl_increase(self) -> float:
        """Largest KL increase between consecutive late iterations, at least
        0; reported so callers can check the <= 1e-3 settling contract."""
        tail = self.kl_tail
        return max(0.0, float(np.diff(tail).max()) if tail.size > 1 else 0.0)


def _entropy_and_probs(shifted: np.ndarray, beta: float):
    """Gaussian row distribution over squared distances shifted to a zero
    minimum, and its entropy in nats."""
    p = np.exp(-beta * shifted)
    p /= p.sum()
    positive = p[p > 0]
    return p, float(-(positive * np.log(positive)).sum())


def conditional_affinities(features, perplexity: float,
                           tol: float = ProjectionConfig.entropy_tolerance, work=None):
    """Per-row Gaussian conditionals matching the target perplexity.

    Returns (conditional matrix with zero diagonal, precision per row).
    Rows whose off-diagonal distances are all equal admit no bisection
    solution and are set uniform, the entropy-maximizing limit. Non-finite
    features, squared distances beyond float64, and squared distances too
    large for the bisection's precisions to scale raise ProjectionError
    before any row is bisected. The squared distances are computed into
    the returned matrix, mapped MAP_SHARED, and each row's conditional
    overwrites its distances: no second n x n array. `work`, an optional
    Workspace for n points, is lent the matrix (`Workspace.share`) and
    splits the bisection's rows.
    """
    X = check_matrix(features, ProjectionError)
    n = X.shape[0]
    if n < 3:
        raise ProjectionError("need at least 3 points")
    # A row of n points realizes a perplexity of at most n - 1 (uniform).
    if not perplexity <= n - 1:
        raise ProjectionError(
            f"perplexity {perplexity} exceeds n - 1 = {n - 1}, the most {n} points can realize")
    cond = _shared(n * n)
    if cond is None:
        raise MemoryError(f"cannot map {n} x {n} float64")
    cond = cond.reshape(n, n)
    cdist_sqeuclidean(X, X, out=cond)
    # Finite features give no NaN distance, so an overflow shows as an inf maximum.
    top = check_finite(cond.max(), ProjectionError,
                       "float64 overflow: a squared distance between features")
    if top > _MAX_SHIFTED_D2:
        raise ProjectionError(
            f"squared-distance range 0..{top:.3g} is too wide for the perplexity "
            f"bisection: precisions up to 2**{_BISECT_STEPS} would overflow float64")
    if work is None:
        betas = np.ones(n)
        _bisect_rows(cond, betas, slice(0, n), perplexity, tol)
        return cond, betas
    work.share(cond)
    work.betas.fill(1.0)
    work.scalars[2:] = perplexity, tol
    work.split(_bisection_half, cond)
    return cond, work.betas.copy()


def _bisect_rows(cond: np.ndarray, betas: np.ndarray, rows: slice, perplexity, tol) -> None:
    """Replace each row of `cond` in `rows`, its squared distances, by its
    conditional, and write its precision into `betas`."""
    n = cond.shape[0]
    for i in range(rows.start, rows.stop):
        row = np.delete(cond[i], i)
        # All-equal distances (to float resolution) admit no bisection
        # solution: the conditional is uniform for every precision.
        if row.max() - row.min() <= 1e-12 * max(row.max(), 1.0):
            p = np.full(n - 1, 1.0 / (n - 1))
        else:
            betas[i], p = _bisect_row(row, perplexity, tol, i)
        cond[i, :i] = p[:i]
        cond[i, i] = 0.0
        cond[i, i + 1:] = p[i:]


def _bisect_row(row: np.ndarray, perplexity: float, tol: float, i: int):
    """(precision, row distribution) whose perplexity is within tol of the target."""
    # Realized perplexity exp(H) decreases monotonically in beta, from
    # n-1 at beta=0 toward the multiplicity of the nearest neighbour.
    shifted = row - row.min()
    beta = 1.0
    _, h = _entropy_and_probs(shifted, beta)
    lo = hi = None
    while True:
        if np.exp(h) > perplexity:
            lo = beta
            beta *= 2.0
        else:
            hi = beta
            beta /= 2.0
        if lo is not None and hi is not None:
            break
        if beta > 2.0 ** _BISECT_STEPS or beta == 0.0:
            raise ProjectionError(f"row {i}: failed to bracket perplexity {perplexity}")
        _, h = _entropy_and_probs(shifted, beta)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        p, h = _entropy_and_probs(shifted, mid)
        perp = np.exp(h)
        if abs(perp - perplexity) <= tol:
            return mid, p
        if perp > perplexity:
            lo = mid
        else:
            hi = mid
    raise ProjectionError(f"row {i}: bisection did not reach tolerance {tol}")


def pairwise_affinities(features, perplexity: float,
                        tol: float = ProjectionConfig.entropy_tolerance, work=None) -> np.ndarray:
    """Symmetrized joint affinities (C + C^T) / (2 n), built in C's own buffer.

    Each pair of _BLOCK_ROWS-square blocks is summed, scaled and written
    back to both places; c_ij + c_ji = c_ji + c_ij in floating point, so the
    result equals the out-of-place form bit for bit. With `work`, the
    result is the workspace's shared P (`conditional_affinities`).
    """
    P, _ = conditional_affinities(features, perplexity, tol, work)
    n = P.shape[0]
    scale = 2.0 * n
    for a in range(0, n, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        for b in range(a, n, _BLOCK_ROWS):
            cols = slice(b, b + _BLOCK_ROWS)
            block = P[rows, cols] + P[cols, rows].T
            block /= scale
            P[rows, cols] = block
            P[cols, rows] = block.T
    return P


def _row_blocks(rows: slice):
    """(slice, row count) of each block of _BLOCK_ROWS consecutive rows in
    `rows`, whose start is a multiple of _BLOCK_ROWS."""
    for start in range(rows.start, rows.stop, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows.stop)
        yield slice(start, stop), stop - start


def _halves(n: int) -> tuple[slice, slice]:
    """The two row halves of an n x n pass, cut at the first multiple of
    _BLOCK_ROWS from n / 2 on; the second is empty when n <= _BLOCK_ROWS.
    The first half is the larger: the caller runs it and starts while the
    helper is still waking up."""
    cut = min(n, _BLOCK_ROWS * -(-n // (2 * _BLOCK_ROWS)))
    return slice(0, cut), slice(cut, n)


def _sum_halves(size: int) -> tuple[slice, slice]:
    """The two parts whose sums numpy's pairwise sum adds up for `size`
    contiguous items; the second is empty when it does not split them."""
    cut = size // 2 - (size // 2) % 8 if size > _PAIRWISE_BLOCK else size
    return slice(0, cut), slice(cut, size)


def _side_count(n: int) -> int:
    """Sides a workspace of n points splits its passes between: the
    processes the host may share work between (`host.arm_workers`), or 1
    for n <= _BLOCK_ROWS, where the second half is empty."""
    return host.arm_workers() if n > _BLOCK_ROWS else 1


def _shared(size: int) -> np.ndarray | None:
    """`size` zeroed float64 items over anonymous MAP_SHARED memory, whose
    pages a process forked after the map shares; None when the map fails,
    as it does for want of memory or address space."""
    try:
        return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
    except (OSError, MemoryError):
        return None


# The jobs a split runs, job(workspace, P, side), each on one row half.
# Everything a job reads or writes but the private `scratch[side]` lies in
# the workspace's shared buffers.

def _weights_half(ws, _P, side) -> None:
    """The Student-t weights 1 / (1 + squared distance) of `coords`, with a
    zero diagonal, into the half's rows of `w`."""
    n = ws.n
    rows = _halves(n)[side]
    block = ws.w[rows]
    cdist_sqeuclidean(ws.coords[rows], ws.coords, out=block)
    np.add(block, 1.0, out=block)
    np.divide(1.0, block, out=block)
    ws.w.reshape(-1)[rows.start * (n + 1):rows.stop * (n + 1):n + 1] = 0.0


def _weight_sum_part(ws, _P, side) -> None:
    """The sum of one of numpy's two pairwise parts of `w` into `parts`."""
    flat = ws.w.reshape(-1)
    ws.parts[side] = flat[_sum_halves(flat.size)[side]].sum()


def _gradient_half(ws, P, side) -> None:
    """(alpha P - w / S) * w over the half's rows into `w`, and its row sums."""
    total, exaggeration = ws.scalars[0], ws.scalars[1]
    w = ws.w
    for rows, k in _row_blocks(_halves(ws.n)[side]):
        block = ws.scratch[side, 0, :k]
        np.divide(w[rows], total, out=block)
        p = P[rows]
        if exaggeration != 1.0:
            p = np.multiply(p, exaggeration, out=ws.scratch[side, 1, :k])
        np.subtract(p, block, out=block)
        np.multiply(block, w[rows], out=w[rows])
        np.sum(w[rows], axis=1, out=ws.row_sums[rows])


def _kl_half(ws, P, side) -> None:
    """sum p log q over each block of the half's rows into `block_sums`."""
    total = ws.scalars[0]
    for rows, k in _row_blocks(_halves(ws.n)[side]):
        log_q = ws.scratch[side, 0, :k]
        np.divide(ws.w[rows], total, out=log_q)
        np.maximum(log_q, _Q_EPS, out=log_q)
        np.log(log_q, out=log_q)
        np.multiply(P[rows], log_q, out=log_q)
        ws.block_sums[rows.start // _BLOCK_ROWS] = log_q.sum()


def _bisection_half(ws, P, side) -> None:
    """The conditionals and precisions of the half's rows of P, the distances."""
    _bisect_rows(P, ws.betas, _halves(ws.n)[side], float(ws.scalars[2]), float(ws.scalars[3]))


_JOBS = (_weights_half, _weight_sum_part, _gradient_half, _kl_half, _bisection_half)
_JOB_CODES = {job: bytes((code,)) for code, job in enumerate(_JOBS)}


def _half_name(job, n: int) -> str:
    return f"{job.__name__.strip('_')} on the helper, {n} points"


def _run_jobs(ws, jobs, answers) -> None:
    """The helper: run the second half of each job whose code comes on
    `jobs`, and answer a zero byte, or a one, the length and the pickled
    exception; return at EOF."""
    while code := jobs.read(1):
        job = _JOBS[code[0]]
        try:
            job(ws, ws.p, 1)
            answer = b"\0"
        except Exception as exc:
            payload = host.pickled(exc, lambda error: ProjectionError(
                f"{_half_name(job, ws.n)}: {type(exc).__name__}: {exc} "
                f"(not sent back whole: {error})"))
            answer = b"\1" + len(payload).to_bytes(8, "little") + payload
        answers.write(answer)
        answers.flush()


def _student_t_weights(ws, Y: np.ndarray):
    """Y's Student-t weights into `ws.w`, one row half per side; returns their
    sum, which equals `ws.w.sum()` bit for bit. The sum reads every row, so
    it is a second split, over numpy's two pairwise parts."""
    ws.coords[:] = Y
    ws.split(_weights_half)
    ws.split(_weight_sum_part)
    return ws.parts[0] + ws.parts[1]


class Workspace:
    """The n x n weights `w` and the per-call buffers, mapped MAP_SHARED; a
    block scratch per row half; the state they carry between calls; and,
    inside a `with`, a helper process.

    `w` and `scalars[0]` hold the Student-t weights of the coordinates whose
    shape and bytes are `_kernel_of`, and their sum. A gradient overwrites
    `w` and clears `_kernel_of`, so the next call rebuilds the weights.
    `scratch[side]` holds two blocks of _BLOCK_ROWS rows for that row
    half. `_p_log_p` is sum p log p over the positive entries of the P
    array object `_p_log_p_of`, which was checked to be finite and
    non-negative; that array must not change in place while the workspace
    is in use. `p` is the shared P (`share`), or None. `nbytes` counts the
    mapped buffers, which `tracemalloc` does not see.

    The helper is forked at the first split inside a `with` and computes
    under the numpy error state of that split. It exits at EOF on its job
    pipe: leaving the workspace, also by an exception, closes the pipe and
    reaps it, and a killed caller's pipe closes with it.
    """

    def __init__(self, n: int):
        # w, coordinates, row sums, the weight sum's two parts, the KL's block
        # sums, the bisection's precisions, and (S, alpha, perplexity, tol).
        sizes = (n * n, 2 * n, n, 2, -(-n // _BLOCK_ROWS), n, 4)
        buffer = _shared(sum(sizes))
        if buffer is None:
            raise MemoryError(f"cannot map {n} x {n} float64")
        (w, coords, self.row_sums, self.parts, self.block_sums, self.betas,
         self.scalars) = np.split(buffer, np.cumsum(sizes)[:-1])
        self.n, self.w, self.coords, self._buffer = n, w.reshape(n, n), coords.reshape(n, 2), buffer
        self.scratch = np.empty((2, 2, min(n, _BLOCK_ROWS), n))
        self.p = None
        self._kernel_of = None
        self._p_log_p_of = None
        self._p_log_p = 0.0
        self._may_fork = False
        self._helper = None

    @property
    def nbytes(self) -> int:
        return self._buffer.nbytes + (0 if self.p is None else self.p.nbytes)

    def __enter__(self) -> Workspace:
        self._may_fork = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._may_fork = False
        self._stop()

    def share(self, P: np.ndarray) -> None:
        """Make P, an n x n array over a `_shared` map, the workspace's `p`,
        the P whose passes the helper may run. A helper forked before the
        map cannot see it: it is stopped, and the next split forks another."""
        if self._helper is not None:
            self._stop()
            self._may_fork = True
        self.p = P

    def _stop(self) -> str | None:
        """Close the helper's pipes and reap it: how it ended (`host.reap`)."""
        if self._helper is None:
            return None
        pid, jobs, answers = self._helper
        self._helper = None
        jobs.close()
        answers.close()
        return host.reap(pid)

    def split(self, job, P=None) -> None:
        """Run job(self, P, 0) on the first row half here and job(self, P, 1)
        on the second: on the helper when there is one and P is None or `p`,
        else here after the first. The first split inside a `with` forks the
        helper when `_side_count(n)` is 2; where the fork fails, the caller
        runs both halves. The helper gets the job's one-byte code and
        answers a zero byte, or a one and its pickled exception. An
        exception on either side is raised here, the caller's first; a
        helper's comes back with its type and message, or as a
        ProjectionError naming the half when it cannot be pickled. The
        helper has ended its half by then and serves the next split."""
        if self._may_fork:
            self._may_fork = False
            if _side_count(self.n) > 1:
                self._helper = host.fork(functools.partial(_run_jobs, self))
        if self._helper is None or not (P is None or P is self.p):
            job(self, P, 0)
            job(self, P, 1)
            return
        try:
            self._helper[1].write(_JOB_CODES[job])
        except BrokenPipeError:  # the helper has ended: `_answer` reads EOF and says how
            pass
        try:
            job(self, P, 0)
        finally:
            answer = self._answer(job)
        if answer is not None:
            raise answer

    def _answer(self, job) -> BaseException | None:
        """The helper's answer to `job`: None, or the exception to raise."""
        answers = self._helper[2]
        status = answers.read(1)
        if status == b"\0":
            return None
        if status == b"\1":
            payload = answers.read(int.from_bytes(answers.read(8), "little"))
            return host.unpickled(payload, lambda exc: ProjectionError(
                f"{_half_name(job, self.n)}: its exception could not be read: "
                f"{type(exc).__name__}: {exc}"))
        how = self._stop() or "exit code 0"
        return ProjectionError(f"{_half_name(job, self.n)}: the helper process ended "
                               f"with {how} before answering")

    def kernel(self, Y: np.ndarray) -> None:
        """Make `w` and `scalars[0]` hold Y's weights and their sum S, building
        them only if they hold another Y's."""
        key = (Y.shape, Y.tobytes())
        if key != self._kernel_of:
            self._kernel_of = None
            total = _student_t_weights(self, Y)
            # Q = w / total: with every squared distance overflowed, no weight is left.
            if not total > 0:
                raise ProjectionError("float64 overflow: no squared distance between "
                                      "coordinates is finite")
            self.scalars[0] = total
            self._kernel_of = key

    def p_log_p(self, P: np.ndarray) -> float:
        """sum p log p over P's positive entries, summed by row blocks, computed
        only if it is another array's. A negative or non-finite entry raises
        ProjectionError; a block's min and max show it, NaN included."""
        if P is not self._p_log_p_of:
            total = 0.0
            for rows, _ in _row_blocks(slice(0, P.shape[0])):
                block = P[rows]
                if not (block.min() >= 0.0 and block.max() < np.inf):
                    i, j = np.argwhere(~((block >= 0.0) & (block < np.inf)))[0]
                    raise ProjectionError(f"P[{rows.start + i}, {j}] is {block[i, j]}: "
                                          "P must be finite and non-negative")
                p = block[block > 0]
                total += float((p * np.log(p)).sum())
            self._p_log_p_of, self._p_log_p = P, total
        return self._p_log_p


def _kernel_args(P, coords, work):
    """P and the coordinates as float64 arrays of matching shapes, and a
    workspace of their size: `work`, or a fresh one that is never entered,
    so the caller runs both halves. P is checked, and its sum p log p
    taken, once per array (`Workspace.p_log_p`)."""
    P = np.asarray(P, dtype=np.float64)
    Y = check_matrix(coords, ProjectionError)
    n = Y.shape[0]
    if P.shape != (n, n):
        raise ProjectionError(f"P has shape {P.shape}, expected {n} x {n} for {n} coordinates")
    ws = work if work is not None else Workspace(n)
    if ws.w.shape != (n, n):
        raise ProjectionError(f"the workspace must be {n} x {n} for {n} coordinates")
    ws.p_log_p(P)
    return P, Y, ws


def kl_divergence(P, coords, work=None) -> float:
    """KL(P || Q) with the Student-t Q implied by the coordinates.

    P must be finite and non-negative; its zero entries contribute nothing.
    Q is floored at 1e-12 before the log. The KL is sum p log p minus the
    sum of p log q over blocks of _BLOCK_ROWS rows, added in block order.
    `work` is an optional Workspace for n coordinates; the kernel this call
    builds stays in it.
    """
    P, Y, ws = _kernel_args(P, coords, work)
    ws.kernel(Y)
    ws.split(_kl_half, P)
    cross = 0.0
    for block_sum in ws.block_sums.tolist():
        cross += block_sum
    return ws.p_log_p(P) - cross


def kl_gradient(P, coords, work=None, exaggeration: float = 1.0) -> np.ndarray:
    """Analytic gradient of KL(alpha P || Q) with respect to the coordinates.

    dC/dy_i = 4 sum_j (alpha p_ij - q_ij) (y_i - y_j) / (1 + |y_i - y_j|^2),
    where alpha is the exaggeration; P[rows] * alpha equals (P * alpha)[rows]
    elementwise. `work` is an optional Workspace for n coordinates; the
    gradient overwrites its kernel.
    """
    P, Y, ws = _kernel_args(P, coords, work)
    ws.kernel(Y)
    ws._kernel_of = None
    ws.scalars[1] = exaggeration
    ws.split(_gradient_half, P)
    return 4.0 * (ws.row_sums[:, None] * Y - ws.w @ Y)


def _out_of_memory(n: int) -> ProjectionError:
    return ProjectionError(f"out of memory: exact t-SNE of {n} points holds two {n} x {n} "
                           f"float64 matrices, {2 * n * n * 8 / 2 ** 20:.0f} MB")


@np.errstate(over="ignore", invalid="ignore")
def tsne_project(features, config: ProjectionConfig) -> Embedding2D:
    """Run gradient descent on the t-SNE objective; deterministic per seed.

    Early iterations use exaggerated affinities; the plain-objective KL is
    tracked over the final 50 iterations and its worst consecutive increase
    is reported on the embedding. A descent that overflows float64 raises
    ProjectionError, as every kernel call checks the coordinates and weights.
    The workspace is mapped before the affinities (a map touches no page),
    and memory for either n x n matrix running out raises ProjectionError.
    """
    X = check_matrix(features, ProjectionError)
    n = X.shape[0]
    if n < 4:
        raise ProjectionError("need at least 4 points to project")
    try:
        work = Workspace(n)
    except MemoryError as exc:
        raise _out_of_memory(n) from exc
    rng = np.random.default_rng(config.seed)
    Y = rng.normal(0.0, _INIT_SIGMA, (n, 2))
    velocity = np.zeros_like(Y)
    tail_start = max(0, config.iterations - 50)
    kl_tail = []

    with work:
        try:
            P = pairwise_affinities(X, config.perplexity, config.entropy_tolerance, work)
        except MemoryError as exc:
            raise _out_of_memory(n) from exc
        for it in range(config.iterations):
            exaggeration = config.early_exaggeration if it < config.exaggeration_iters else 1.0
            momentum = (config.momentum_start if it < config.momentum_switch
                        else config.momentum_final)
            step = kl_gradient(P, Y, work, exaggeration)
            step *= config.learning_rate
            velocity *= momentum
            velocity -= step
            Y += velocity
            Y -= Y.mean(axis=0)
            if it >= tail_start:
                kl_tail.append(kl_divergence(P, Y, work))

    return Embedding2D(Y, np.asarray(kl_tail))
