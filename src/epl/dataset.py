"""Dataset construction, file ingestion, and seeded stratified role splitting.

A dataset is a plain feature matrix with optional integer class labels.
Samples are assigned one of three roles (supervised / unsupervised / test)
by a deterministic stratified splitter; the supervised role is guaranteed
to cover every class so that downstream label propagation always has at
least one seed per class.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

# Sentinel for "no label"; never a valid class id.
UNLABELED = -1

# Binary header after the magic: n, d, has_labels and, from EPL2 on, the
# class count. EPL2 is written; EPL1 files stay readable.
_BINARY_MAGIC = b"EPL2"
_BINARY_HEADERS = {_BINARY_MAGIC: "<IIBI", b"EPL1": "<IIB"}


class EplError(ValueError):
    """Base of every typed error in epl; the CLI reports any of them as exit code 1."""


class DatasetError(EplError):
    """Raised for malformed dataset files or invalid construction arguments."""


class SplitError(EplError):
    """Raised when a stratified split cannot satisfy its guarantees."""


class Role(IntEnum):
    SUPERVISED = 0
    UNSUPERVISED = 1
    TEST = 2


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """n x d feature matrix with optional class labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray | None
    class_count: int
    name: str

    def __post_init__(self):
        feats = _readonly(check_matrix(self.features, DatasetError))
        n, d = feats.shape
        if n < 2 or d < 1:
            raise DatasetError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            if self.class_count > n:
                raise DatasetError(f"class count {self.class_count} exceeds {n} samples")
            labs = check_labels(self.labels, n, DatasetError, self.class_count)
            object.__setattr__(self, "labels", _readonly(labs))

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.labels is not None


@dataclass(frozen=True)
class SplitAssignment:
    """Role per sample index plus the seed and fractions that produced it."""

    roles: np.ndarray
    seed: int
    fractions: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "roles", _readonly(np.asarray(self.roles, dtype=np.uint8)))

    def indices(self, *roles: Role) -> np.ndarray:
        """Ascending sample indices holding any of the given roles."""
        return np.flatnonzero(np.isin(self.roles, [int(role) for role in roles]))

    @property
    def supervised(self) -> np.ndarray:
        return self.indices(Role.SUPERVISED)

    @property
    def unsupervised(self) -> np.ndarray:
        return self.indices(Role.UNSUPERVISED)

    @property
    def test(self) -> np.ndarray:
        return self.indices(Role.TEST)


# ---------------------------------------------------------------------------
# Setting checks, each raising the caller's typed error
# ---------------------------------------------------------------------------

def check_positive(name: str, value, error: type[Exception]) -> None:
    if not (math.isfinite(value) and value > 0):
        raise error(f"{name} must be positive and finite, got {value}")


def check_non_negative(name: str, value, error: type[Exception]) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise error(f"{name} must be finite and non-negative, got {value}")


def check_at_least(name: str, value, low, error: type[Exception]) -> None:
    """A whole number (an int, not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be a whole number, got {value!r}")
    if not value >= low:
        raise error(f"{name} must be at least {low}, got {value}")


def check_fractions(fracs, error: type[Exception]) -> None:
    """The (s, u, t) role fractions: each positive and finite, summing to 1."""
    for name, frac in zip(("s_frac", "u_frac", "t_frac"), fracs):
        check_positive(name, frac, error)
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise error(f"fractions must sum to 1, got {sum(fracs)}")


# ---------------------------------------------------------------------------
# Array checks: every feature matrix and label vector a caller passes in
# ---------------------------------------------------------------------------

def check_matrix(values, error: type[Exception], cols: int | None = None) -> np.ndarray:
    """``values`` as a 2-d float64 matrix of finite entries (``cols`` columns
    when given); otherwise ``error`` naming the first non-finite entry."""
    try:
        X = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"features must be numbers: {exc}") from exc
    if X.ndim != 2:
        raise error(f"features must be a 2-d matrix, got shape {X.shape}")
    if cols is not None and X.shape[1] != cols:
        raise error(f"feature dimension {X.shape[1]} != expected dimension {cols}")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise error(f"non-finite value {X[row, col]} at row {row}, column {col}")
    return X


def whole_numbers(values, error: type[Exception]) -> np.ndarray:
    """``values`` as int64, or ``error`` naming the first entry that is not a whole number."""
    try:
        y = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise error(f"labels must be whole numbers: {exc}") from exc
    if y.dtype.kind in "iub":
        return y.astype(np.int64, copy=False)
    if y.dtype.kind != "f":
        raise error(f"labels must be whole numbers, got {y.dtype} values")
    with np.errstate(invalid="ignore"):
        whole = y.astype(np.int64)
    bad = (whole != y).ravel()
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"labels must be whole numbers: index {i} holds {y.flat[i]}")
    return whole


def check_labels(values, n: int | None, error: type[Exception], bound: int | None = None,
                 unlabeled: bool = False) -> np.ndarray:
    """``values`` as an int64 vector of ``n`` whole numbers (any number when
    ``n`` is None) in [0, bound) (no upper bound when ``bound`` is None), or
    UNLABELED where ``unlabeled`` allows it; otherwise ``error`` naming the
    first bad entry by its index."""
    y = whole_numbers(values, error)
    n = y.size if n is None else n
    if y.shape != (n,):
        raise error(f"{n} feature rows but labels of shape {y.shape}")
    low = UNLABELED if unlabeled else 0
    bad = (y < low) if bound is None else (y < low) | (y >= bound)
    if bad.any():
        i = int(np.argmax(bad))
        what = " (unlabeled)" if y[i] == UNLABELED else ""
        allowed = f"[0, {'inf' if bound is None else bound})" + (
            f" or UNLABELED ({UNLABELED})" if unlabeled else "")
        raise error(f"index {i} holds {y[i]}{what}, outside {allowed}")
    return y


# ---------------------------------------------------------------------------
# Computed values: overflow is checked where it can happen
# ---------------------------------------------------------------------------

def check_finite(values, error: type[Exception], what: str):
    """``values`` (an array or a number) if every entry is finite, else
    ``error`` saying that ``what`` is not finite. Callers compute under
    ``np.errstate`` and scan the result here: numpy reads only the calling
    thread's floating-point flags, so a threaded BLAS overflow may not warn."""
    if not np.isfinite(values).all():
        raise error(f"{what} is not finite")
    return values


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


def distances(A: np.ndarray, B: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Euclidean distances of finite rows, or ``error`` if one overflows float64.
    Each entry is computed on its own: a block of rows gets the bytes of a larger matrix's."""
    return check_finite(cdist_euclidean(A, B), error,
                        "float64 overflow: a distance between features")


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def read_text(path, error: type[Exception]) -> str:
    """A text file's contents; an unreadable or non-UTF-8 file raises ``error``."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


# Every CSV table (datasets, splits, embeddings, forests, results, reports)
# goes through write_table and read_table: header line(s), then one row per
# line, cells joined by commas. Rows are split from the right, so the first
# column is the only one that may hold commas.

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


def format_row(row) -> str:
    """One table row: None as empty, a float as ``repr(float(v))``, an
    integer as ``str(int(v))``, a string as is, joined by commas."""
    return ",".join(map(_cell, row))


def write_table(path, header: list[str], rows) -> None:
    """Write the header lines, then one ``format_row`` line per row."""
    lines = header + [format_row(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path, error: type[Exception], header, header_lines: int = 1,
               nodes: bool = False) -> list:
    """The rows of a table written by ``write_table``, each through a parser.

    ``header`` gets the first ``header_lines`` lines and returns the field
    count and the row parser, raising ValueError when they are not the
    table's header. Blank lines are skipped; each row must split from the
    right into exactly that many fields. With ``nodes`` the first parsed
    value of each row is a node id: the rows must be nodes 0..n-1, each
    once, and come back in node order. Every failure raises ``error``, a
    row's prefixed with ``path: line N:``.
    """
    lines = read_text(path, error).splitlines()
    try:
        width, parse = header(lines[:header_lines])
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    body = [(lineno, line) for lineno, line in enumerate(lines[header_lines:], header_lines + 1)
            if line.strip()]
    rows = [None] * len(body)
    for at, (lineno, line) in enumerate(body):
        try:
            cells = line.rsplit(",", width - 1)
            if len(cells) != width:
                raise ValueError(f"expected {width} fields, got {len(cells)}")
            row = parse(cells)
            slot = row[0] if nodes else at  # a file-order slot is always free
            if not 0 <= slot < len(rows) or rows[slot] is not None:
                raise ValueError(f"node {slot} is not one of 0..{len(rows) - 1} listed once each")
            rows[slot] = row
        except (ValueError, OverflowError) as exc:
            raise error(f"{path}: line {lineno}: {exc}") from exc
    return rows


def int64(cell: str) -> int:
    """An integer cell that fits in int64; larger values raise OverflowError."""
    return int(np.int64(int(cell)))


def _header_params(line: str) -> dict[str, str]:
    """The key=value tokens of a '# key=value ...' header line."""
    params = {}
    for token in line.lstrip("#").split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"bad header token {token!r}")
        params[key] = value
    return params


def save_features(dataset: Dataset, path, format: str) -> None:
    """Write a dataset in the delimited-text or raw-binary format."""
    path = Path(path)
    if format == "text":
        has = 1 if dataset.has_labels else 0
        k = dataset.class_count if dataset.has_labels else 0
        rows = dataset.features.tolist()
        if has:
            rows = [row + [label] for row, label in zip(rows, dataset.labels.tolist())]
        write_table(path, [f"# d={dataset.dim} labels={has} k={k}"], rows)
    elif format == "binary":
        n, d = dataset.features.shape
        has = 1 if dataset.has_labels else 0
        blob = bytearray()
        blob += _BINARY_MAGIC
        blob += struct.pack(_BINARY_HEADERS[_BINARY_MAGIC], n, d, has,
                            dataset.class_count if has else 0)
        blob += np.ascontiguousarray(dataset.features, dtype="<f8").tobytes()
        if has:
            blob += np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes()
        path.write_bytes(bytes(blob))
    else:
        raise DatasetError(f"unknown format {format!r}")


def load_features(path) -> Dataset:
    """Load a dataset file named after its stem.

    A file that starts with a binary magic is read as binary, any other as
    text. Malformed rows report their line number; non-finite cells report
    row and column.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with open(path, "rb") as fh:
        binary = fh.read(4) in _BINARY_HEADERS
    return (_load_binary if binary else _load_text)(path, path.stem)


def _load_text(path: Path, name: str) -> Dataset:
    head = {}

    def header(lines):
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing '# d=... labels=... k=...' header")
        try:
            params = _header_params(lines[0])
            head.update(d=int(params["d"]), labels=int(params["labels"]) != 0,
                        k=int(params["k"]))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad header: {exc}") from exc
        d, has = head["d"], head["labels"]
        return d + has, lambda cells: ([float(c) for c in cells[:d]],
                                       int64(cells[d]) if has else None)

    rows = read_table(path, DatasetError, header)
    feats = np.asarray([feats for feats, _ in rows], dtype=np.float64)
    if head["labels"]:
        labels = np.asarray([label for _, label in rows], dtype=np.int64)
        return Dataset(feats, labels, head["k"], name)
    return Dataset(feats, None, 0, name)


def _load_binary(path: Path, name: str) -> Dataset:
    blob = path.read_bytes()
    header = _BINARY_HEADERS.get(blob[:4])
    if header is None:
        raise DatasetError(f"{path}: bad magic")
    off = 4 + struct.calcsize(header)
    if len(blob) < off:
        raise DatasetError(f"{path}: truncated header ({len(blob)} < {off} bytes)")
    n, d, has, *stored_k = struct.unpack_from(header, blob, 4)
    need = off + n * d * 8 + (n * 4 if has else 0)
    if len(blob) < need:
        raise DatasetError(f"{path}: truncated file ({len(blob)} < {need} bytes)")
    feats = np.frombuffer(blob, dtype="<f8", count=n * d, offset=off).reshape(n, d)
    if has:
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=off + n * d * 8)
        labels = labels.astype(np.int64)
        # EPL1 stores no class count: infer it from the largest label.
        k = stored_k[0] if stored_k else (int(labels.max()) + 1 if n else 0)
        return Dataset(feats.copy(), labels, k, name)
    return Dataset(feats.copy(), None, 0, name)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def generate_blobs(k: int, per_class: int, d: int, spread: float, center_dist: float,
                   seed: int, name: str | None = None) -> Dataset:
    """Sample k Gaussian clusters of std spread with mutually distant centers.

    Centers are rejection-sampled in a box of side
    center_dist * (2 k^(1/d) + 1), sized so placement succeeds with ease
    at desk scale; a bounded retry budget turns pathological parameter
    choices into an explicit error instead of a hang. Samples are laid
    out in class blocks (class 0 first). Deterministic per seed.
    """
    check_at_least("classes", k, 2, DatasetError)
    check_at_least("per_class", per_class, 2, DatasetError)
    check_at_least("dims", d, 1, DatasetError)
    check_positive("spread", spread, DatasetError)
    check_non_negative("center_dist", center_dist, DatasetError)
    check_at_least("seed", seed, 0, DatasetError)
    side = center_dist * (2.0 * k ** (1.0 / d) + 1.0)
    # Center distances are at most the box diagonal, whose square must stay finite.
    if not math.isfinite(d * side * side):
        raise DatasetError(f"center_dist {center_dist} makes the center box of {k} classes "
                           f"in {d} dims too wide: squared distances overflow float64")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, d))
    placed = 0
    for _ in range(1000 * k):
        cand = rng.uniform(0.0, side, d)
        if placed == 0 or np.linalg.norm(centers[:placed] - cand, axis=1).min() >= center_dist:
            centers[placed] = cand
            placed += 1
            if placed == k:
                break
    else:
        raise DatasetError(
            f"could not place {k} centers at least {center_dist} apart after bounded retries"
        )
    blocks = [centers[c] + spread * rng.standard_normal((per_class, d)) for c in range(k)]
    feats = np.vstack(blocks)
    labels = np.repeat(np.arange(k, dtype=np.int64), per_class)
    if name is None:
        name = f"blobs_k{k}_d{d}_s{seed}"
    return Dataset(feats, labels, k, name)


# ---------------------------------------------------------------------------
# Stratified splitting
# ---------------------------------------------------------------------------

def _largest_remainder(total: int, counts: np.ndarray, n: int) -> np.ndarray:
    """Apportion ``total`` across classes proportionally to ``counts``.

    Floor the exact quotas, then hand out the leftover units in order of
    largest fractional remainder, ties to the lower class id.
    """
    quota = total * counts / n
    alloc = np.floor(quota).astype(np.int64)
    leftover = total - int(alloc.sum())
    if leftover > 0:
        remainder = quota - alloc
        order = np.lexsort((np.arange(len(counts)), -remainder))
        alloc[order[:leftover]] += 1
    return alloc


def stratified_split(dataset: Dataset, s_frac: float, u_frac: float, t_frac: float,
                     seed: int) -> SplitAssignment:
    """Assign supervised / unsupervised / test roles, stratified by class.

    Global counts first: |T| = round-half-up(t_frac * n) and
    |S| = ceil(s_frac * n), each apportioned per class by largest
    remainder; S additionally gets a minimum of one sample per class
    (taken from the largest allocations when needed). U is the remainder.
    Raises SplitError if any class would end up empty in any part.
    """
    if not dataset.has_labels:
        raise SplitError("stratified split requires labels")
    fracs = (s_frac, u_frac, t_frac)
    check_fractions(fracs, SplitError)
    check_at_least("seed", seed, 0, SplitError)
    n = dataset.sample_count
    k = dataset.class_count
    counts = np.bincount(dataset.labels, minlength=k)
    if (counts < 3).any():
        small = int(np.argmin(counts))
        raise SplitError(f"class {small} has {counts[small]} samples, need at least 3")

    n_test = int(math.floor(t_frac * n + 0.5))
    n_sup = int(math.ceil(s_frac * n))
    if n_sup < k:
        raise SplitError(f"supervised budget {n_sup} cannot cover {k} classes")

    t_alloc = _largest_remainder(n_test, counts, n)
    s_alloc = _largest_remainder(n_sup, counts, n)
    # Guarantee one supervised sample per class: move units from the
    # currently largest allocation (ties to the lower class id).
    while (s_alloc == 0).any():
        needy = int(np.argmax(s_alloc == 0))
        donor = int(np.argmax(s_alloc))
        s_alloc[donor] -= 1
        s_alloc[needy] += 1

    u_alloc = counts - s_alloc - t_alloc
    for c in range(k):
        if s_alloc[c] < 1 or t_alloc[c] < 1 or u_alloc[c] < 1:
            raise SplitError(
                f"class {c} ({counts[c]} samples) too small to receive one sample in each part"
            )

    rng = np.random.default_rng(seed)
    roles = np.empty(n, dtype=np.uint8)
    for c in range(k):
        idx = np.flatnonzero(dataset.labels == c)
        perm = rng.permutation(idx)
        s_c, t_c = int(s_alloc[c]), int(t_alloc[c])
        roles[perm[:s_c]] = int(Role.SUPERVISED)
        roles[perm[s_c:s_c + t_c]] = int(Role.TEST)
        roles[perm[s_c + t_c:]] = int(Role.UNSUPERVISED)
    return SplitAssignment(roles, seed, fracs)


_ROLE_LETTERS = {Role.SUPERVISED: "S", Role.UNSUPERVISED: "U", Role.TEST: "T"}
ROLE_OF_LETTER = {v: k for k, v in _ROLE_LETTERS.items()}


def save_split(split: SplitAssignment, path) -> None:
    """Write a split as 'index,role' CSV with the parameters in the header."""
    s, u, t = map(_cell, split.fractions)
    write_table(path, [f"# seed={split.seed} s_frac={s} u_frac={u} t_frac={t}", "index,role"],
                ((i, _ROLE_LETTERS[Role(int(role))]) for i, role in enumerate(split.roles)))


def _role(letter: str) -> int:
    if letter not in ROLE_OF_LETTER:
        raise ValueError(f"unknown role {letter!r}")
    return int(ROLE_OF_LETTER[letter])


def load_split(path) -> SplitAssignment:
    path = Path(path)
    if not path.exists():
        raise SplitError(f"no such split file: {path}")
    head = {}

    def header(lines):
        if len(lines) < 2 or not lines[0].startswith("#") or lines[1] != "index,role":
            raise ValueError("missing split header")
        try:
            params = _header_params(lines[0])
            head.update(seed=int(params.get("seed", 0)),
                        fracs=tuple(float(params.get(k, 0.0))
                                    for k in ("s_frac", "u_frac", "t_frac")))
        except ValueError as exc:
            raise ValueError(f"bad split header: {exc}") from exc
        return 2, lambda cells: (int(cells[0]), _role(cells[1]))

    rows = read_table(path, SplitError, header, header_lines=2, nodes=True)
    roles = np.array([role for _, role in rows], dtype=np.uint8)
    return SplitAssignment(roles, head["seed"], head["fracs"])
