"""Experiment orchestration: feature quality, propagation quality, and
pseudo-label training, with manifests and deterministic artifacts.

The arm table ``ARMS`` holds one ``Arm(id, family, encoder)`` record per
experiment id. Family c1 probes an encoder's latent space with a linear
classifier and the supervised forest classifier; c2 projects the latent
space to 2D, propagates the few true labels to the unsupervised points,
and scores the pseudo-labels; c3 trains the softmax probe on raw inputs,
on the supervised set alone (C3a, no encoder) or on S plus one encoder's
pseudo-labels. ``run_family`` runs one family, replica by replica and
arm by arm, each arm isolated so that its failure is recorded in the
manifest and the run moves on. Every stage is a pure function of
(config, base seed); replica r uses seed base + r throughout
(``RunState.seed``).

The arms of a family run ``arm_workers()`` at a time (``epl.workers``):
the first of a wave here, the other in a forked child that sends back
what it added to the run's record (``RunState.journal``). The record is
that of one arm at a time.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import contrastive, host
from .config import ExperimentConfig, format_config
from .contrastive import EncoderParams
from .dataset import (UNLABELED, Dataset, EplError, Role, SplitAssignment, check_finite,
                      generate_blobs, int64, load_features, make_dir, read_file, read_table,
                      stratified_split, write_file, write_table)
from .host import arm_workers
from .metrics import accuracy, cohen_kappa, confusion, knn_consistency
from .opf import opfsemi_propagate, opfsup_classify_batch, opfsup_train
from .probe import predict, train_linear, train_softmax
from .projection import Embedding2D, ProjectionConfig, tsne_project
from .scatter import emit_scatter


class PipelineError(EplError):
    """Raised for invalid experiment inputs."""


RESULTS_HEADER = "dataset,experiment,classifier,seed,accuracy,kappa,consistency"

@dataclass(frozen=True)
class Arm:
    """An experiment id, its family and the encoder whose latent space it
    reads: None for the baseline, which trains on S alone."""

    id: str
    family: str
    encoder: str | None

    @property
    def label(self) -> str:
        """The arm's name in stage names such as ``r0.baseline.c3``."""
        return self.encoder or "baseline"


# A family's ids are lettered a, b, c(, d) in table order.
ARMS = (Arm("C1a", "c1", "simclr"), Arm("C1b", "c1", "supcon"),
        Arm("C2a", "c2", "simclr"), Arm("C2b", "c2", "supcon"), Arm("C2c", "c2", "combined"),
        Arm("C3a", "c3", None), Arm("C3b", "c3", "simclr"), Arm("C3c", "c3", "supcon"),
        Arm("C3d", "c3", "combined"))
ARM_OF = {arm.id: arm for arm in ARMS}
FINETUNES = {"combined": "simclr"}  # encoder -> the encoder it is fine-tuned from


@dataclass
class ResultRow:
    dataset: str
    experiment: str
    classifier: str
    seed: int
    accuracy: float
    kappa: float
    consistency: float | None = None


def write_results_csv(rows, path) -> None:
    write_table(path, [RESULTS_HEADER], (astuple(row) for row in rows), PipelineError)


def _metric(cell: str) -> float:
    return check_finite(float(cell), ValueError, f"metric {cell!r}")


def read_results_csv(path) -> list[ResultRow]:
    def header(lines):
        if lines != [RESULTS_HEADER]:
            raise ValueError("missing results header")
        return 7, lambda c: ResultRow(c[0], c[1], c[2], int(c[3]), _metric(c[4]), _metric(c[5]),
                                      _metric(c[6]) if c[6] else None)

    return read_table(path, PipelineError, header)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

class RunManifest:
    """Resolved config, this host's lines (``epl.host.header``: the thread
    counts and arms run at once that the timings depend on, since
    overlapping arms' times add up to more than the wall clock, and the
    libraries and kernels the bytes may depend on), and a run state's
    record: per-stage wall clock, failures, and its files' digests."""

    def __init__(self, command: str, config_echo: str):
        self.command = command
        self.config_echo = config_echo

    def write(self, out_dir, state: RunState, interrupted: bool = False) -> Path:
        out_dir = Path(out_dir)
        lines = [
            "# run manifest",
            f"version = {__version__}",
            f"command = {self.command}",
            f"status = {'interrupted' if interrupted else 'partial' if state.errors else 'ok'}",
            f"wall_clock_unix = {time.time()!r}",
            *host.header(),
            "",
            "[config]",
            self.config_echo.rstrip("\n"),
            "",
            "[timing]",
        ]
        lines += [f"{stage} = {seconds:.3f}" for stage, seconds in state.timings]
        lines += ["", "[errors]"]
        lines += [f"{stage} = {message}" for stage, message in state.errors]
        lines += ["", "[digests]"]
        lines += [f"{name} = sha256:"
                  f"{hashlib.sha256(read_file(out_dir / name, PipelineError)).hexdigest()}"
                  for name in sorted(state.files)]
        manifest_path = out_dir / "manifest.txt"
        write_file(manifest_path, "\n".join(lines) + "\n", PipelineError)
        return manifest_path


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------

def dataset_from_config(cfg: ExperimentConfig) -> Dataset:
    if cfg.source == "blobs":
        name = cfg.dataset_name or None
        return generate_blobs(cfg.classes, cfg.per_class, cfg.dims, cfg.spread,
                              cfg.center_dist, cfg.dataset_seed, name)
    ds = load_features(cfg.source)
    if not ds.has_labels:
        raise PipelineError("experiment datasets need ground-truth labels")
    return ds


@dataclass
class _Propagation:
    embedding: Embedding2D
    indices: np.ndarray      # dataset indices of the embedded rows (S and U, ascending)
    labels: np.ndarray       # row-aligned forest labels: true on S rows, propagated on U rows
    seed_values: np.ndarray  # row-aligned labels: true on S rows, UNLABELED on U rows
    consistency: float
    accuracy: float
    kappa: float


def propagation_seeds(data: Dataset, split: SplitAssignment):
    """The embedded rows and their seed vector.

    Returns (idx, seed_values): the dataset indices of S and U in
    ascending order, and the row-aligned seed labels (true on S rows,
    UNLABELED on U rows).
    """
    idx = split.indices(Role.SUPERVISED, Role.UNSUPERVISED)
    is_sup = split.roles[idx] == int(Role.SUPERVISED)
    return idx, np.where(is_sup, data.labels[idx], UNLABELED)


def score(pred, truth, class_count: int) -> tuple[float, float]:
    """Accuracy and Cohen's kappa of a prediction against the truth."""
    cm = confusion(pred, truth, class_count=class_count)
    return accuracy(cm), cohen_kappa(cm)


def propagate_labels(data: Dataset, idx: np.ndarray, seed_values: np.ndarray, coordinates):
    """Propagate the seed labels over the embedded rows and score the unseeded ones.

    ``idx`` and ``seed_values`` are ``propagation_seeds``'s, and
    ``coordinates`` has one row per index. Returns the forest and the
    (accuracy, kappa) of its labels on the U rows. Each seed roots its own
    tree, so the forest's labels on the S rows are the true ones.
    """
    forest = opfsemi_propagate(coordinates, seed_values)
    free = seed_values == UNLABELED
    return forest, score(forest.label[free], data.labels[idx[free]], data.class_count)


def propagate_embedding(data: Dataset, split: SplitAssignment, params: EncoderParams,
                        proj_cfg: ProjectionConfig, knn_k: int) -> _Propagation:
    """Project latent features of S and U to 2D and propagate the S labels."""
    sup_classes = np.unique(data.labels[split.supervised])
    if sup_classes.size < data.class_count:
        raise PipelineError(
            f"supervised set covers {sup_classes.size} of {data.class_count} classes;"
            " every class needs a seed"
        )
    idx, seed_values = propagation_seeds(data, split)
    latent = contrastive.extract_features(params, data, idx)
    embedding = tsne_project(latent, proj_cfg)
    forest, (acc, kappa) = propagate_labels(data, idx, seed_values, embedding.coordinates)
    consistency = knn_consistency(embedding.coordinates, data.labels[idx], knn_k)
    return _Propagation(embedding, idx, forest.label, seed_values, consistency, acc, kappa)


def write_embedding_csv(path, indices, coordinates, labels=None) -> None:
    coordinates = np.asarray(coordinates)
    header, columns = "node,x,y", [indices, coordinates[:, 0], coordinates[:, 1]]
    if labels is not None:
        header, columns = header + ",label", columns + [labels]
    write_table(path, [header], zip(*columns), PipelineError)


def read_embedding_csv(path):
    """Nodes, coordinates and labels (None without a label column) of an embedding."""
    head = {}

    def header(lines):
        if lines not in (["node,x,y"], ["node,x,y,label"]):
            raise ValueError("missing embedding header")
        head["labeled"] = lines[0].endswith(",label")
        return 3 + head["labeled"], lambda c: (int64(c[0]), float(c[1]), float(c[2]),
                                               *map(int64, c[3:]))

    rows = read_table(path, PipelineError, header)
    nodes = np.array([row[0] for row in rows], dtype=np.int64)
    coords = np.array([row[1:3] for row in rows], dtype=np.float64)
    labels = np.array([row[3] for row in rows], dtype=np.int64) if head["labeled"] else None
    return nodes, coords, labels


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

@dataclass
class RunState:
    """Shared per-run cache so the experiment families reuse trained arms.

    Without an output directory nothing is written, and without a manifest
    an arm's failure propagates.
    """

    cfg: ExperimentConfig
    data: Dataset
    out_dir: Path | None
    manifest: RunManifest | None
    init: EncoderParams | None = None  # warm-start weights of the simclr and supcon arms
    encoders: dict = field(default_factory=dict)
    propagations: dict = field(default_factory=dict)
    splits: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    files: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def journal(self) -> dict:
        """The run's record by name: the lists an arm appends to (result rows,
        the names of the files written under ``out_dir``, ``[timing]`` and
        ``[errors]`` lines), then the caches it adds keys to."""
        return {name: getattr(self, name) for name in
                ("rows", "files", "timings", "errors", "encoders", "propagations")}

    def seed(self, r: int) -> int:
        return self.cfg.base_seed + r

    def split(self, r: int) -> SplitAssignment:
        if r not in self.splits:
            self.splits[r] = stratified_split(
                self.data, self.cfg.s_frac, self.cfg.u_frac, self.cfg.t_frac, self.seed(r))
        return self.splits[r]

    def timed(self, stage: str, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.timings.append((stage, time.perf_counter() - start))

    @contextmanager
    def artifact(self, name: str, *sidecars: str):
        """The path of ``name`` under ``out_dir`` for the body to write; ``name``
        and the ``sidecars`` written beside it go into ``files`` once it has."""
        yield self.out_dir / name
        self.files += [name, *sidecars]

    @contextmanager
    def arm(self, stage: str):
        """Arm isolation: a failure inside is recorded under ``stage`` and the
        run moves on to the next arm; without a manifest it propagates."""
        try:
            yield
        except Exception as exc:
            if self.manifest is None:
                raise
            self.errors.append((stage, f"{type(exc).__name__}: {exc}"))

    def encoder(self, r: int, mode: str) -> EncoderParams:
        """Replica r's encoder of ``mode``, trained and saved on first use; one
        in ``FINETUNES`` fine-tunes the encoder it names."""
        key = (r, mode)
        if key not in self.encoders:
            seed = self.seed(r)
            config = self.cfg.train_config(seed)
            if mode in FINETUNES:
                base = self.encoder(r, FINETUNES[mode])
                params = self.timed(f"r{r}.{mode}.finetune", lambda: contrastive.finetune_supcon(
                    base, self.data, self.split(r), config))
            else:
                params = self.timed(f"r{r}.{mode}.train", lambda: contrastive.train(
                    mode, self.data, self.split(r), config, init=self.init))
            self.encoders[key] = params
            if self.out_dir is not None:
                name = f"ckpt_{mode}_{seed}.bin"
                with self.artifact(name, f"{name}.cfg") as path:
                    params.save(path, {"mode": mode, **asdict(config), "init": self.cfg.init_mode})
        return self.encoders[key]

    def propagation(self, r: int, mode: str) -> _Propagation:
        key = (r, mode)
        if key not in self.propagations:
            params = self.encoder(r, mode)
            proj_cfg = self.cfg.projection_config(self.seed(r))
            prop = self.timed(f"r{r}.{mode}.project", lambda: propagate_embedding(
                self.data, self.split(r), params, proj_cfg, self.cfg.knn_k))
            self.propagations[key] = prop
        return self.propagations[key]

    def scored_row(self, r: int, experiment: str, classifier: str,
                   pred: np.ndarray, truth: np.ndarray) -> ResultRow:
        return ResultRow(self.data.name, experiment, classifier, self.seed(r),
                         *score(pred, truth, self.data.class_count))


def _c1_rows(state: RunState, r: int, arm: Arm):
    """Latent-space separability: linear and forest probes on S, scored on T."""
    cfg, data, split = state.cfg, state.data, state.split(r)
    params = state.encoder(r, arm.encoder)
    feats_s = contrastive.extract_features(params, data, split.supervised)
    feats_t = contrastive.extract_features(params, data, split.test)
    labels_s = data.labels[split.supervised]
    labels_t = data.labels[split.test]

    linear = train_linear(feats_s, labels_s, cfg.linear_lambda, cfg.linear_epochs,
                          data.class_count)
    yield state.scored_row(r, arm.id, "linear", predict(linear, feats_t), labels_t)

    forest_model = opfsup_train(feats_s, labels_s)
    yield state.scored_row(r, arm.id, "opfsup",
                           opfsup_classify_batch(forest_model, feats_t), labels_t)


def _c2_rows(state: RunState, r: int, arm: Arm):
    """Propagation quality of the 2D embedding, plus its consistency score."""
    prop = state.propagation(r, arm.encoder)
    seed = state.seed(r)
    yield ResultRow(state.data.name, arm.id, "propagation", seed,
                    prop.accuracy, prop.kappa, prop.consistency)
    if state.out_dir is not None:
        with state.artifact(f"embedding_{arm.encoder}_{seed}.csv") as path:
            write_embedding_csv(path, prop.indices, prop.embedding.coordinates, prop.labels)
        with state.artifact(f"scatter_{arm.encoder}_{seed}.svg") as path:
            emit_scatter(prop.embedding.coordinates, prop.seed_values, path)


def _c3_rows(state: RunState, r: int, arm: Arm):
    """Softmax probe on raw inputs: S only for the baseline, else S plus pseudo-labeled U."""
    data = state.data
    if arm.encoder is None:
        train_idx = state.split(r).supervised
        labels = data.labels[train_idx]
    else:
        prop = state.propagation(r, arm.encoder)
        train_idx, labels = prop.indices, prop.labels
    softmax_cfg = state.cfg.softmax_config(state.seed(r))
    model = state.timed(f"r{r}.{arm.label}.softmax", lambda: train_softmax(
        data.features[train_idx], labels, softmax_cfg, data.class_count))
    test_idx = state.split(r).test
    yield state.scored_row(r, arm.id, "softmax",
                           predict(model, data.features[test_idx]), data.labels[test_idx])


_FAMILY_ROWS = {"c1": _c1_rows, "c2": _c2_rows, "c3": _c3_rows}


def run_family(state: RunState, family: str) -> list[ResultRow]:
    """Every arm of one family, replica by replica, each in its own arm isolation,
    in waves of ``arm_workers()`` arms run at once (``epl.workers.run_wave``).

    An arm's rows go into the state's record as it yields them, so the rows
    it finished before a failure are kept; this returns the family's slice
    of them. An arm's root is the replica's encoder it reads, or the one
    that encoder is fine-tuned from. So that no encoder trains twice, a
    wave ends before an arm whose root is untrained and is an earlier arm's
    root in the wave.
    """
    from .workers import run_wave  # process machinery
    arms = [(r, arm) for r in range(state.cfg.replicas) for encoder in (None, *state.cfg.modes)
            for arm in ARMS if (arm.family, arm.encoder) == (family, encoder)]
    start = len(state.rows)
    while arms:
        wave, roots = [], set()
        for r, arm in arms[:arm_workers()]:
            root = (r, FINETUNES.get(arm.encoder, arm.encoder))
            if root not in state.encoders and root in roots:
                break
            wave.append((f"r{r}.{arm.label}.{family}",
                         partial(_FAMILY_ROWS[family], state, r, arm)))
            roots.add(root)
        run_wave(state, wave)
        arms = arms[len(wave):]
    return state.rows[start:]


def run_experiment(kind: str, cfg: ExperimentConfig) -> tuple[list[ResultRow], int]:
    """Run one experiment family (or all) and write results + manifest.

    Returns (rows, exit code): 0 on full success, 2 when any arm failed. A
    run that ends early, by an interrupt too, writes what it recorded.
    """
    if kind != "all" and kind not in _FAMILY_ROWS:
        raise PipelineError(f"unknown experiment kind {kind!r}")
    cfg.validate()
    init = (EncoderParams.load(cfg.warm_start_checkpoint)
            if cfg.init_mode == "warm_start" else None)
    manifest = RunManifest(f"experiment {kind}", format_config(cfg.to_sections()))
    state = RunState(cfg, dataset_from_config(cfg), Path(cfg.out_dir), manifest, init)
    state.split(0)  # fails on class counts and fractions alone: in every replica or in none
    out_dir = make_dir(state.out_dir, PipelineError)

    interrupted = False
    try:
        for family in (_FAMILY_ROWS if kind == "all" else (kind,)):
            run_family(state, family)
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        with state.artifact("results.csv") as path:
            write_results_csv(state.rows, path)
        manifest.write(out_dir, state, interrupted=interrupted)
    return state.rows, (2 if state.errors else 0)


# ---------------------------------------------------------------------------
# Aggregation and the separation / propagation / performance correlation
# ---------------------------------------------------------------------------

def aggregate_rows(rows) -> list[dict]:
    """Mean and sample standard deviation per (dataset, experiment, classifier)."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.experiment, row.classifier), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        accs = np.array([m.accuracy for m in members])
        kappas = np.array([m.kappa for m in members])
        out.append({
            "dataset": key[0], "experiment": key[1], "classifier": key[2],
            "replicas": len(members),
            "accuracy_mean": float(accs.mean()),
            "accuracy_std": float(accs.std(ddof=1)) if len(members) > 1 else 0.0,
            "kappa_mean": float(kappas.mean()),
            "kappa_std": float(kappas.std(ddof=1)) if len(members) > 1 else 0.0,
        })
    return out


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of `v`; tied values share the mean of their ranks."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    # Tie groups hold sorted positions start..end-1, so ranks start+1..end.
    edges = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    start, end = edges[:-1], edges[1:]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((start + end + 1) / 2, end - start)
    return ranks


def spearman(a, b) -> float | None:
    """Spearman rank correlation with average ranks; None when undefined."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise PipelineError("need two equal-length series of at least 2 values")
    check_finite(a, PipelineError, "a value of the first series")
    check_finite(b, PipelineError, "a value of the second series")
    if np.unique(a).size < 2 or np.unique(b).size < 2:
        return None
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra ** 2).sum() * (rb ** 2).sum())
    return float((ra * rb).sum() / denom)


# Fewest complete (dataset, mode) cells a rank correlation is reported for.
MIN_CELLS = 5


def correlation_report(rows) -> dict:
    """Rank-correlate embedding consistency with propagation and classifier kappa.

    Cells are (dataset, mode) pairs averaged over replicas. The embedding
    consistency comes from the propagation rows; the classifier kappa from
    the matching pseudo-label-trained softmax rows.
    """
    cells: dict[tuple, dict] = {}
    for row in rows:
        arm = ARM_OF.get(row.experiment)
        if arm is None or arm.family not in ("c2", "c3") or arm.encoder is None:
            continue
        cell = cells.setdefault((row.dataset, arm.encoder),
                                {"consistency": [], "prop": [], "clf": []})
        if arm.family == "c2":
            cell["prop"].append(row.kappa)
            if row.consistency is not None:
                cell["consistency"].append(row.consistency)
        else:
            cell["clf"].append(row.kappa)
    complete = {key: c for key, c in cells.items()
                if c["consistency"] and c["prop"] and c["clf"]}
    if len(complete) < MIN_CELLS:
        raise PipelineError(
            f"need at least {MIN_CELLS} complete (dataset, mode) cells, have {len(complete)}"
        )
    keys = sorted(complete)
    vs = np.array([np.mean(complete[k]["consistency"]) for k in keys])
    prop = np.array([np.mean(complete[k]["prop"]) for k in keys])
    clf = np.array([np.mean(complete[k]["clf"]) for k in keys])
    return {
        "cells": len(keys),
        "rho_propagation": spearman(vs, prop),
        "rho_classifier": spearman(vs, clf),
    }


def write_report(rows, out_dir) -> None:
    out_dir = make_dir(out_dir, PipelineError)
    write_table(out_dir / "summary.csv",
                ["dataset,experiment,classifier,replicas,"
                 "accuracy_mean,accuracy_std,kappa_mean,kappa_std"],
                (entry.values() for entry in aggregate_rows(rows)), PipelineError)
    try:
        corr = correlation_report(rows)
        series = [(name, "undefined" if rho is None else rho, corr["cells"])
                  for name, rho in (("consistency_vs_propagation_kappa", corr["rho_propagation"]),
                                    ("consistency_vs_classifier_kappa", corr["rho_classifier"]))]
    except PipelineError as exc:
        # the reason goes in the first column, the only one that may hold commas
        series = [(f"unavailable: {exc}", None, 0)]
    write_table(out_dir / "correlation.csv", ["series,rho,cells"], series, PipelineError)
