"""Experiment orchestration: feature quality, propagation quality, and
pseudo-label training, with manifests and deterministic artifacts.

The arm table ``ARMS`` names the experiment id of each (family, mode)
arm. Family c1 probes an encoder's latent space with a linear classifier
and the supervised forest classifier; c2 projects the latent space to
2D, propagates the few true labels to the unsupervised points, and
scores the pseudo-labels; c3 trains the softmax probe on raw inputs,
once on the supervised set alone (the baseline arm) and once per
pseudo-label source. ``run_family`` runs one family, replica by replica
and arm by arm, each arm isolated so that its failure is recorded in the
manifest and the run moves on. Every stage is a pure function of
(config, base seed); replica r uses seed base + r throughout
(``RunState.seed``).

The arms of a family run ``arm_workers()`` at a time (``epl.workers``):
the first of a wave here, the other in a forked child that sends back its
rows, manifest lines, encoders and propagations. The rows, artifacts and
``[errors]`` lines are those of one arm at a time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import contrastive
from .config import ExperimentConfig, format_config
from .contrastive import EncoderParams
from .dataset import (UNLABELED, Dataset, EplError, Role, SplitAssignment, check_finite,
                      generate_blobs, int64, load_features, read_table, stratified_split,
                      write_table)
from .metrics import accuracy, cohen_kappa, confusion, knn_consistency
from .opf import opfsemi_propagate, opfsup_classify_batch, opfsup_train
from .probe import predict, train_linear, train_softmax
from .projection import Embedding2D, ProjectionConfig, thread_count, tsne_project
from .scatter import emit_scatter


class PipelineError(EplError):
    """Raised for invalid experiment inputs."""


RESULTS_HEADER = "dataset,experiment,classifier,seed,accuracy,kappa,consistency"

# family -> mode -> experiment id, following the a/b/c(/d) lettering of the designs.
ARMS = {
    "c1": {"simclr": "C1a", "supcon": "C1b"},
    "c2": {"simclr": "C2a", "supcon": "C2b", "combined": "C2c"},
    "c3": {"baseline": "C3a", "simclr": "C3b", "supcon": "C3c", "combined": "C3d"},
}
ARM_OF = {exp: (family, mode) for family, arms in ARMS.items() for mode, exp in arms.items()}


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
    write_table(path, [RESULTS_HEADER], (astuple(row) for row in rows))


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
    """Resolved config, the thread count of an exact t-SNE projection and the
    number of arms run at once on this host (the timings depend on them;
    overlapping arms' times add up to more than the wall clock), per-stage
    wall clock, failures, and output digests."""

    def __init__(self, command: str, config_echo: str):
        self.command = command
        self.config_echo = config_echo
        self.timings: list[tuple[str, float]] = []
        self.errors: list[tuple[str, str]] = []

    def add_timing(self, stage: str, seconds: float) -> None:
        self.timings.append((stage, seconds))

    def add_error(self, stage: str, message: str) -> None:
        self.errors.append((stage, message))

    def write(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        lines = [
            "# run manifest",
            f"version = {__version__}",
            f"command = {self.command}",
            f"status = {'partial' if self.errors else 'ok'}",
            f"wall_clock_unix = {time.time()!r}",
            f"projection_threads = {thread_count()}",
            f"arm_workers = {arm_workers()}",
            "",
            "[config]",
            self.config_echo.rstrip("\n"),
            "",
            "[timing]",
        ]
        lines += [f"{stage} = {seconds:.3f}" for stage, seconds in self.timings]
        lines += ["", "[errors]"]
        lines += [f"{stage} = {message}" for stage, message in self.errors]
        lines += ["", "[digests]"]
        manifest_path = out_dir / "manifest.txt"
        for file in sorted(out_dir.rglob("*")):
            if file.is_dir() or file == manifest_path:
                continue
            digest = hashlib.sha256(file.read_bytes()).hexdigest()
            lines.append(f"{file.relative_to(out_dir)} = sha256:{digest}")
        manifest_path.write_text("\n".join(lines) + "\n")
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
    write_table(path, [header], zip(*columns))


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

def arm_workers() -> int:
    """Arms run at once: the projection's CPU rule, 2 when this process
    may run on two or more CPUs, else 1. It is 1 wherever a fork is not safe:
    off Linux, and while another thread of this process runs, which could
    hold a lock that the child would then wait on forever."""
    forkable = (sys.platform == "linux" and hasattr(os, "fork")
                and threading.active_count() == 1)
    return thread_count() if forkable else 1


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
            if self.manifest is not None:
                self.manifest.add_timing(stage, time.perf_counter() - start)

    @contextmanager
    def arm(self, stage: str):
        """Arm isolation: a failure inside is recorded under ``stage`` and the
        run moves on to the next arm; without a manifest it propagates."""
        try:
            yield
        except Exception as exc:
            if self.manifest is None:
                raise
            self.manifest.add_error(stage, f"{type(exc).__name__}: {exc}")

    def encoder(self, r: int, mode: str) -> EncoderParams:
        """Replica r's encoder of ``mode``, trained and saved on first use; the
        combined one fine-tunes the simclr encoder."""
        key = (r, mode)
        if key not in self.encoders:
            seed = self.seed(r)
            config = self.cfg.train_config(seed)
            if mode == "combined":
                base = self.encoder(r, "simclr")
                params = self.timed(f"r{r}.combined.finetune", lambda: contrastive.finetune_supcon(
                    base, self.data, self.split(r), config))
            else:
                params = self.timed(f"r{r}.{mode}.train", lambda: contrastive.train(
                    mode, self.data, self.split(r), config, init=self.init))
            self.encoders[key] = params
            if self.out_dir is not None:
                params.save(self.out_dir / f"ckpt_{mode}_{seed}.bin",
                            {"mode": mode, **asdict(config), "init": self.cfg.init_mode})
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


def _c1_rows(state: RunState, r: int, mode: str):
    """Latent-space separability: linear and forest probes on S, scored on T."""
    cfg, data, split = state.cfg, state.data, state.split(r)
    params = state.encoder(r, mode)
    feats_s = contrastive.extract_features(params, data, split.supervised)
    feats_t = contrastive.extract_features(params, data, split.test)
    labels_s = data.labels[split.supervised]
    labels_t = data.labels[split.test]

    linear = train_linear(feats_s, labels_s, cfg.linear_lambda, cfg.linear_epochs,
                          data.class_count)
    yield state.scored_row(r, ARMS["c1"][mode], "linear", predict(linear, feats_t), labels_t)

    forest_model = opfsup_train(feats_s, labels_s)
    yield state.scored_row(r, ARMS["c1"][mode], "opfsup",
                           opfsup_classify_batch(forest_model, feats_t), labels_t)


def _c2_rows(state: RunState, r: int, mode: str):
    """Propagation quality of the 2D embedding, plus its consistency score."""
    prop = state.propagation(r, mode)
    seed = state.seed(r)
    yield ResultRow(state.data.name, ARMS["c2"][mode], "propagation", seed,
                    prop.accuracy, prop.kappa, prop.consistency)
    if state.out_dir is not None:
        write_embedding_csv(state.out_dir / f"embedding_{mode}_{seed}.csv", prop.indices,
                            prop.embedding.coordinates, prop.labels)
        emit_scatter(prop.embedding.coordinates, prop.seed_values,
                     state.out_dir / f"scatter_{mode}_{seed}.svg")


def _c3_rows(state: RunState, r: int, mode: str):
    """Softmax probe on raw inputs: S only for the baseline, else S plus pseudo-labeled U."""
    data = state.data
    if mode == "baseline":
        train_idx = state.split(r).supervised
        labels = data.labels[train_idx]
    else:
        prop = state.propagation(r, mode)
        train_idx, labels = prop.indices, prop.labels
    softmax_cfg = state.cfg.softmax_config(state.seed(r))
    model = state.timed(f"r{r}.{mode}.softmax", lambda: train_softmax(
        data.features[train_idx], labels, softmax_cfg, data.class_count))
    test_idx = state.split(r).test
    yield state.scored_row(r, ARMS["c3"][mode], "softmax",
                           predict(model, data.features[test_idx]), data.labels[test_idx])


_FAMILY_ROWS = {"c1": _c1_rows, "c2": _c2_rows, "c3": _c3_rows}


def run_family(state: RunState, family: str) -> list[ResultRow]:
    """Every arm of one family, replica by replica, each in its own arm isolation,
    in waves of ``arm_workers()`` arms run at once (``epl.workers.run_wave``).

    An arm's rows are taken as it yields them, so the rows it finished
    before a failure are kept. A wave ends before an arm that would train
    its replica's simclr encoder while another arm of the wave would too.
    """
    from .workers import run_wave  # process machinery
    modes = [m for m in ("baseline", *state.cfg.modes) if m in ARMS[family]]
    arms = [(r, mode) for r in range(state.cfg.replicas) for mode in modes]
    rows: list[ResultRow] = []
    while arms:
        wave = []
        for r, mode in arms[:arm_workers()]:
            if (r, "simclr") not in state.encoders and mode in ("simclr", "combined") and (
                    (r, "simclr") in wave or (r, "combined") in wave):
                break
            wave.append((r, mode))
        rows += run_wave(state, [(f"r{r}.{mode}.{family}",
                                  partial(_FAMILY_ROWS[family], state, r, mode))
                                 for r, mode in wave])
        arms = arms[len(wave):]
    return rows


def run_experiment(kind: str, cfg: ExperimentConfig) -> tuple[list[ResultRow], int]:
    """Run one experiment family (or all) and write results + manifest.

    Returns (rows, exit code): 0 on full success, 2 when any arm failed.
    """
    if kind != "all" and kind not in ARMS:
        raise PipelineError(f"unknown experiment kind {kind!r}")
    cfg.validate()
    init = (EncoderParams.load(cfg.warm_start_checkpoint)
            if cfg.init_mode == "warm_start" else None)
    data = dataset_from_config(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(f"experiment {kind}", format_config(cfg.to_sections()))
    state = RunState(cfg, data, out_dir, manifest, init)

    rows: list[ResultRow] = []
    try:
        for family in (ARMS if kind == "all" else (kind,)):
            rows += run_family(state, family)
    finally:
        write_results_csv(rows, out_dir / "results.csv")
        manifest.write(out_dir)
    return rows, (2 if manifest.errors else 0)


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


def spearman(a, b) -> float | None:
    """Spearman rank correlation with average ranks; None when undefined."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise PipelineError("need two equal-length series of at least 2 values")
    if np.unique(a).size < 2 or np.unique(b).size < 2:
        return None
    # Imported on use: scipy.stats takes ~0.5 s to import and only reports need it.
    from scipy.stats import rankdata
    ra = rankdata(a)
    rb = rankdata(b)
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
        family, mode = ARM_OF.get(row.experiment, (None, None))
        if family not in ("c2", "c3") or mode == "baseline":
            continue
        cell = cells.setdefault((row.dataset, mode),
                                {"consistency": [], "prop": [], "clf": []})
        if family == "c2":
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "summary.csv",
                ["dataset,experiment,classifier,replicas,"
                 "accuracy_mean,accuracy_std,kappa_mean,kappa_std"],
                (entry.values() for entry in aggregate_rows(rows)))
    try:
        corr = correlation_report(rows)
        series = [(name, "undefined" if rho is None else rho, corr["cells"])
                  for name, rho in (("consistency_vs_propagation_kappa", corr["rho_propagation"]),
                                    ("consistency_vs_classifier_kappa", corr["rho_classifier"]))]
    except PipelineError as exc:
        # the reason goes in the first column, the only one that may hold commas
        series = [(f"unavailable: {exc}", None, 0)]
    write_table(out_dir / "correlation.csv", ["series,rho,cells"], series)
