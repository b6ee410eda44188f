"""Flat key = value experiment configuration with section headers.

The format is deliberately diffable: '[section]' lines, 'key = value'
pairs, '#' comments, nothing nested. A '#' starts a comment only at the
start of a line or after whitespace, so a value such as a path may
contain one. A parsed config resolves against the defaults below and can
be echoed back verbatim into the run manifest. The stage settings default
to the stage configs' defaults; ExperimentConfig builds them, and each
stage config checks itself when built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .contrastive import TrainConfig
from .dataset import EplError, check_at_least, check_fractions, read_text
from .probe import LINEAR_EPOCHS, LINEAR_LAMBDA, SoftmaxConfig, check_lambda
from .projection import ProjectionConfig


class ConfigError(EplError):
    """Raised for unreadable or inconsistent configuration."""


VALID_MODES = ("simclr", "supcon", "combined")

_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


def format_config(sections: dict[str, dict[str, str]]) -> str:
    chunks = []
    for name, entries in sections.items():
        chunks.append(f"[{name}]")
        for key, value in entries.items():
            chunks.append(f"{key} = {value}")
        chunks.append("")
    return "\n".join(chunks)


@dataclass
class ExperimentConfig:
    # dataset: synthetic blobs or a file on disk
    source: str = "blobs"
    classes: int = 4
    per_class: int = 200
    dims: int = 16
    spread: float = 0.5
    center_dist: float = 10.0
    dataset_seed: int = 1
    dataset_name: str = ""

    # split protocol
    s_frac: float = 0.01
    u_frac: float = 0.69
    t_frac: float = 0.30

    # run
    base_seed: int = 7
    replicas: int = 3
    modes: tuple[str, ...] = VALID_MODES
    out_dir: str = "out"

    # contrastive training
    init_mode: str = "scratch"
    warm_start_checkpoint: str = ""
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    temperature: float = TrainConfig.temperature
    learning_rate: float = TrainConfig.learning_rate
    weight_decay: float = TrainConfig.weight_decay
    validation_fraction: float = TrainConfig.validation_fraction
    noise: float = TrainConfig.noise
    dropout: float = TrainConfig.dropout

    # projection
    perplexity: float = ProjectionConfig.perplexity
    iterations: int = ProjectionConfig.iterations
    projection_learning_rate: float = ProjectionConfig.learning_rate
    early_exaggeration: float = ProjectionConfig.early_exaggeration
    exaggeration_iters: int = ProjectionConfig.exaggeration_iters
    momentum_start: float = ProjectionConfig.momentum_start
    momentum_final: float = ProjectionConfig.momentum_final
    momentum_switch: int = ProjectionConfig.momentum_switch
    entropy_tolerance: float = ProjectionConfig.entropy_tolerance

    # probes and scoring
    linear_lambda: float = LINEAR_LAMBDA
    linear_epochs: int = LINEAR_EPOCHS
    softmax_epochs: int = SoftmaxConfig.epochs
    softmax_learning_rate: float = SoftmaxConfig.learning_rate
    softmax_momentum: float = SoftmaxConfig.momentum
    softmax_hidden: int = SoftmaxConfig.hidden_dim
    softmax_batch: int = SoftmaxConfig.batch_size
    knn_k: int = 10

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, temperature=self.temperature,
            learning_rate=self.learning_rate, weight_decay=self.weight_decay,
            noise=self.noise, dropout=self.dropout,
            validation_fraction=self.validation_fraction, seed=seed)

    def projection_config(self, seed: int) -> ProjectionConfig:
        return ProjectionConfig(
            perplexity=self.perplexity, iterations=self.iterations,
            learning_rate=self.projection_learning_rate,
            early_exaggeration=self.early_exaggeration,
            exaggeration_iters=self.exaggeration_iters,
            momentum_start=self.momentum_start, momentum_final=self.momentum_final,
            momentum_switch=self.momentum_switch, seed=seed,
            entropy_tolerance=self.entropy_tolerance)

    def softmax_config(self, seed: int) -> SoftmaxConfig:
        return SoftmaxConfig(
            epochs=self.softmax_epochs, learning_rate=self.softmax_learning_rate,
            momentum=self.softmax_momentum, batch_size=self.softmax_batch,
            hidden_dim=self.softmax_hidden, seed=seed)

    def validate(self) -> None:
        """The run's own checks, then the stage configs built from the fields,
        which check themselves, so that a config every arm would reject
        fails before the first arm runs."""
        check_at_least("replicas", self.replicas, 1, ConfigError)
        check_at_least("knn_k", self.knn_k, 1, ConfigError)
        if not self.modes:
            raise ConfigError("at least one contrastive mode is required")
        for at, mode in enumerate(self.modes):
            if mode not in VALID_MODES:
                raise ConfigError(f"unknown mode {mode!r}")
            if mode in self.modes[:at]:
                raise ConfigError(f"mode {mode!r} is listed twice")
        check_fractions((self.s_frac, self.u_frac, self.t_frac), ConfigError)
        if self.init_mode not in ("scratch", "warm_start"):
            raise ConfigError(f"unknown init mode {self.init_mode!r}")
        if self.init_mode == "warm_start":
            if not self.warm_start_checkpoint:
                raise ConfigError("warm_start requires a checkpoint path")
            if not Path(self.warm_start_checkpoint).exists():
                raise ConfigError(
                    f"warm-start checkpoint not found: {self.warm_start_checkpoint}"
                )
        if self.source != "blobs" and not Path(self.source).exists():
            raise ConfigError(f"dataset file not found: {self.source}")
        for build in (self.train_config, self.projection_config, self.softmax_config):
            build(self.base_seed)
        check_at_least("linear_epochs", self.linear_epochs, 0, ConfigError)
        check_lambda(self.linear_lambda)

    def to_sections(self) -> dict[str, dict[str, str]]:
        sections: dict[str, dict[str, str]] = {}
        for section, key, attr in _KEYS:
            value = getattr(self, attr)
            sections.setdefault(section, {})[key] = (
                " ".join(value) if isinstance(value, tuple) else str(value))
        return sections


# Every config key in echo order: (section, key, ExperimentConfig field).
# A value is written as str(value), modes space-joined;
# it is read back by the type of the field's default.
_KEYS = (
    ("dataset", "source", "source"),
    ("dataset", "classes", "classes"),
    ("dataset", "per_class", "per_class"),
    ("dataset", "dims", "dims"),
    ("dataset", "spread", "spread"),
    ("dataset", "center_dist", "center_dist"),
    ("dataset", "seed", "dataset_seed"),
    ("dataset", "name", "dataset_name"),
    ("split", "s_frac", "s_frac"),
    ("split", "u_frac", "u_frac"),
    ("split", "t_frac", "t_frac"),
    ("run", "seed", "base_seed"),
    ("run", "replicas", "replicas"),
    ("run", "modes", "modes"),
    ("run", "out", "out_dir"),
    ("contrastive", "init", "init_mode"),
    ("contrastive", "warm_start_checkpoint", "warm_start_checkpoint"),
    ("contrastive", "epochs", "epochs"),
    ("contrastive", "batch_size", "batch_size"),
    ("contrastive", "temperature", "temperature"),
    ("contrastive", "learning_rate", "learning_rate"),
    ("contrastive", "weight_decay", "weight_decay"),
    ("contrastive", "validation_fraction", "validation_fraction"),
    ("contrastive", "noise", "noise"),
    ("contrastive", "dropout", "dropout"),
    ("projection", "perplexity", "perplexity"),
    ("projection", "iterations", "iterations"),
    ("projection", "learning_rate", "projection_learning_rate"),
    ("projection", "early_exaggeration", "early_exaggeration"),
    ("projection", "exaggeration_iters", "exaggeration_iters"),
    ("projection", "momentum_start", "momentum_start"),
    ("projection", "momentum_final", "momentum_final"),
    ("projection", "momentum_switch", "momentum_switch"),
    ("projection", "entropy_tolerance", "entropy_tolerance"),
    ("probe", "linear_lambda", "linear_lambda"),
    ("probe", "linear_epochs", "linear_epochs"),
    ("probe", "softmax_epochs", "softmax_epochs"),
    ("probe", "softmax_learning_rate", "softmax_learning_rate"),
    ("probe", "softmax_momentum", "softmax_momentum"),
    ("probe", "softmax_hidden", "softmax_hidden"),
    ("probe", "softmax_batch", "softmax_batch"),
    ("probe", "knn_k", "knn_k"),
)
_FIELD_OF = {(section, key): attr for section, key, attr in _KEYS}


def config_from_sections(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for section, entries in sections.items():
        for key, raw in entries.items():
            if (section, key) not in _FIELD_OF:
                raise ConfigError(f"unknown config key [{section}] {key}")
            attr = _FIELD_OF[section, key]
            cast = type(getattr(ExperimentConfig, attr))
            try:
                value = (tuple(raw.replace(",", " ").split()) if cast is tuple
                         else cast(raw))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            setattr(cfg, attr, value)
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    return config_from_sections(parse_config_text(read_text(path, ConfigError)))
