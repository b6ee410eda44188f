"""Command-line entry points for every pipeline stage.

Stages write plain files (datasets, splits, checkpoints, embeddings,
forest dumps) so any step can be rerun from a previous step's output.
The experiment subcommand reproduces the full designs with replicas,
a results table, scatterplots, and a manifest. Exit codes: 0 on full
success, 1 on configuration or usage errors, 2 when some experimental
arms failed but others completed, 130 when interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, contrastive
from .config import ConfigError, ExperimentConfig, load_config
from .contrastive import EncoderParams, TrainConfig
from .dataset import (ROLE_OF_LETTER, UNLABELED, Dataset, DatasetError, EplError, SplitError,
                      format_row, generate_blobs, load_features, load_split, save_features,
                      save_split, stratified_split)
from .opf import OptimumPathForest
from .pipeline import (PipelineError, propagate_labels, propagation_seeds,
                       read_embedding_csv, read_results_csv, run_experiment, score,
                       write_embedding_csv, write_report)
from .probe import predict, train_linear, train_softmax
from .projection import ProjectionConfig, tsne_project

_MODE_SETS = {
    "simclr": ("simclr",),
    "supcon": ("supcon",),
    "both": ("simclr", "supcon"),
    "combined": ("combined",),
}


def _cmd_gen(args) -> int:
    data = generate_blobs(args.classes, args.per_class, args.dims, args.spread,
                          args.center_dist, args.seed, args.name)
    save_features(data, args.out, args.format)
    print(f"wrote {data.sample_count} samples x {data.dim} dims to {args.out}")
    return 0


def _cmd_split(args) -> int:
    data = load_features(args.data)
    split = stratified_split(data, args.s_frac, args.u_frac, args.t_frac, args.seed)
    save_split(split, args.out)
    print(f"wrote split to {args.out}: |S|={split.supervised.size} "
          f"|U|={split.unsupervised.size} |T|={split.test.size}")
    return 0


def _load_split_of(data: Dataset, path):
    split = load_split(path)
    if split.roles.size != data.sample_count:
        raise SplitError(f"{path}: split covers {split.roles.size} samples "
                         f"but the dataset has {data.sample_count}")
    return split


def _cmd_train(args) -> int:
    data = load_features(args.data)
    split = _load_split_of(data, args.split)
    warm = EncoderParams.load(args.init_from) if args.init_from else None
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      temperature=args.temperature, learning_rate=args.learning_rate,
                      weight_decay=args.weight_decay, noise=args.noise,
                      dropout=args.dropout, seed=args.seed)
    params = contrastive.train(args.mode, data, split, cfg, init=warm)
    params.save(args.out, {"mode": args.mode, **dataclasses.asdict(cfg),
                           "init_from": args.init_from or "scratch"})
    print(f"wrote checkpoint {args.out}")
    return 0


def _roles_from_arg(spec: str):
    try:
        return [ROLE_OF_LETTER[token.strip()] for token in spec.split(",") if token.strip()]
    except KeyError as exc:
        raise ConfigError(f"unknown role {exc.args[0]!r}; use S, U, T") from exc


def _cmd_extract(args) -> int:
    data = load_features(args.data)
    params = EncoderParams.load(args.checkpoint)
    if args.roles:
        if not args.split:
            raise ConfigError("--roles requires --split")
        split = _load_split_of(data, args.split)
        idx = split.indices(*_roles_from_arg(args.roles))
    else:
        idx = np.arange(data.sample_count)
    latent = contrastive.extract_features(params, data, idx)
    out = Dataset(latent, None, 0, name=Path(args.out).stem)
    save_features(out, args.out, args.format)
    print(f"wrote {latent.shape[0]} x {latent.shape[1]} features to {args.out}")
    return 0


def _cmd_project(args) -> int:
    feats = load_features(args.features)
    cfg = ProjectionConfig(perplexity=args.perplexity, iterations=args.iterations,
                           seed=args.seed)
    emb = tsne_project(feats.features, cfg)
    write_embedding_csv(args.out, np.arange(len(emb)), emb.coordinates)
    print(f"wrote embedding to {args.out} (final KL {emb.final_kl:.6f})")
    return 0


def _check_rows(what: str, rows: int, split) -> None:
    expected = split.supervised.size + split.unsupervised.size
    if rows != expected:
        raise PipelineError(f"{what} has {rows} rows but the split has "
                            f"{expected} supervised + unsupervised samples")


def _cmd_propagate(args) -> int:
    data = load_features(args.data)
    split = _load_split_of(data, args.split)
    if not data.has_labels:
        raise DatasetError("propagation needs a labeled dataset for its seeds")
    nodes, coords, _ = read_embedding_csv(args.embedding)
    _check_rows("embedding", coords.shape[0], split)
    idx, seed_values = propagation_seeds(data, split)
    # Node ids are 0..m-1 as `epl project` writes them, or the S and U
    # dataset indices as the experiment writes them; either way each once.
    order = np.argsort(nodes)
    if not any(np.array_equal(nodes[order], ids) for ids in (np.arange(idx.size), idx)):
        raise PipelineError(f"{args.embedding}: nodes must be 0..{idx.size - 1} or the "
                            "split's supervised and unsupervised indices, each once")
    forest, (acc, kappa) = propagate_labels(data, idx, seed_values, coords[order])
    forest.to_csv(args.out)
    print(format_row((data.name, "propagation", split.seed, acc, kappa)))
    return 0


def _cmd_probe(args) -> int:
    if args.pseudo and args.kind != "softmax":
        raise ConfigError("--pseudo needs --kind softmax")
    cfg = ExperimentConfig()
    data = load_features(args.data)
    split = _load_split_of(data, args.split)
    if not data.has_labels:
        raise DatasetError("probes need a labeled dataset")
    feats = data.features
    if args.features:
        fset = load_features(args.features)
        if fset.sample_count != data.sample_count:
            raise PipelineError("--features must cover the whole dataset")
        feats = fset.features
    sup, test = split.supervised, split.test
    labels_t = data.labels[test]
    if args.kind == "linear":
        model = train_linear(feats[sup], data.labels[sup], cfg.linear_lambda,
                             cfg.linear_epochs, data.class_count)
        method = "linear"
        pred = predict(model, feats[test])
    else:
        if args.pseudo:
            train_idx, seed_values = propagation_seeds(data, split)
            forest = OptimumPathForest.from_csv(args.pseudo)
            _check_rows("forest", forest.label.size, split)
            # The forest comes from a file: its S rows are overruled by the true labels.
            labels_train = np.where(seed_values != UNLABELED, seed_values, forest.label)
            method = "softmax+pseudo"
        else:
            train_idx = sup
            labels_train = data.labels[sup]
            method = "softmax-baseline"
        model = train_softmax(feats[train_idx], labels_train,
                              cfg.softmax_config(args.seed), data.class_count)
        pred = predict(model, feats[test])
    print(format_row((data.name, method, args.seed, *score(pred, labels_t, data.class_count))))
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.replicas is not None:
        cfg.replicas = args.replicas
    if args.mode is not None:
        cfg.modes = _MODE_SETS[args.mode]
    rows, code = run_experiment(args.kind, cfg)
    print(f"wrote {len(rows)} result rows to {Path(cfg.out_dir) / 'results.csv'}")
    if code != 0:
        print("some experimental arms failed; see manifest.txt", file=sys.stderr)
    return code


def _cmd_report(args) -> int:
    rows = read_results_csv(args.results)
    write_report(rows, args.out)
    print(f"wrote summary.csv and correlation.csv to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic blob dataset")
    p.add_argument("--classes", type=int, default=ExperimentConfig.classes)
    p.add_argument("--per-class", type=int, default=ExperimentConfig.per_class)
    p.add_argument("--dims", type=int, default=ExperimentConfig.dims)
    p.add_argument("--spread", type=float, default=ExperimentConfig.spread)
    p.add_argument("--center-dist", type=float, default=ExperimentConfig.center_dist)
    p.add_argument("--seed", type=int, default=ExperimentConfig.dataset_seed)
    p.add_argument("--name", default=None)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("split", help="stratified supervised/unsupervised/test split")
    p.add_argument("--data", required=True)
    p.add_argument("--s-frac", type=float, default=ExperimentConfig.s_frac)
    p.add_argument("--u-frac", type=float, default=ExperimentConfig.u_frac)
    p.add_argument("--t-frac", type=float, default=ExperimentConfig.t_frac)
    p.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("train", help="train a contrastive encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--mode", choices=("simclr", "supcon"), required=True)
    p.add_argument("--init-from", default=None,
                   help="checkpoint to warm-start from (supcon over a simclr "
                        "checkpoint gives the combined arm)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--noise", type=float, default=TrainConfig.noise)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("extract", help="extract latent features from a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default=None)
    p.add_argument("--roles", default=None, help="comma list of S,U,T")
    p.add_argument("--format", choices=("text", "binary"), default="binary")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("project", help="project features to 2D with exact t-SNE")
    p.add_argument("--features", required=True)
    p.add_argument("--perplexity", type=float, default=ProjectionConfig.perplexity)
    p.add_argument("--iterations", type=int, default=ProjectionConfig.iterations)
    p.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("propagate", help="propagate supervised labels in an embedding")
    p.add_argument("--embedding", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True, help="forest dump CSV")
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("probe", help="train and score a downstream classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--kind", choices=("linear", "softmax"), required=True)
    p.add_argument("--features", default=None,
                   help="optional latent features covering the whole dataset")
    p.add_argument("--pseudo", default=None,
                   help="forest dump supplying pseudo-labels (softmax only)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("experiment", help="run the replicated experiment designs")
    p.add_argument("kind", choices=("c1", "c2", "c3", "all"))
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--mode", choices=tuple(_MODE_SETS), default=None)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("report", help="aggregate results and rank correlations")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EplError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
