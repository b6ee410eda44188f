"""Benchmark workloads: one `run_experiment` call each, inputs made from the seed.

Each workload fixes its dataset (the generator seed of the acceptance
criterion whose data it uses); the benchmark seed is the experiment's base
seed, which draws the split, the encoder and probe initialisation and the
t-SNE start. The same seed gives the same inputs and outputs. A fixed
dataset keeps the work steady across seeds: with a random dataset per
seed, the overlap of the classes moved probe_dense's prototype count
between 88 and 741 and its opfsup_train time twofold. Every
workload runs one replica of the experiment; the benchmark repeats the
call in fresh processes to get several samples in a run. Why each
workload was chosen is recorded in BENCHMARK.json.

This module imports nothing from `epl`, so the runner can name the
workloads before it knows whether the sources are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # experiment family passed to run_experiment
    config: dict                # ExperimentConfig fields besides seeds and out_dir
    rows: int                   # result rows a correct run returns
    # Traced names (see spans.TARGETS) the workload is not expected to call;
    # every other traced name must record a call on a traced run.
    skips: frozenset = field(default_factory=frozenset)
    propagation_floor: float | None = None  # criterion 6's accuracy floor

    def config_fields(self, seed: int, out_dir: str) -> dict:
        return dict(self.config, base_seed=seed, out_dir=out_dir)


WORKLOADS = {w.name: w for w in (
    # Criterion-6 data (k=4, 200/class, d=16, spread 0.5, 1% supervised):
    # 560 points embedded with 8 seeds and the full 1000 t-SNE iterations.
    # One replica and one mode keep a sample near 7-10 s on two cores.
    Workload(
        name="chain_separated",
        kind="all",
        config=dict(classes=4, per_class=200, dims=16, spread=0.5, center_dist=10.0,
                    dataset_seed=1, s_frac=0.01, u_frac=0.69, t_frac=0.30, replicas=1,
                    modes=("simclr",)),
        rows=5,
        skips=frozenset({"finetune_supcon"}),
        propagation_floor=0.95,
    ),
    # C1 at 40% supervision on overlapping classes (criterion 8's geometry):
    # S=1600, over a hundred forest prototypes, and no projection at all.
    Workload(
        name="probe_dense",
        kind="c1",
        config=dict(classes=4, per_class=1000, dims=8, spread=7.0, center_dist=10.0,
                    dataset_seed=5, s_frac=0.40, u_frac=0.30, t_frac=0.30, replicas=1,
                    modes=("simclr", "supcon")),
        rows=4,
        skips=frozenset({"finetune_supcon", "train_softmax", "tsne_project",
                         "pairwise_affinities", "kl_gradient", "kl_divergence",
                         "opfsemi_propagate", "knn_consistency", "write_embedding_csv",
                         "emit_scatter"}),
    ),
    # Criterion 9's configuration, for smoke.py; not listed in
    # BENCHMARK.json. All three modes, so every traced name is called.
    Workload(
        name="smoke",
        kind="all",
        config=dict(classes=3, per_class=60, dims=6, spread=0.8, center_dist=10.0,
                    dataset_seed=2, s_frac=0.05, u_frac=0.65, t_frac=0.30, replicas=2,
                    epochs=5, batch_size=32, iterations=150, exaggeration_iters=40,
                    momentum_switch=40, perplexity=12.0),
        rows=22,
    ),
)}
