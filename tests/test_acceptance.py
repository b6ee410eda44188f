"""Acceptance suite: one test per release criterion, one printed line each.

The heavy pipeline criteria run at their stated scales with fixed seeds,
so every number below is reproducible by rerunning this module:

    pytest tests/test_acceptance.py -v
"""

import hashlib
import time
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from epl.config import ExperimentConfig
from epl.contrastive import (TrainConfig, extract_features, finetune_supcon,
                             ntxent_loss, supcon_loss, train)
from epl.dataset import UNLABELED, generate_blobs, stratified_split
from epl.metrics import ConfusionMatrix, cohen_kappa, knn_consistency
from epl.opf import minimax_oracle, mst, opfsemi_propagate
from epl.pipeline import (RunState, correlation_report, dataset_from_config,
                          run_experiment, run_family)
from epl.projection import (conditional_affinities, kl_divergence, kl_gradient,
                            pairwise_affinities)


def random_opf_instance(rng):
    n = int(rng.integers(3, 13))
    d = int(rng.integers(1, 5))
    X = rng.uniform(-1.0, 1.0, (n, d))
    classes = int(rng.integers(1, 5))
    n_seeds = int(rng.integers(1, min(n, 4) + 1))
    seed_idx = rng.choice(n, n_seeds, replace=False)
    seeds = np.full(n, UNLABELED)
    seeds[seed_idx] = rng.integers(0, classes, n_seeds)
    return X, seeds


def test_criterion_1_opf_oracle_equivalence(criterion_report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_cost = 0.0
    for _ in range(1000):
        X, seeds = random_opf_instance(rng)
        forest = opfsemi_propagate(X, seeds)
        labels, costs = minimax_oracle(X, seeds)
        assert np.array_equal(forest.label, labels)
        worst_cost = max(worst_cost, float(np.abs(forest.cost - costs).max()))
    elapsed = time.perf_counter() - start
    ok = worst_cost <= 1e-12 and elapsed < 10.0
    criterion_report(1, ok, f"1000 instances, labels exact, worst cost diff {worst_cost:.2e}, "
                  f"{elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_2_mst_bottleneck_identity(criterion_report):
    rng = np.random.default_rng(102)
    for _ in range(500):
        X, seeds = random_opf_instance(rng)
        n = X.shape[0]
        edges = mst(X)
        D = cdist(X, X)
        adjacency = [[] for _ in range(n)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seed_idx = np.flatnonzero(seeds != UNLABELED)
        # max edge on the MST path from each seed, minimized over seeds
        best = np.full(n, np.inf)
        for s in seed_idx:
            path_max = np.zeros(n)
            stack = [(int(s), 0.0)]
            seen = {int(s)}
            while stack:
                u, running = stack.pop()
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        path_max[v] = max(running, D[u, v])
                        stack.append((v, path_max[v]))
            best = np.minimum(best, path_max)
        _, oracle_costs = minimax_oracle(X, seeds)
        forest = opfsemi_propagate(X, seeds)
        assert np.array_equal(best, oracle_costs)
        assert np.array_equal(forest.cost, oracle_costs)
    criterion_report(2, True, "500 instances, minimax == max-MST-edge == propagation costs, "
                    "exact equality")


def test_criterion_3_tsne_gradient_and_bisection(criterion_report):
    rng = np.random.default_rng(103)
    X = rng.normal(size=(20, 4))
    P = pairwise_affinities(X, 8.0, 1e-6)
    Y = rng.normal(size=(20, 2))
    grad = kl_gradient(P, Y)
    h = 1e-5
    fd = np.zeros_like(Y)
    for i in range(20):
        for j in range(2):
            plus, minus = Y.copy(), Y.copy()
            plus[i, j] += h
            minus[i, j] -= h
            fd[i, j] = (kl_divergence(P, plus) - kl_divergence(P, minus)) / (2 * h)
    rel = float(np.abs(grad - fd).max() / np.abs(fd).max())

    cond, _ = conditional_affinities(rng.normal(size=(40, 6)), 12.0, 1e-5)
    worst_perp = 0.0
    for i in range(40):
        p = cond[i][cond[i] > 0]
        perp = 2.0 ** (-(p * np.log2(p)).sum())
        worst_perp = max(worst_perp, abs(perp - 12.0))
    ok = rel <= 1e-4 and worst_perp <= 1e-5
    criterion_report(3, ok, f"gradient rel err {rel:.2e} (<= 1e-4), "
                  f"perplexity residual {worst_perp:.2e} (<= 1e-5)")
    assert ok


def test_criterion_4_contrastive_losses(criterion_report):
    rng = np.random.default_rng(104)
    worst_fd = 0.0
    for trial in range(20):
        b = int(rng.integers(3, 6))
        Z = rng.normal(size=(2 * b, 5))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        labels = np.repeat(rng.integers(0, 2, b), 2)
        for fn in (lambda z: ntxent_loss(z, 0.07, True),
                   lambda z: supcon_loss(z, labels, 0.07, True)):
            _, grad = fn(Z)
            h = 1e-6
            fd = np.zeros_like(Z)
            for i in range(Z.shape[0]):
                for j in range(Z.shape[1]):
                    plus, minus = Z.copy(), Z.copy()
                    plus[i, j] += h
                    minus[i, j] -= h
                    fd[i, j] = (fn(plus)[0] - fn(minus)[0]) / (2 * h)
            worst_fd = max(worst_fd, float(np.abs(grad - fd).max() / np.abs(fd).max()))

    worst_deg = 0.0
    for b in (2, 3, 4, 8):
        z = np.tile(rng.normal(size=6), (2 * b, 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        bound = np.log(2 * b - 1)
        worst_deg = max(worst_deg, abs(ntxent_loss(z, 0.07, True)[0] - bound))
        worst_deg = max(worst_deg,
                        abs(supcon_loss(z, np.zeros(2 * b, dtype=int), 0.07, True)[0] - bound))

    Z = rng.normal(size=(12, 6))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    one_pos = np.repeat(np.arange(6), 2)
    ln, gn = ntxent_loss(Z, 0.07, True)
    ls, gs = supcon_loss(Z, one_pos, 0.07, True)
    coincide = max(abs(ln - ls), float(np.abs(gn - gs).max()))

    ok = worst_fd <= 1e-5 and worst_deg <= 1e-9 and coincide <= 1e-10
    criterion_report(4, ok, f"FD rel err {worst_fd:.2e} (<= 1e-5), degenerate residual "
                  f"{worst_deg:.2e} (<= 1e-9), one-positive coincidence "
                  f"{coincide:.2e} (<= 1e-10)")
    assert ok


def test_criterion_5_kappa_correctness(criterion_report):
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 30, (k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        n = counts.sum()
        p_o = sum(counts[i][i] for i in range(k)) / n
        p_e = sum(counts[c].sum() * counts[:, c].sum() for c in range(k)) / (n * n)
        expect = 1.0 if p_e >= 1.0 else (p_o - p_e) / (1.0 - p_e)
        got = cohen_kappa(ConfusionMatrix(counts))
        worst = max(worst, abs(got - expect))
    worked = cohen_kappa(ConfusionMatrix(np.array([[50, 10], [15, 25]])))
    ok = worst <= 1e-12 and abs(worked - 0.468085) <= 1e-6
    criterion_report(5, ok, f"10,000 matrices, worst oracle diff {worst:.2e} (<= 1e-12), "
                  f"worked example kappa {worked:.6f} (~0.468085)")
    assert ok


def test_criterion_6_high_separation_pipeline(tmp_path, criterion_report):
    start = time.perf_counter()
    cfg = ExperimentConfig(classes=4, per_class=200, dims=16, spread=0.5,
                           center_dist=10.0, dataset_seed=1,
                           dataset_name="separated",
                           s_frac=0.01, u_frac=0.69, t_frac=0.30,
                           base_seed=7, replicas=3, out_dir=str(tmp_path))
    data = dataset_from_config(cfg)
    state = RunState(cfg, data, tmp_path)
    run_family(state, "c2")
    rows = state.rows
    elapsed = time.perf_counter() - start
    assert not state.errors
    assert len(rows) == 9
    by_mode = {}
    for row in rows:
        by_mode.setdefault(row.experiment, []).append(row.accuracy)
    floor = min(min(v) for v in by_mode.values())
    ok = floor >= 0.95 and elapsed < 300.0
    detail = ", ".join(f"{exp} min acc {min(v):.4f}" for exp, v in sorted(by_mode.items()))
    criterion_report(6, ok, f"{detail}; floor {floor:.4f} (>= 0.95), {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_7_separation_chain_correlation(tmp_path, criterion_report):
    start = time.perf_counter()
    rows = []
    for spread in (0.5, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0, 12.0):
        out = tmp_path / f"overlap_{spread}"
        out.mkdir()
        cfg = ExperimentConfig(classes=4, per_class=150, dims=8, spread=spread,
                               center_dist=10.0, dataset_seed=3,
                               dataset_name=f"overlap_{spread}",
                               s_frac=0.01, u_frac=0.69, t_frac=0.30,
                               base_seed=7, replicas=1, iterations=400,
                               exaggeration_iters=100, momentum_switch=100,
                               out_dir=str(out))
        data = dataset_from_config(cfg)
        state = RunState(cfg, data, out)
        run_family(state, "c2")
        run_family(state, "c3")
        assert not state.errors
        rows += state.rows
    corr = correlation_report(rows)
    elapsed = time.perf_counter() - start
    ok = (corr["rho_propagation"] >= 0.8 and corr["rho_classifier"] >= 0.8
          and elapsed < 900.0)
    criterion_report(7, ok, f"{corr['cells']} cells, rho(consistency, propagation kappa) = "
                  f"{corr['rho_propagation']:.3f}, rho(consistency, classifier kappa) = "
                  f"{corr['rho_classifier']:.3f} (both >= 0.8), {elapsed:.0f}s (< 900s)")
    assert ok


def test_criterion_8_pseudo_label_gain(tmp_path, criterion_report):
    cfg = ExperimentConfig(classes=4, per_class=200, dims=8, spread=7.0,
                           center_dist=10.0, dataset_seed=5,
                           dataset_name="moderate",
                           s_frac=0.01, u_frac=0.69, t_frac=0.30,
                           base_seed=7, replicas=3, iterations=500,
                           exaggeration_iters=125, momentum_switch=125,
                           out_dir=str(tmp_path))
    data = dataset_from_config(cfg)
    state = RunState(cfg, data, tmp_path)
    run_family(state, "c3")
    assert not state.errors
    rows = state.rows
    kappa_by_arm = {}
    for row in rows:
        kappa_by_arm.setdefault(row.experiment, []).append(row.kappa)
    means = {exp: float(np.mean(v)) for exp, v in kappa_by_arm.items()}
    gains = {exp: means[exp] - means["C3a"] for exp in ("C3b", "C3c", "C3d")}
    best = max(gains.values())
    ok = best >= 0.05
    detail = ", ".join(f"{exp} gain {g:+.3f}" for exp, g in sorted(gains.items()))
    criterion_report(8, ok, f"baseline kappa {means['C3a']:.3f}; {detail}; "
                  f"best gain {best:.3f} (>= 0.05), mean over 3 replicas")
    assert ok


def test_criterion_9_byte_determinism(tmp_path, criterion_report):
    def run_into(out_dir):
        cfg = ExperimentConfig(classes=3, per_class=60, dims=6, spread=0.8,
                               center_dist=10.0, dataset_seed=2,
                               s_frac=0.05, u_frac=0.65, t_frac=0.30,
                               base_seed=11, replicas=2, epochs=5, batch_size=32,
                               iterations=150, exaggeration_iters=40,
                               momentum_switch=40, perplexity=12.0,
                               out_dir=str(out_dir))
        run_experiment("all", cfg)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out_dir).iterdir())
                if p.name != "manifest.txt"}

    first = run_into(tmp_path / "a")
    second = run_into(tmp_path / "b")
    kinds = {"results": 0, "embedding": 0, "scatter": 0, "ckpt": 0}
    for name in first:
        for kind in kinds:
            if name.startswith(kind):
                kinds[kind] += 1
    ok = first == second and all(v > 0 for v in kinds.values())
    criterion_report(9, ok, f"reruns byte-identical across {len(first)} files "
                  f"({kinds['results']} results, {kinds['embedding']} embeddings, "
                  f"{kinds['ckpt']} checkpoints, {kinds['scatter']} scatterplots)")
    assert ok


def test_criterion_10_finetune_direction(criterion_report):
    data = generate_blobs(4, 150, 8, 7.0, 10.0, seed=5, name="overlap")
    wins = 0
    deltas = []
    for r in range(3):
        split = stratified_split(data, 0.10, 0.60, 0.30, seed=7 + r)
        base = train("simclr", data, split, TrainConfig(seed=7 + r))
        tuned = finetune_supcon(base, data, split, TrainConfig(seed=7 + r))
        idx = np.sort(np.concatenate([split.supervised, split.unsupervised]))
        before = knn_consistency(extract_features(base, data, idx), data.labels[idx], 10)
        after = knn_consistency(extract_features(tuned, data, idx), data.labels[idx], 10)
        deltas.append(after - before)
        wins += after >= before
    ok = wins >= 2
    criterion_report(10, ok, f"latent consistency deltas {[f'{d:+.4f}' for d in deltas]}, "
                   f"fine-tuned >= plain in {wins}/3 replicas (need >= 2)")
    assert ok
