import hashlib
import itertools
import os
import signal
import string
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

import epl.host
import epl.pipeline as pipeline
from epl.config import VALID_MODES, ExperimentConfig
from epl.contrastive import TrainConfig
from epl.dataset import (Role, SplitAssignment, UNLABELED, generate_blobs,
                         stratified_split)
from epl.pipeline import (RESULTS_HEADER, PipelineError, ResultRow, RunManifest, RunState,
                          aggregate_rows, correlation_report, read_results_csv, run_experiment,
                          run_family, spearman, write_results_csv)
from epl.probe import SoftmaxConfig, predict, train_softmax


def small_config(out_dir, **overrides):
    base = dict(classes=3, per_class=50, dims=6, spread=0.8, center_dist=10.0,
                s_frac=0.06, u_frac=0.64, t_frac=0.30,
                base_seed=7, replicas=3, epochs=4, batch_size=32,
                iterations=120, exaggeration_iters=30, momentum_switch=30,
                perplexity=12.0, out_dir=str(out_dir))
    base.update(overrides)
    return ExperimentConfig(**base)


def rank_sum_spearman_oracle(a, b):
    """Rank by counting, average ties, then the Pearson formula by sums."""
    def ranks(v):
        out = []
        for x in v:
            below = sum(1 for y in v if y < x)
            equal = sum(1 for y in v if y == x)
            out.append(below + (equal + 1) / 2.0)
        return out

    ra, rb = ranks(a), ranks(b)
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    den = (sum((x - ma) ** 2 for x in ra) * sum((y - mb) ** 2 for y in rb)) ** 0.5
    return num / den


class TestRunC1:
    def test_row_counting_and_determinism(self, tmp_path):
        cfg = small_config(tmp_path / "o1", replicas=3)
        rows, code = run_experiment("c1", cfg)
        assert code == 0
        # 2 modes x 2 classifiers x 3 replicas
        assert len(rows) == 12
        assert {r.experiment for r in rows} == {"C1a", "C1b"}
        assert {r.classifier for r in rows} == {"linear", "opfsup"}
        csv_a = (tmp_path / "o1" / "results.csv").read_bytes()
        run_experiment("c1", small_config(tmp_path / "o2", replicas=3))
        csv_b = (tmp_path / "o2" / "results.csv").read_bytes()
        assert csv_a == csv_b

    def test_aggregation_matches_independent_recompute(self, tmp_path):
        cfg = small_config(tmp_path / "agg", replicas=3)
        rows, _ = run_experiment("c1", cfg)
        agg = aggregate_rows(rows)
        for entry in agg:
            members = [r for r in rows if (r.dataset, r.experiment, r.classifier)
                       == (entry["dataset"], entry["experiment"], entry["classifier"])]
            accs = [m.accuracy for m in members]
            assert entry["replicas"] == 3
            assert entry["accuracy_mean"] == pytest.approx(sum(accs) / len(accs))
            mean = sum(accs) / len(accs)
            std = (sum((a - mean) ** 2 for a in accs) / (len(accs) - 1)) ** 0.5
            assert entry["accuracy_std"] == pytest.approx(std)


class TestRunC2:
    def test_artifacts_and_row_count(self, tmp_path):
        out = tmp_path / "c2"
        cfg = small_config(out, replicas=2)
        rows, code = run_experiment("c2", cfg)
        assert code == 0
        assert len(rows) == 6  # 3 modes x 2 replicas
        assert all(r.consistency is not None for r in rows)
        data = generate_blobs(cfg.classes, cfg.per_class, cfg.dims, cfg.spread,
                              cfg.center_dist, cfg.dataset_seed)
        split = stratified_split(data, cfg.s_frac, cfg.u_frac, cfg.t_frac, cfg.base_seed)
        expected_rows = split.supervised.size + split.unsupervised.size
        emb_lines = (out / "embedding_simclr_7.csv").read_text().splitlines()
        assert len(emb_lines) - 1 == expected_rows
        assert (out / "scatter_combined_8.svg").exists()

    def test_degenerate_seed_coverage_rejected(self):
        data = generate_blobs(3, 30, 4, 0.5, 9.0, seed=2)
        roles = np.full(data.sample_count, int(Role.UNSUPERVISED), dtype=np.uint8)
        roles[:2] = int(Role.SUPERVISED)  # both supervised samples in class 0
        roles[-5:] = int(Role.TEST)
        bad_split = SplitAssignment(roles, 0, (0.02, 0.88, 0.1))
        cfg = small_config("unused")
        state = RunState(cfg, data, None, None)
        state.splits[0] = bad_split
        from epl.contrastive import TrainConfig, train
        params = train("simclr", data, bad_split, TrainConfig(epochs=0, seed=1))
        from epl.pipeline import propagate_embedding
        with pytest.raises(PipelineError, match="every class needs a seed"):
            propagate_embedding(data, bad_split, params, cfg.projection_config(1), cfg.knn_k)


def test_warm_start_checkpoint_is_read_once(tmp_path, monkeypatch):
    from epl import checkpoint
    from epl.contrastive import init_params
    warm = init_params(6, np.random.default_rng(3))
    warm.save(tmp_path / "warm.bin", {})
    reads = []
    real_load = checkpoint.load_checkpoint

    def counting_load(path):
        reads.append(path)
        return real_load(path)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counting_load)
    cfg = small_config(tmp_path / "out", replicas=2, epochs=0, init_mode="warm_start",
                       warm_start_checkpoint=str(tmp_path / "warm.bin"))
    _, code = run_experiment("all", cfg)
    assert code == 0
    assert len(reads) == 1
    for seed in (7, 8):
        _, arrays = real_load(tmp_path / "out" / f"ckpt_simclr_{seed}.bin")
        assert all(np.array_equal(arrays[name], arr) for name, arr in warm.arrays().items())


def test_checkpoint_sidecar_records_every_train_setting(tmp_path):
    cfg = small_config(tmp_path, replicas=1, epochs=1, noise=0.2)
    state = RunState(cfg, pipeline.dataset_from_config(cfg), tmp_path, None)
    state.encoder(0, "combined")
    for mode in ("simclr", "combined"):
        lines = (tmp_path / f"ckpt_{mode}_7.bin.cfg").read_text().splitlines()
        sidecar = dict(line.split(" = ", 1) for line in lines)
        assert sidecar["mode"] == mode and sidecar["noise"] == "0.2"
        assert sidecar["seed"] == "7" and sidecar["init"] == "scratch"
        assert {f.name for f in fields(TrainConfig)} <= sidecar.keys()


class TestRunC3:
    def test_row_count_and_baseline(self, tmp_path):
        cfg = small_config(tmp_path / "c3", replicas=3)
        rows, code = run_experiment("c3", cfg)
        assert code == 0
        assert len(rows) == 12  # 4 arms x 3 replicas
        baseline = [r for r in rows if r.experiment == "C3a"]
        assert len(baseline) == 3

    def test_perfect_pseudo_labels_beat_or_match_baseline(self):
        # oracle injection: pseudo-labels equal the ground truth
        data = generate_blobs(3, 80, 6, 2.0, 10.0, seed=5)
        split = stratified_split(data, 0.02, 0.68, 0.30, seed=9)
        softmax_cfg = SoftmaxConfig(seed=9)
        test_idx = split.test
        base = train_softmax(data.features[split.supervised],
                             data.labels[split.supervised], softmax_cfg,
                             data.class_count)
        base_acc = (predict(base, data.features[test_idx]) == data.labels[test_idx]).mean()
        # the oracle pseudo-labels of U merged with the true labels of S
        merged = np.where(split.roles == int(Role.TEST), UNLABELED, data.labels)
        train_idx = np.sort(np.concatenate([split.supervised, split.unsupervised]))
        boosted = train_softmax(data.features[train_idx], merged[train_idx],
                                softmax_cfg, data.class_count)
        boosted_acc = (predict(boosted, data.features[test_idx])
                       == data.labels[test_idx]).mean()
        assert boosted_acc >= base_acc


def _break_simclr_training(monkeypatch):
    real_train = pipeline.contrastive.train

    def broken_train(mode, data, split, config, init=None):
        if mode == "simclr":
            raise RuntimeError("injected failure")
        return real_train(mode, data, split, config, init)

    monkeypatch.setattr(pipeline.contrastive, "train", broken_train)


class TestArmIsolation:
    # kind -> (surviving experiments, experiments of the failed arm); the
    # combined arm fine-tunes the simclr encoder, so it fails with it.
    CASES = {
        "c1": ({"C1b"}, {"C1a"}),
        "c2": ({"C2b"}, {"C2a", "C2c"}),
        "c3": ({"C3a", "C3c"}, {"C3b", "C3d"}),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_failed_arm_is_recorded_and_others_survive(self, tmp_path, monkeypatch, kind):
        _break_simclr_training(monkeypatch)
        cfg = small_config(tmp_path / "fail", replicas=1)
        rows, code = run_experiment(kind, cfg)
        assert code == 2
        survivors, failed = self.CASES[kind]
        experiments = {r.experiment for r in rows}
        assert survivors <= experiments
        assert not failed & experiments
        manifest = (tmp_path / "fail" / "manifest.txt").read_text().splitlines()
        assert "status = partial" in manifest
        errors = manifest[manifest.index("[errors]") + 1:manifest.index("[digests]") - 1]
        assert f"r0.simclr.{kind} = RuntimeError: injected failure" in errors
        assert read_results_csv(tmp_path / "fail" / "results.csv") == rows

    @pytest.mark.parametrize("failing, stage", [("C1a", "r0.simclr.c1"),
                                                ("C1b", "r0.supcon.c1")])
    def test_partial_arm_keeps_its_finished_rows(self, tmp_path, monkeypatch, workers, failing,
                                                 stage):
        # The failing arm's forest raises in whichever process runs that arm;
        # with two workers the C1b arm runs in a forked child. (A count of
        # forest calls would not name the arm: each process counts its own.)
        real_rows, real_train = pipeline._FAMILY_ROWS["c1"], pipeline.opfsup_train
        running = []

        def rows(state, r, arm):
            running.append(arm.id)
            yield from real_rows(state, r, arm)

        def broken_forest(features, labels):
            if running[-1] == failing:
                raise RuntimeError("injected forest failure")
            return real_train(features, labels)

        monkeypatch.setitem(pipeline._FAMILY_ROWS, "c1", rows)
        monkeypatch.setattr(pipeline, "opfsup_train", broken_forest)
        out = tmp_path / "partial"
        rows, code = run_experiment("c1", small_config(out, replicas=1))
        assert code == 2
        finished = [("C1a", "linear"), ("C1a", "opfsup"), ("C1b", "linear"), ("C1b", "opfsup")]
        finished.remove((failing, "opfsup"))
        assert [(r.experiment, r.classifier) for r in rows] == finished
        assert read_results_csv(out / "results.csv") == rows
        assert manifest_errors(out) == [f"{stage} = RuntimeError: injected forest failure"]
        assert_no_child_left()


def artifact_digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.txt"}


def manifest_errors(out_dir):
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    return lines[lines.index("[errors]") + 1:lines.index("[digests]") - 1]


def manifest_digests(out_dir):
    """File name -> sha256 hex digest, as the manifest's [digests] lists them."""
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    entries = (line.split(" = ") for line in lines[lines.index("[digests]") + 1:])
    return {name: digest.removeprefix("sha256:") for name, digest in entries}


def recorded_states(monkeypatch):
    """The run state of each manifest written from now on, as it was written."""
    states, write = [], RunManifest.write

    def recording(self, out_dir, state, **kwargs):
        states.append(state)
        return write(self, out_dir, state, **kwargs)

    monkeypatch.setattr(RunManifest, "write", recording)
    return states


def interrupt_arm(monkeypatch, family, encoder, error=KeyboardInterrupt):
    """The ``encoder`` arms of ``family`` raise ``error`` before their first
    row: by default KeyboardInterrupt, as Python's SIGINT handler does."""
    real_rows = pipeline._FAMILY_ROWS[family]

    def rows(state, r, arm):
        if arm.encoder == encoder:
            raise error
        yield from real_rows(state, r, arm)

    monkeypatch.setitem(pipeline._FAMILY_ROWS, family, rows)


def assert_no_child_left():
    # waitpid raises ChildProcessError only when this process has no child,
    # running or exited.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_workers(monkeypatch, size):
    """Set the wave size through the CPU rule that `arm_workers` reads."""
    if size > 1 and not (sys.platform == "linux" and hasattr(os, "fork")):
        pytest.skip("arms run in forked children only on Linux")
    monkeypatch.setattr(epl.host, "cpu_count", lambda: size)
    return size


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def workers(request, monkeypatch):
    return force_workers(monkeypatch, request.param)


def counting_train(monkeypatch):
    """Trainings that ran in this process, by mode."""
    real_train = pipeline.contrastive.train
    calls = []

    def train(mode, data, split, config, init=None):
        calls.append(mode)
        return real_train(mode, data, split, config, init)

    monkeypatch.setattr(pipeline.contrastive, "train", train)
    return calls


def logged_training(monkeypatch, log):
    """Each training, in whichever process runs it, appends its mode (or
    "finetune") as a line to ``log``."""
    real_train, real_finetune = pipeline.contrastive.train, pipeline.contrastive.finetune_supcon

    def note(what):
        with open(log, "a") as file:
            file.write(f"{what}\n")

    def train(mode, data, split, config, init=None):
        note(mode)
        return real_train(mode, data, split, config, init)

    def finetune(base, data, split, config):
        note("finetune")
        return real_finetune(base, data, split, config)

    monkeypatch.setattr(pipeline.contrastive, "train", train)
    monkeypatch.setattr(pipeline.contrastive, "finetune_supcon", finetune)


def manifest_timings(out_dir):
    """The stage names of the manifest's [timing] lines, in order."""
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    return [line.split(" = ")[0]
            for line in lines[lines.index("[timing]") + 1:lines.index("[errors]") - 1]]


class TwoArgError(Exception):
    """Pickles, but unpickling calls it with one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class LocalError(Exception):
    __qualname__ = "<locals>.LocalError"  # as a class defined in a function: pickle refuses it


def break_supcon_training(monkeypatch, error):
    """supcon trainings raise ``error()``; with two workers the supcon arm
    of a wave is the forked child's."""
    real_train = pipeline.contrastive.train

    def broken_train(mode, data, split, config, init=None):
        if mode == "supcon":
            raise error()
        return real_train(mode, data, split, config, init)

    monkeypatch.setattr(pipeline.contrastive, "train", broken_train)


class TestArmWorkers:
    ROWS = {"all": 22, "c1": 8, "c2": 6, "c3": 8}

    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_same_bytes_with_one_worker_or_two(self, tmp_path, monkeypatch, kind):
        # The run's record too: its rows, the files in the order they were
        # written, the timed stages and the errors.
        results, states = {}, recorded_states(monkeypatch)
        for size in (2, 1):
            force_workers(monkeypatch, size)
            out = tmp_path / f"workers{size}"
            rows, code = run_experiment(kind, small_config(out, replicas=2, epochs=3))
            assert code == 0 and len(rows) == self.ROWS[kind]
            assert read_results_csv(out / "results.csv") == rows
            header = (out / "manifest.txt").read_text().splitlines()
            assert f"arm_workers = {size}" in header
            state = states[-1]
            record = (state.rows, state.files, [stage for stage, _ in state.timings],
                      state.errors)
            assert manifest_digests(out) == artifact_digests(out)
            results[size] = rows, artifact_digests(out), manifest_timings(out), record
        assert results[2] == results[1]
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["c2", "c3", "all"])
    @pytest.mark.parametrize("modes", [("simclr", "combined"), ("combined", "simclr"),
                                       ("combined",), ("supcon", "combined", "simclr")])
    def test_simclr_trains_once_per_replica(self, tmp_path, monkeypatch, workers, kind, modes):
        # Without a simclr arm, or with it after combined's, the combined arm
        # trains simclr itself.
        log = tmp_path / "trainings.log"
        logged_training(monkeypatch, log)
        rows, code = run_experiment(kind, small_config(tmp_path / "o", replicas=2, epochs=2,
                                                       modes=modes))
        assert code == 0 and rows
        supcon = ["supcon"] * 2 if "supcon" in modes else []
        assert sorted(log.read_text().split()) == ["finetune"] * 2 + ["simclr"] * 2 + supcon

    @pytest.mark.parametrize("families", [("c3",), ("c2", "c3"), ("c1", "c2", "c3")])
    @pytest.mark.parametrize("modes", [order for size in (1, 2, 3)
                                       for order in itertools.permutations(VALID_MODES, size)])
    def test_root_rule_forms_the_waves_of_the_simclr_combined_rule(self, monkeypatch, families,
                                                                   modes):
        # The waves of families run one after another on one state, against the
        # rule that named simclr and combined: a wave ended before a simclr or
        # combined arm while its replica's simclr encoder was untrained and the
        # wave held that replica's simclr or combined arm. An arm's wave trains
        # its encoders, so a later family finds them trained.
        force_workers(monkeypatch, 2)
        cfg = small_config("unused", replicas=2, modes=modes)
        state = RunState(cfg, generate_blobs(3, 10, 2, 1.0, 5.0, seed=1), None, None)
        waves = []

        def run_wave(state, arms):
            waves.append([stage for stage, _ in arms])
            for _, run in arms:
                r, arm = run.args[1:]
                if arm.encoder is not None:
                    state.encoders[r, arm.encoder] = None
                    state.encoders[r, pipeline.FINETUNES.get(arm.encoder, arm.encoder)] = None
            return []

        monkeypatch.setattr("epl.workers.run_wave", run_wave)
        expected, trained = [], set()
        for family in families:
            run_family(state, family)
            modes_of = {arm.encoder or "baseline" for arm in pipeline.ARMS if arm.family == family}
            arms = [(r, mode) for r in range(2) for mode in ("baseline", *modes)
                    if mode in modes_of]
            while arms:
                wave = []
                for r, mode in arms[:2]:
                    if (r, "simclr") not in trained and mode in ("simclr", "combined") and (
                            (r, "simclr") in wave or (r, "combined") in wave):
                        break
                    wave.append((r, mode))
                trained |= {(r, "simclr") for r, mode in wave if mode in ("simclr", "combined")}
                expected.append([f"r{r}.{mode}.{family}" for r, mode in wave])
                arms = arms[len(wave):]
        assert waves == expected

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_pipe_or_no_fork_runs_the_arm_here(self, tmp_path, monkeypatch, workers, call):
        def refused():
            raise OSError(f"{call} refused")

        monkeypatch.setattr(os, call, refused)
        calls = counting_train(monkeypatch)
        rows, code = run_experiment("c1", small_config(tmp_path / "o", replicas=1))
        assert code == 0 and len(rows) == 4
        assert calls == ["simclr", "supcon"]

    def test_error_in_either_worker_reaches_its_arm(self, tmp_path, monkeypatch, workers):
        break_supcon_training(monkeypatch, lambda: pipeline.contrastive.ContrastiveError(
            "injected supcon failure"))
        out = tmp_path / "fail"
        rows, code = run_experiment("c1", small_config(out, replicas=2))
        assert code == 2
        assert {r.experiment for r in rows} == {"C1a"} and len(rows) == 4
        assert manifest_errors(out) == [
            f"r{r}.supcon.c1 = ContrastiveError: injected supcon failure" for r in (0, 1)]
        assert_no_child_left()

    def test_errors_are_those_of_one_worker(self, tmp_path, monkeypatch):
        # Errors of either worker, of errors that do not pickle or unpickle
        # too: the arm's own isolation turns each into a manifest line.
        real_train, real_finetune = pipeline.contrastive.train, pipeline.contrastive.finetune_supcon

        def train(mode, data, split, config, init=None):
            if mode == "supcon" and config.seed == 8:
                raise TwoArgError("two", "args")
            return real_train(mode, data, split, config, init)

        def finetune(base, data, split, config):
            if config.seed == 7:
                raise LocalError("local")
            return real_finetune(base, data, split, config)

        monkeypatch.setattr(pipeline.contrastive, "train", train)
        monkeypatch.setattr(pipeline.contrastive, "finetune_supcon", finetune)
        results = {}
        for size in (2, 1):
            force_workers(monkeypatch, size)
            out = tmp_path / f"workers{size}"
            rows, code = run_experiment("all", small_config(out, replicas=2, epochs=2))
            assert code == 2
            results[size] = rows, manifest_errors(out), artifact_digests(out)
        assert results[2] == results[1]
        assert results[1][1] == [
            "r1.supcon.c1 = TwoArgError: two args",
            "r0.combined.c2 = LocalError: local", "r1.supcon.c2 = TwoArgError: two args",
            "r0.combined.c3 = LocalError: local", "r1.supcon.c3 = TwoArgError: two args"]
        assert_no_child_left()

    @pytest.mark.parametrize("row, message", [
        (lambda: TwoArgError("two", "args"), "r0.supcon.c1: its answer could not be read: "
         "TypeError: TwoArgError.__init__() missing 1 required positional argument: 'b'"),
        (lambda: LocalError("local"), "r0.supcon.c1: its answer (not sent back whole: "),
    ], ids=["unreadable", "unpicklable"])
    def test_forked_answer_that_cannot_come_back_is_a_pipeline_error(self, tmp_path,
                                                                      monkeypatch, row, message):
        # A forked arm's own error comes back as its [errors] line. An answer
        # that does not pickle or unpickle, here for a row, is recorded under
        # the arm as a PipelineError, and none of that arm's rows come back.
        force_workers(monkeypatch, 2)
        real_rows = pipeline._FAMILY_ROWS["c1"]

        def rows(state, r, arm):
            yield from real_rows(state, r, arm)
            if arm.encoder == "supcon":
                yield row()

        monkeypatch.setitem(pipeline._FAMILY_ROWS, "c1", rows)
        cfg = small_config(tmp_path, replicas=1)
        state = RunState(cfg, pipeline.dataset_from_config(cfg), tmp_path)
        run_family(state, "c1")
        [(stage, recorded)] = state.errors
        assert stage == "r0.supcon.c1" and recorded.startswith(f"PipelineError: {message}")
        assert {r.experiment for r in state.rows} == {"C1a"}  # this process's arm ran to its end
        assert_no_child_left()

    def test_forked_error_is_recorded_and_the_next_wave_runs(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        break_supcon_training(monkeypatch, lambda: pipeline.contrastive.ContrastiveError(
            "injected supcon failure"))
        cfg = small_config(tmp_path, replicas=2)
        state = RunState(cfg, pipeline.dataset_from_config(cfg), tmp_path)
        run_family(state, "c1")
        assert state.errors == [(f"r{r}.supcon.c1", "ContrastiveError: injected supcon failure")
                                for r in (0, 1)]
        assert set(state.encoders) == {(0, "simclr"), (1, "simclr")}
        assert_no_child_left()

    @pytest.mark.parametrize("how, death", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    ], ids=["exit", "signal"])
    def test_arm_worker_that_dies_is_a_pipeline_error_naming_its_arm(
            self, tmp_path, monkeypatch, how, death):
        force_workers(monkeypatch, 2)
        parent = os.getpid()
        real_train = pipeline.contrastive.train

        def dying_train(mode, data, split, config, init=None):
            if os.getpid() != parent:
                how()
            return real_train(mode, data, split, config, init)

        monkeypatch.setattr(pipeline.contrastive, "train", dying_train)
        out = tmp_path / "died"
        rows, code = run_experiment("c1", small_config(out, replicas=1))
        assert code == 2
        assert {r.experiment for r in rows} == {"C1a"}
        assert manifest_errors(out) == [
            f"r0.supcon.c1 = PipelineError: r0.supcon.c1: the child process ended with {death} "
            "before answering"]
        assert_no_child_left()

    def test_an_interrupted_run_writes_every_finished_arm(self, tmp_path, monkeypatch,
                                                         workers):
        # The combined arm, the first of c2's second wave with two workers, is
        # interrupted in this process once the simclr and supcon arms have
        # ended (with two workers, supcon's in a forked child).
        interrupt_arm(monkeypatch, "c2", "combined")
        out = tmp_path / "interrupted"
        with pytest.raises(KeyboardInterrupt):
            run_experiment("all", small_config(out, replicas=1))
        assert [(r.experiment, r.classifier) for r in read_results_csv(out / "results.csv")] == [
            ("C1a", "linear"), ("C1a", "opfsup"), ("C1b", "linear"), ("C1b", "opfsup"),
            ("C2a", "propagation"), ("C2b", "propagation")]
        assert "status = interrupted" in (out / "manifest.txt").read_text().splitlines()
        assert manifest_errors(out) == []
        assert manifest_digests(out) == artifact_digests(out)
        assert set(artifact_digests(out)) == {
            "results.csv", *(f"{kind}_{mode}_7.{ext}" for mode in ("simclr", "supcon")
                             for kind, ext in (("embedding", "csv"), ("scatter", "svg"))),
            *(f"ckpt_{mode}_7.bin{cfg}" for mode in ("simclr", "supcon") for cfg in ("", ".cfg"))}
        assert_no_child_left()

    def test_a_raise_that_is_not_an_interrupt_is_not_reported_as_one(self, tmp_path,
                                                                    monkeypatch, workers):
        class Stop(BaseException):  # not an Exception: no arm isolation catches it
            pass

        interrupt_arm(monkeypatch, "c2", "combined", Stop)
        out = tmp_path / "stopped"
        with pytest.raises(Stop):
            run_experiment("all", small_config(out, replicas=1))
        assert "status = ok" in (out / "manifest.txt").read_text().splitlines()
        assert manifest_digests(out) == artifact_digests(out)
        assert_no_child_left()

    def test_no_child_outlives_a_raise_in_this_process(self, tmp_path, monkeypatch, workers):
        class Stop(BaseException):  # not an Exception: no arm isolation catches it
            pass

        parent = os.getpid()
        real_train = pipeline.contrastive.train

        def train(mode, data, split, config, init=None):
            if os.getpid() == parent:
                raise Stop()
            return real_train(mode, data, split, config, init)

        monkeypatch.setattr(pipeline.contrastive, "train", train)
        with pytest.raises(Stop):
            run_experiment("c1", small_config(tmp_path / "stop", replicas=1, epochs=50))
        assert_no_child_left()


def test_arm_table():
    ids = [arm.id for arm in pipeline.ARMS]
    assert len(set(ids)) == len(ids)
    assert {arm.encoder for arm in pipeline.ARMS} - {None} == set(VALID_MODES)
    for family in {arm.family for arm in pipeline.ARMS}:
        lettered = [arm.id for arm in pipeline.ARMS if arm.family == family]
        assert lettered == [family.upper() + letter
                            for letter in string.ascii_lowercase[:len(lettered)]]
    assert pipeline.ARM_OF == {arm.id: arm for arm in pipeline.ARMS}
    assert set(pipeline.FINETUNES.items()) <= set(itertools.product(VALID_MODES, VALID_MODES))


def test_unknown_kind_fails_before_touching_disk(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(PipelineError, match="unknown experiment kind 'c4'"):
        run_experiment("c4", small_config(out))
    assert not out.exists()


class TestManifest:
    def test_every_output_file_digested(self, tmp_path):
        out = tmp_path / "man"
        run_experiment("c2", small_config(out, replicas=1))
        manifest = (out / "manifest.txt").read_text().splitlines()
        digest_lines = manifest[manifest.index("[digests]") + 1:]
        listed = {}
        for line in digest_lines:
            name, digest = line.split(" = ")
            listed[name] = digest.removeprefix("sha256:")
        on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "manifest.txt"}
        assert listed == on_disk

    def test_only_this_runs_files_are_digested(self, tmp_path):
        # A c1 run into the directory of a c2 run lists its own files alone.
        out = tmp_path / "reused"
        run_experiment("c2", small_config(out, replicas=1, modes=("simclr",)))
        run_experiment("c1", small_config(out, replicas=1, modes=("supcon",)))
        assert "embedding_simclr_7.csv" in artifact_digests(out)
        assert set(manifest_digests(out)) == {"ckpt_supcon_7.bin", "ckpt_supcon_7.bin.cfg",
                                              "results.csv"}
        assert manifest_digests(out).items() <= artifact_digests(out).items()

    def test_a_process_that_may_not_fork_projects_on_one_side(self, tmp_path, monkeypatch):
        # While another thread runs, the projection forks no helper, and the
        # header says so.
        force_workers(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            lines = RunManifest("experiment c1", "").write(
                tmp_path, RunState(None, None, None, None)).read_text().splitlines()
            sides = epl.projection._side_count(100)
        finally:
            release.set()
            other.join()
        assert "arm_workers = 1" in lines[:lines.index("[config]")]
        assert sides == 1

    def test_header_names_the_arm_workers(self, tmp_path, workers):
        # They are also the sides a projection of more than 64 points splits between.
        lines = RunManifest("experiment c1", "").write(
            tmp_path, RunState(None, None, None, None)).read_text().splitlines()
        assert f"arm_workers = {workers}" in lines[:lines.index("[config]")]
        assert epl.projection._side_count(100) == workers

    def test_header_names_numpy_and_scipy(self, tmp_path):
        lines = RunManifest("experiment c1", "").write(
            tmp_path, RunState(None, None, None, None)).read_text().splitlines()
        header = lines[:lines.index("[config]")]
        assert f"numpy = {np.__version__}" in header
        assert f"scipy = {scipy.__version__}" in header

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        force_workers(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert pipeline.arm_workers() == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        rows = [ResultRow("ds", "C1a", "linear", 7, 0.5, 0.25),
                ResultRow("ds", "C2b", "propagation", 8, 0.75, 0.5, 0.9)]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        back = read_results_csv(path)
        assert back == rows

    # str.splitlines ends a line at each of these, so no table cell can hold
    # one; surrogates (Cs) have no UTF-8 encoding.
    LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @settings(max_examples=200, deadline=None)
    @given(name=st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters=LINE_BREAKS)))
    def test_dataset_name_round_trips(self, tmp_path_factory, name):
        rows = [ResultRow(name, "C1a", "linear", 7, 0.5, 0.25),
                ResultRow(name, "C2b", "propagation", 8, 0.75, 0.5, 0.9)]
        path = tmp_path_factory.mktemp("results") / "results.csv"
        write_results_csv(rows, path)
        assert read_results_csv(path) == rows

    @pytest.mark.parametrize("cells", ["inf,0.5,", "0.5,-inf,", "nan,0.5,", "0.5,0.5,inf"])
    def test_non_finite_metric_is_a_typed_error(self, tmp_path, cells):
        # Two such rows of one cell once reached a numpy std of [inf, inf].
        path = tmp_path / "results.csv"
        row = f"d,C2a,propagation,7,{cells}"
        path.write_text(f"{RESULTS_HEADER}\n{row}\n{row}\n")
        with pytest.raises(PipelineError, match="line 2: metric .* is not finite"):
            read_results_csv(path)


class TestSpearman:
    def test_monotone_series(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_series(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_constant_series_undefined(self):
        assert spearman([1.0, 1.0, 1.0], [1, 2, 3]) is None

    def test_matches_rank_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            a = rng.integers(0, 8, n).astype(float)  # integer grid forces ties
            b = rng.normal(size=n)
            if np.unique(a).size < 2:
                continue
            assert spearman(a, b) == pytest.approx(
                rank_sum_spearman_oracle(list(a), list(b)), abs=1e-12)

    def test_bitwise_equal_to_sorted_average_ranks(self):
        """correlation.csv holds repr(rho), so the ranks must match this
        sort-based average-rank reference bit for bit, ties included."""
        def average_ranks(v):
            ranks = np.empty(len(v))
            ranks[np.argsort(v, kind="stable")] = np.arange(1, len(v) + 1, dtype=np.float64)
            for x in np.unique(v):
                mask = v == x
                ranks[mask] = ranks[mask].mean()
            return ranks

        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, n).astype(float)
            b = np.round(rng.normal(size=n), 1)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            ra, rb = average_ranks(a), average_ranks(b)
            ra -= ra.mean()
            rb -= rb.mean()
            expected = float((ra * rb).sum() / np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))
            assert spearman(a, b) == expected



def _rankdata_spearman(a, b):
    """spearman as computed with scipy.stats.rankdata before the numpy ranks."""
    ra, rb = rankdata(a), rankdata(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))


class TestSpearmanRanks:
    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(st.integers(-4, 4), min_size=2, max_size=60),
           scale=st.sampled_from([1.0, -0.5, 1e-300, 1e300]), seed=st.integers(0, 2**32 - 1))
    def test_average_ranks_equal_rankdata_bit_for_bit(self, a, scale, seed):
        v = np.array(a, dtype=np.float64) * scale  # small integer grid: ties abound
        assert pipeline._average_ranks(v).tobytes() == rankdata(v).tobytes()
        b = np.round(np.random.default_rng(seed).normal(size=v.size), 1)
        if np.unique(v).size > 1 and np.unique(b).size > 1:
            assert spearman(v, b) == _rankdata_spearman(v, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_non_finite_series_is_a_typed_error(self, bad, side):
        series = [[bad, 1.0, 2.0], [1.0, 2.0, 3.0]]
        if side == "second":
            series.reverse()
        with pytest.raises(PipelineError, match=f"a value of the {side} series is not finite"):
            spearman(*series)

    def test_series_must_be_one_dimensional(self):
        with pytest.raises(PipelineError, match="equal-length series"):
            spearman([[1, 2], [3, 4]], [[1, 2], [4, 3]])


class TestCorrelationReport:
    def _rows(self, cells):
        rows = []
        for i, (consistency, kp, kc) in enumerate(cells):
            ds = f"d{i}"
            rows.append(ResultRow(ds, "C2b", "propagation", 1, 0.5, kp, consistency))
            rows.append(ResultRow(ds, "C3c", "softmax", 1, 0.5, kc))
        return rows

    def test_perfectly_monotone_chain(self):
        cells = [(0.1 * i, 0.05 * i, 0.07 * i) for i in range(1, 9)]
        report = correlation_report(self._rows(cells))
        assert report["rho_propagation"] == 1.0
        assert report["rho_classifier"] == 1.0
        assert report["cells"] == 8

    def test_reversed_chain(self):
        cells = [(0.1 * i, -0.05 * i, -0.07 * i) for i in range(1, 9)]
        report = correlation_report(self._rows(cells))
        assert report["rho_propagation"] == -1.0

    def test_too_few_cells(self):
        with pytest.raises(PipelineError, match="at least 5"):
            correlation_report(self._rows([(0.1, 0.1, 0.1)] * 3))

    def test_constant_reported_as_undefined(self):
        cells = [(0.5, 0.1 * i, 0.1 * i) for i in range(1, 9)]
        report = correlation_report(self._rows(cells))
        assert report["rho_propagation"] is None
