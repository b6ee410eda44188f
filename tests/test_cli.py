import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epl.cli import main
from epl.dataset import (Dataset, generate_blobs, load_features, load_split, read_table,
                         save_features, stratified_split)
from epl.pipeline import PipelineError, ResultRow, read_results_csv, write_results_csv


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    split = tmp_path / "split.csv"
    assert run(["gen", "--classes", 3, "--per-class", 40, "--dims", 5,
                "--spread", 0.4, "--center-dist", 10, "--seed", 5,
                "--out", data]) == 0
    assert run(["split", "--data", data, "--s-frac", 0.05, "--u-frac", 0.65,
                "--t-frac", 0.30, "--seed", 2, "--out", split]) == 0
    return tmp_path, data, split


class TestStages:
    def test_gen_writes_loadable_dataset(self, workspace):
        _, data, _ = workspace
        ds = load_features(data)
        assert ds.sample_count == 120 and ds.class_count == 3

    def test_split_round_trip(self, workspace):
        _, _, split = workspace
        sp = load_split(split)
        assert sp.supervised.size + sp.unsupervised.size + sp.test.size == 120

    def test_full_stage_chain(self, workspace, capsys):
        tmp, data, split = workspace
        enc = tmp / "enc.bin"
        feats = tmp / "feats.bin"
        emb = tmp / "emb.csv"
        forest = tmp / "forest.csv"
        assert run(["train", "--data", data, "--split", split, "--mode", "simclr",
                    "--epochs", 3, "--seed", 2, "--out", enc]) == 0
        assert run(["extract", "--data", data, "--checkpoint", enc,
                    "--split", split, "--roles", "S,U", "--out", feats]) == 0
        assert run(["project", "--features", feats, "--perplexity", 12,
                    "--iterations", 150, "--seed", 2, "--out", emb]) == 0
        assert run(["propagate", "--embedding", emb, "--data", data,
                    "--split", split, "--out", forest]) == 0
        out = capsys.readouterr().out
        assert "propagation" in out
        assert forest.read_text().startswith("node,cost,pred,root,label")
        assert run(["probe", "--data", data, "--split", split, "--kind", "softmax",
                    "--pseudo", forest, "--seed", 2]) == 0
        assert "softmax+pseudo" in capsys.readouterr().out
        assert run(["probe", "--data", data, "--split", split,
                    "--kind", "linear", "--seed", 2]) == 0

    def test_combined_arm_via_init_from(self, workspace):
        tmp, data, split = workspace
        enc = tmp / "enc.bin"
        tuned = tmp / "tuned.bin"
        assert run(["train", "--data", data, "--split", split, "--mode", "simclr",
                    "--epochs", 2, "--seed", 2, "--out", enc]) == 0
        assert run(["train", "--data", data, "--split", split, "--mode", "supcon",
                    "--init-from", enc, "--epochs", 2, "--seed", 2,
                    "--out", tuned]) == 0
        from epl.contrastive import EncoderParams
        a = EncoderParams.load(enc)
        b = EncoderParams.load(tuned)
        assert not np.array_equal(a.w1, b.w1)

    def test_extract_roles_need_split(self, workspace, capsys):
        tmp, data, split = workspace
        enc = tmp / "enc.bin"
        run(["train", "--data", data, "--split", split, "--mode", "simclr",
             "--epochs", 1, "--seed", 2, "--out", enc])
        code = run(["extract", "--data", data, "--checkpoint", enc,
                    "--roles", "S", "--out", tmp / "f.bin"])
        assert code == 1
        assert "requires --split" in capsys.readouterr().err

    def test_project_overflowing_features_exits_one(self, tmp_path, capsys):
        feats = np.random.default_rng(3).normal(size=(30, 4))
        feats[5, 2] = 1e200
        path = tmp_path / "feats.bin"
        save_features(Dataset(feats, None, 0), path, "binary")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["project", "--features", path, "--perplexity", 5,
                        "--iterations", 10, "--out", tmp_path / "emb.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One valid file of every kind the stage commands read."""
    tmp = tmp_path_factory.mktemp("artifacts")
    files = {name: tmp / name for name in
             ("data.csv", "split.csv", "enc.bin", "feats.bin", "emb.csv", "forest.csv",
              "results.csv")}
    steps = [
        ["gen", "--classes", 3, "--per-class", 12, "--dims", 3, "--seed", 5,
         "--out", files["data.csv"]],
        ["split", "--data", files["data.csv"], "--s-frac", 0.1, "--u-frac", 0.6,
         "--t-frac", 0.3, "--seed", 2, "--out", files["split.csv"]],
        ["train", "--data", files["data.csv"], "--split", files["split.csv"],
         "--mode", "simclr", "--epochs", 1, "--batch-size", 8, "--out", files["enc.bin"]],
        ["extract", "--data", files["data.csv"], "--checkpoint", files["enc.bin"],
         "--split", files["split.csv"], "--roles", "S,U", "--out", files["feats.bin"]],
        ["project", "--features", files["feats.bin"], "--perplexity", 5,
         "--iterations", 30, "--out", files["emb.csv"]],
        ["propagate", "--embedding", files["emb.csv"], "--data", files["data.csv"],
         "--split", files["split.csv"], "--out", files["forest.csv"]],
    ]
    for step in steps:
        assert run(step) == 0
    files["results.csv"].write_text(
        "dataset,experiment,classifier,seed,accuracy,kappa,consistency\n"
        "ds,C1a,linear,7,0.5,0.25,\n")
    return files


def _set_line(i, text):
    def mutate(blob):
        lines = blob.decode().splitlines()
        lines[i] = text
        return ("\n".join(lines) + "\n").encode()
    return mutate


def _keep_lines(count):
    return lambda blob: b"\n".join(blob.splitlines()[:count]) + b"\n"


def _with_shape(name, shape):
    """Rewrite one entry of a checkpoint's shape table; the data bytes stay."""
    def mutate(blob):
        (count,) = struct.unpack_from("<I", blob, 9)
        off = 13
        for _ in range(count):
            (size,) = struct.unpack_from("<H", blob, off)
            entry = off + 2 + size
            end = entry + 1 + 4 * blob[entry]
            if blob[off + 2:entry].decode() == name:
                return blob[:entry] + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + blob[end:]
            off = end
        raise KeyError(name)
    return mutate


def _command(kind, files, bad, tmp):
    return {
        "split.csv": ["probe", "--data", files["data.csv"], "--split", bad, "--kind", "linear"],
        "emb.csv": ["propagate", "--embedding", bad, "--data", files["data.csv"],
                    "--split", files["split.csv"], "--out", tmp / "forest.csv"],
        "enc.bin": ["extract", "--data", files["data.csv"], "--checkpoint", bad,
                    "--out", tmp / "feats.bin"],
        "forest.csv": ["probe", "--data", files["data.csv"], "--split", files["split.csv"],
                       "--kind", "softmax", "--pseudo", bad],
        "results.csv": ["report", "--results", bad, "--out", tmp / "report"],
    }[kind]


MALFORMED = {
    "split_extra_column": ("split.csv", _set_line(2, "0,S,S")),
    "split_non_integer_index": ("split.csv", _set_line(2, "zero,S")),
    "split_bad_header": ("split.csv", _set_line(0, "# seed")),
    "split_duplicate_index": ("split.csv", _set_line(3, "0,U")),
    "split_not_utf8": ("split.csv", lambda blob: b"\xff" + blob),
    "split_shorter_than_dataset": ("split.csv", _keep_lines(12)),
    "embedding_non_numeric": ("emb.csv", _set_line(1, "0,abc,1.0")),
    "embedding_short_row": ("emb.csv", _set_line(1, "0,1.0")),
    "checkpoint_10_bytes": ("enc.bin", lambda blob: blob[:10]),
    "checkpoint_200_bytes": ("enc.bin", lambda blob: blob[:200]),
    "checkpoint_w2_shape_transposed": ("enc.bin", _with_shape("w2", (32, 64))),
    "checkpoint_c2_shape_as_row": ("enc.bin", _with_shape("c2", (1, 16))),
    "checkpoint_nan_weight": ("enc.bin", lambda blob: blob[:-8] + struct.pack("<d", np.nan)),
    "forest_two_fields": ("forest.csv", _set_line(1, "0,0.0")),
    "forest_negative_node": ("forest.csv", _set_line(1, "-5,0.0,,0,0")),
    "forest_duplicate_node": ("forest.csv", _set_line(2, "0,0.0,,0,0")),
    "forest_missing_node": ("forest.csv", _keep_lines(5)),
    "forest_node_out_of_range": ("forest.csv", _set_line(1, "1000,0.0,,0,0")),
    "forest_non_integer_label": ("forest.csv", _set_line(1, "0,0.0,,0,zero")),
    "forest_label_out_of_range": ("forest.csv", lambda blob: blob.replace(b",0\n", b",7\n")),
    "results_non_numeric": ("results.csv", _set_line(1, "ds,C1a,linear,seven,0.5,0.25,")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_exits_one(artifacts, tmp_path, capsys, case):
    kind, mutate = MALFORMED[case]
    bad = tmp_path / f"bad_{kind}"
    bad.write_bytes(mutate(artifacts[kind].read_bytes()))
    capsys.readouterr()
    assert run(_command(kind, artifacts, bad, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error:")


class TestExperimentCommand:
    @pytest.mark.parametrize("section,key,value", [
        ("probe", "softmax_batch", 0),
        ("probe", "softmax_hidden", 0),
        ("probe", "linear_epochs", -1),
        ("probe", "knn_k", 0),
        ("contrastive", "batch_size", 1),
        ("contrastive", "epochs", -3),
        ("projection", "iterations", 0),
    ])
    def test_config_every_arm_rejects_exits_one_before_any_arm(self, tmp_path, capsys,
                                                               section, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_tiny_cfg(tmp_path).read_text() + f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert run(["experiment", "all", "--config", cfg, "--replicas", 1, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_config_error_exits_one(self, tmp_path, capsys):
        assert run(["experiment", "c1", "--config", tmp_path / "missing.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nreplicas = 0\n")
        assert run(["experiment", "c1", "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        assert "replicas" in capsys.readouterr().err

    def test_experiment_with_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# desk-scale experiment\n"
            "[dataset]\n"
            "classes = 3\nper_class = 40\ndims = 5\nspread = 0.5\n"
            "center_dist = 10.0\nseed = 2\n"
            "[split]\n"
            "s_frac = 0.06\nu_frac = 0.64\nt_frac = 0.30\n"
            "[run]\n"
            "replicas = 2\nmodes = simclr supcon\n"
            "[contrastive]\n"
            "epochs = 3\nbatch_size = 32\n"
            "[projection]\n"
            "perplexity = 12.0\niterations = 100\nexaggeration_iters = 25\n"
            "momentum_switch = 25\n")
        out = tmp_path / "results"
        assert run(["experiment", "c1", "--config", cfg, "--out", out,
                    "--replicas", 1, "--mode", "supcon", "--seed", 11]) == 0
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 2  # 1 replica x 1 mode x 2 classifiers
        assert {r.experiment for r in rows} == {"C1b"}
        assert rows[0].seed == 11
        manifest = (out / "manifest.txt").read_text()
        assert "modes = supcon" in manifest

    def test_mode_both_runs_two_arms(self, tmp_path):
        out = tmp_path / "both"
        assert run(["experiment", "c2", "--out", out, "--replicas", 1,
                    "--seed", 3, "--mode", "both", "--config",
                    _tiny_cfg(tmp_path)]) == 0
        rows = read_results_csv(out / "results.csv")
        assert {r.experiment for r in rows} == {"C2a", "C2b"}


    def test_c1_on_a_finite_extreme_feature_records_arm_errors(self, tmp_path):
        data = generate_blobs(3, 40, 5, 0.5, 10.0, seed=2)
        split = stratified_split(data, 0.06, 0.64, 0.30, seed=3)
        feats = data.features.copy()
        feats[split.supervised[0], 1] = 1e200
        source = tmp_path / "extreme.bin"
        save_features(Dataset(feats, data.labels, 3), source, "binary")
        assert source.read_bytes()[:4] == b"EPL2"
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(f"[dataset]\nsource = {source}\n"
                       "[split]\ns_frac = 0.06\nu_frac = 0.64\nt_frac = 0.30\n"
                       "[contrastive]\nepochs = 2\nbatch_size = 32\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["experiment", "c1", "--config", cfg, "--replicas", 1,
                        "--seed", 3, "--mode", "both", "--out", out])
        assert code == 2
        rows = read_results_csv(out / "results.csv")
        assert not [r for r in rows if r.experiment == "C1a"]
        manifest = (out / "manifest.txt").read_text()
        assert "r0.simclr.c1" in manifest and "ContrastiveError" in manifest


def _tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[dataset]\nclasses = 3\nper_class = 40\ndims = 5\nspread = 0.5\n"
        "center_dist = 10.0\nseed = 2\n"
        "[split]\ns_frac = 0.06\nu_frac = 0.64\nt_frac = 0.30\n"
        "[contrastive]\nepochs = 2\nbatch_size = 32\n"
        "[projection]\nperplexity = 12.0\niterations = 80\n"
        "exaggeration_iters = 20\nmomentum_switch = 20\n")
    return cfg


class TestReportCommand:
    def test_report_outputs(self, tmp_path):
        out = tmp_path / "exp"
        assert run(["experiment", "c2", "--out", out, "--replicas", 1,
                    "--seed", 3, "--config", _tiny_cfg(tmp_path)]) == 0
        report_dir = tmp_path / "report"
        assert run(["report", "--results", out / "results.csv",
                    "--out", report_dir]) == 0
        summary = (report_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("dataset,experiment,classifier")
        assert len(summary) == 4  # header + 3 modes
        assert (report_dir / "correlation.csv").exists()

    def test_unavailable_correlation_reads_back(self, tmp_path):
        results = tmp_path / "results.csv"
        write_results_csv([ResultRow("ds", "C2a", "propagation", 7, 0.5, 0.25, 0.75),
                           ResultRow("ds", "C3b", "softmax", 7, 0.625, 0.5)], results)
        assert run(["report", "--results", results, "--out", tmp_path / "report"]) == 0

        def header(lines):
            if lines != ["series,rho,cells"]:
                raise ValueError(f"bad header {lines}")
            return 3, tuple
        rows = read_table(tmp_path / "report" / "correlation.csv", PipelineError, header)
        assert rows == [("unavailable: need at least 5 complete (dataset, mode) cells, "
                         "have 1", "", "0")]


def _binary_dataset(magic):
    """A 30-sample, k=3 labeled dataset file in the EPL1 or EPL2 layout."""
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(3), 10)
    header = (struct.pack("<IIBI", 30, 2, 1, 3) if magic == b"EPL2"
              else struct.pack("<IIB", 30, 2, 1))
    return (magic + header + rng.normal(size=(30, 2)).astype("<f8").tobytes()
            + labels.astype("<u4").tobytes())


# The last label word set to 0x7fffffff (little-endian, counted from the end).
_HUGE_LAST_LABEL = [(17, 0x7F), (18, 0xFF), (19, 0xFF), (20, 0xFF)]


@settings(max_examples=150, deadline=None)
@given(magic=st.sampled_from([b"EPL1", b"EPL2"]),
       edits=st.lists(st.tuples(st.integers(0, 16 + 120), st.integers(0, 255)),
                      min_size=1, max_size=4))
@example(magic=b"EPL1", edits=_HUGE_LAST_LABEL)
@example(magic=b"EPL2", edits=_HUGE_LAST_LABEL)
def test_split_of_byte_mutated_binary_dataset_exits_zero_or_one(tmp_path_factory, magic,
                                                                edits):
    # Edits at 0..16 land in the header, the rest (counted from the end) in
    # the label words; any exception other than a typed error fails here.
    blob = bytearray(_binary_dataset(magic))
    for pos, value in edits:
        blob[pos if pos < 17 else -1 - (pos - 17)] = value
    tmp = tmp_path_factory.mktemp("mutated")
    data = tmp / "data.bin"
    data.write_bytes(bytes(blob))
    assert run(["split", "--data", data, "--s-frac", 0.2, "--u-frac", 0.5,
                "--t-frac", 0.3, "--out", tmp / "split.csv"]) in (0, 1)
