import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import epl
from epl.cli import main
from epl.config import ExperimentConfig
from epl.dataset import (Dataset, Role, generate_blobs, load_features, load_split, read_table,
                         save_features, stratified_split)
from epl.pipeline import (PipelineError, ResultRow, dataset_from_config, read_embedding_csv,
                          read_results_csv, write_embedding_csv, write_results_csv)
from epl.projection import tsne_project


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

    def test_train_defaults_are_the_train_config_defaults(self, workspace):
        from epl.contrastive import TrainConfig, train
        tmp, data, split = workspace
        assert run(["train", "--data", data, "--split", split, "--mode", "supcon",
                    "--out", tmp / "cli.bin"]) == 0
        train("supcon", load_features(data), load_split(split),
              TrainConfig(seed=7)).save(tmp / "lib.bin", {})
        assert (tmp / "cli.bin").read_bytes() == (tmp / "lib.bin").read_bytes()

    def test_gen_split_defaults_are_the_experiment_defaults(self, tmp_path):
        cfg = ExperimentConfig()
        assert run(["gen", "--out", tmp_path / "cli.csv"]) == 0
        save_features(dataset_from_config(cfg), tmp_path / "lib.csv", "text")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert run(["split", "--data", tmp_path / "lib.csv", "--out", tmp_path / "split.csv"]) == 0
        expected = stratified_split(load_features(tmp_path / "lib.csv"), cfg.s_frac,
                                    cfg.u_frac, cfg.t_frac, cfg.base_seed)
        got = load_split(tmp_path / "split.csv")
        assert np.array_equal(got.roles, expected.roles)
        assert (got.seed, got.fractions) == (expected.seed, expected.fractions)

    def test_project_defaults_are_the_experiment_defaults(self, tmp_path):
        feats = np.random.default_rng(4).normal(size=(32, 3))
        save_features(Dataset(feats, None, 0, "feats"), tmp_path / "feats.bin", "binary")
        assert run(["project", "--features", tmp_path / "feats.bin",
                    "--out", tmp_path / "emb.csv"]) == 0
        cfg = ExperimentConfig()
        expected = tsne_project(feats, cfg.projection_config(cfg.base_seed))
        _, coords, _ = read_embedding_csv(tmp_path / "emb.csv")
        assert np.array_equal(coords, expected.coordinates)

    def test_extract_roles_need_split(self, workspace, capsys):
        tmp, data, split = workspace
        enc = tmp / "enc.bin"
        run(["train", "--data", data, "--split", split, "--mode", "simclr",
             "--epochs", 1, "--seed", 2, "--out", enc])
        code = run(["extract", "--data", data, "--checkpoint", enc,
                    "--roles", "S", "--out", tmp / "f.bin"])
        assert code == 1
        assert "requires --split" in capsys.readouterr().err

    def test_propagate_places_coordinates_by_node(self, workspace, capsys):
        tmp, data, split = workspace
        idx = load_split(split).indices(Role.SUPERVISED, Role.UNSUPERVISED)
        coords = load_features(data).features[idx, :2]
        emb, forest = tmp / "emb.csv", tmp / "forest.csv"
        argv = ["propagate", "--embedding", emb, "--data", data, "--split", split,
                "--out", forest]
        lines = []
        perm = np.random.default_rng(3).permutation(idx.size)
        # as `epl project` writes it, its rows permuted, and with dataset indices as nodes
        for nodes, rows in ((np.arange(idx.size), slice(None)), (perm, perm), (idx[perm], perm)):
            write_embedding_csv(emb, nodes, coords[rows])
            assert run(argv) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] == lines[2]
        for unknown in (idx.size, -1):
            write_embedding_csv(emb, np.r_[np.arange(idx.size - 1), unknown], coords)
            assert run(argv) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_pseudo_labels_need_the_softmax_probe(self, workspace, capsys):
        tmp, data, split = workspace
        forest = tmp / "forest.csv"
        forest.write_text("node,cost,pred,root,label\n")
        assert run(["probe", "--data", data, "--split", split, "--kind", "linear",
                    "--pseudo", forest]) == 1
        assert capsys.readouterr().err.startswith("error: --pseudo needs --kind softmax")

    def test_project_overflowing_features_exits_one(self, tmp_path, capsys):
        feats = np.random.default_rng(3).normal(size=(30, 4))
        feats[5, 2] = 1e200
        path = tmp_path / "feats.bin"
        save_features(Dataset(feats, None, 0, "feats"), path, "binary")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["project", "--features", path, "--perplexity", 5,
                        "--iterations", 10, "--out", tmp_path / "emb.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is a Linux limit")
    def test_project_out_of_memory_exits_one(self, tmp_path):
        # Under a 1 GB address-space cap the workspace fits (untouched) and
        # the affinities' 8000 x 8000 matrix does not.
        feats = tmp_path / "blobs.csv"
        assert run(["gen", "--classes", 2, "--per-class", 4000, "--dims", 2,
                    "--out", feats]) == 0
        code = ("import resource, sys\n"
                "from epl.cli import main\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, resource.RLIM_INFINITY))\n"
                f"sys.exit(main(['project', '--features', {str(feats)!r}, '--iterations', '1',"
                f" '--out', {str(tmp_path / 'emb.csv')!r}]))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                                                "PYTHONPATH": str(Path(epl.__file__).parent.parent)})
        assert done.returncode == 1, done.stderr
        assert done.stderr == ("error: out of memory: exact t-SNE of 8000 points holds two "
                               "8000 x 8000 float64 matrices, 977 MB\n")

    def test_project_nan_perplexity_exits_one(self, tmp_path, capsys):
        path = tmp_path / "feats.bin"
        save_features(Dataset(np.random.default_rng(3).normal(size=(30, 4)), None, 0, "feats"),
                      path, "binary")
        assert run(["project", "--features", path, "--perplexity", "nan",
                    "--out", tmp_path / "emb.csv"]) == 1
        assert "perplexity must be a number, got NaN" in capsys.readouterr().err

    def test_train_sidecar_records_every_setting(self, workspace):
        tmp, data, split = workspace
        enc = tmp / "enc.bin"
        assert run(["train", "--data", data, "--split", split, "--mode", "simclr",
                    "--epochs", 1, "--learning-rate", 0.001, "--noise", 0.2,
                    "--out", enc]) == 0
        lines = (tmp / "enc.bin.cfg").read_text().splitlines()
        assert "learning_rate = 0.001" in lines and "noise = 0.2" in lines
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == ["mode", "epochs", "batch_size", "temperature", "learning_rate",
                        "weight_decay", "noise", "dropout", "validation_fraction", "seed",
                        "init_from"]

    def test_score_lines_are_pinned(self, tmp_path, capsys):
        # Overlapping classes, so the cells are not all 1.0; every float is repr'd.
        files = {name: tmp_path / name for name in
                 ("data.csv", "split.csv", "enc.bin", "feats.bin", "emb.csv", "forest.csv")}
        for step in (
            ["gen", "--classes", 3, "--per-class", 40, "--dims", 5, "--spread", 7.0,
             "--center-dist", 10, "--seed", 5, "--out", files["data.csv"]],
            ["split", "--data", files["data.csv"], "--s-frac", 0.05, "--u-frac", 0.65,
             "--t-frac", 0.30, "--seed", 2, "--out", files["split.csv"]],
            ["train", "--data", files["data.csv"], "--split", files["split.csv"],
             "--mode", "simclr", "--epochs", 3, "--seed", 2, "--out", files["enc.bin"]],
            ["extract", "--data", files["data.csv"], "--checkpoint", files["enc.bin"],
             "--split", files["split.csv"], "--roles", "S,U", "--out", files["feats.bin"]],
            ["project", "--features", files["feats.bin"], "--perplexity", 12,
             "--iterations", 150, "--seed", 2, "--out", files["emb.csv"]],
        ):
            assert run(step) == 0
        capsys.readouterr()
        common = ["--data", files["data.csv"], "--split", files["split.csv"]]
        # The propagation and pseudo-label lines follow the trained encoder's
        # bytes, so a change to training re-records them.
        expected = {
            ("propagate", "--embedding", files["emb.csv"], *common, "--out", files["forest.csv"]):
                "data,propagation,2,0.8846153846153846,0.8269230769230769\n",
            ("probe", *common, "--kind", "softmax", "--pseudo", files["forest.csv"], "--seed", 2):
                "data,softmax+pseudo,2,0.9444444444444444,0.9166666666666666\n",
            ("probe", *common, "--kind", "softmax", "--seed", 2):
                "data,softmax-baseline,2,1.0,1.0\n",
            ("probe", *common, "--kind", "linear", "--seed", 2):
                "data,linear,2,0.9722222222222222,0.9583333333333331\n",
        }
        for argv, line in expected.items():
            assert run(argv) == 0
            assert capsys.readouterr().out == line


@pytest.mark.parametrize("flag,value,named", [
    ("--center-dist", -1, "center_dist"),
    ("--center-dist", "nan", "center_dist"),
    ("--center-dist", "inf", "center_dist"),
    ("--center-dist", 1e308, "center_dist"),
    ("--center-dist", 1e200, "center_dist"),
    ("--dims", 0, "dims"),
    ("--dims", -2, "dims"),
    ("--spread", "nan", "spread"),
    ("--spread", "inf", "spread"),
    ("--seed", -1, "seed"),
])
def test_gen_bad_argument_is_named(tmp_path, capsys, flag, value, named):
    assert run(["gen", flag, value, "--out", tmp_path / "data.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "data.csv").exists()


# Run in a fresh interpreter that caps its own address space (RLIMIT_AS) at
# its size now plus 256 MB: `epl gen` with argv[1:4] as classes, per-class
# count and dims, then the same `generate_blobs` call, whose DatasetError
# and its cause's type it prints. Exits with the command's code.
_GEN_UNDER_RLIMIT = """
import os, resource, sys
from epl.cli import main
from epl.dataset import DatasetError, generate_blobs
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (size + 2 ** 28, resource.getrlimit(resource.RLIMIT_AS)[1]))
k, per_class, d = sys.argv[1:4]
code = main(["gen", "--classes", k, "--per-class", per_class, "--dims", d, "--out", sys.argv[4]])
try:
    generate_blobs(int(k), int(per_class), int(d), 0.5, 10.0, seed=1)
except DatasetError as exc:
    print(exc, type(exc.__cause__).__name__)
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
@pytest.mark.parametrize("k, per_class, d", [(4, 200, 10 ** 11), (10 ** 9, 2, 16)])
def test_gen_beyond_memory_is_an_error_line(tmp_path, k, per_class, d):
    out = tmp_path / "data.csv"
    done = subprocess.run([sys.executable, "-c", _GEN_UNDER_RLIMIT, str(k), str(per_class),
                           str(d), str(out)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                               "PYTHONPATH": str(Path(epl.__file__).resolve().parent.parent)})
    message = (f"out of memory: {k} classes x {per_class} points x {d} dims of float64 need "
               f"{k * per_class * d * 8 / 2 ** 20:.0f} MB")
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"error: {message}\n"
    assert done.stdout == f"{message} MemoryError\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--s-frac", "--u-frac", "--t-frac"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_split_non_finite_fraction_exits_one(tmp_path, capsys, flag, value):
    data = tmp_path / "data.csv"
    assert run(["gen", "--classes", 3, "--per-class", 20, "--out", data]) == 0
    fracs = {"--s-frac": 0.1, "--u-frac": 0.6, "--t-frac": 0.3, flag: value}
    capsys.readouterr()
    argv = ["split", "--data", data, "--out", tmp_path / "split.csv"]
    assert run(argv + [token for pair in fracs.items() for token in pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positive and finite" in err
    assert not (tmp_path / "split.csv").exists()


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
        "data.csv": ["split", "--data", bad, "--out", tmp / "split.csv"],
        "split.csv": ["probe", "--data", files["data.csv"], "--split", bad, "--kind", "linear"],
        "emb.csv": ["propagate", "--embedding", bad, "--data", files["data.csv"],
                    "--split", files["split.csv"], "--out", tmp / "forest.csv"],
        "enc.bin": ["extract", "--data", files["data.csv"], "--checkpoint", bad,
                    "--out", tmp / "feats.bin"],
        "forest.csv": ["probe", "--data", files["data.csv"], "--split", files["split.csv"],
                       "--kind", "softmax", "--pseudo", bad],
        "results.csv": ["report", "--results", bad, "--out", tmp / "report"],
        "experiment.cfg": ["experiment", "c1", "--config", bad, "--out", tmp / "o"],
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


def _one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {start}") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["data.csv", "split.csv", "enc.bin", "emb.csv", "forest.csv",
                                  "results.csv", "experiment.cfg"])
def test_missing_or_directory_input_exits_one(artifacts, tmp_path, capsys, kind):
    missing = tmp_path / f"missing_{kind}"
    capsys.readouterr()
    assert run(_command(kind, artifacts, missing, tmp_path)) == 1
    _one_error_line(capsys, f"no such file: {missing}\n")
    folder = tmp_path / f"dir_{kind}"
    folder.mkdir()
    assert run(_command(kind, artifacts, folder, tmp_path)) == 1
    _one_error_line(capsys, f"cannot read {folder}: ")
    assert not (tmp_path / "o").exists()


# Each stage command with valid inputs, all its arguments but --out.
BAD_OUTPUTS = {
    "gen": lambda f: ["gen"],
    "split": lambda f: ["split", "--data", f["data.csv"], "--s-frac", 0.1, "--u-frac", 0.6,
                        "--t-frac", 0.3],
    "train": lambda f: ["train", "--data", f["data.csv"], "--split", f["split.csv"],
                        "--mode", "simclr", "--epochs", 1, "--batch-size", 8],
    "extract": lambda f: ["extract", "--data", f["data.csv"], "--checkpoint", f["enc.bin"]],
    "project": lambda f: ["project", "--features", f["feats.bin"], "--perplexity", 5,
                          "--iterations", 30],
    "propagate": lambda f: ["propagate", "--embedding", f["emb.csv"], "--data", f["data.csv"],
                            "--split", f["split.csv"]],
}


@pytest.mark.parametrize("command", sorted(BAD_OUTPUTS))
def test_directory_output_exits_one(artifacts, tmp_path, capsys, command):
    capsys.readouterr()
    assert run(BAD_OUTPUTS[command](artifacts) + ["--out", tmp_path]) == 1
    _one_error_line(capsys, f"cannot write {tmp_path}: ")


@pytest.mark.parametrize("command, name", [("gen", "x.txt"), ("train", "c.bin")])
def test_output_in_a_missing_directory_exits_one(artifacts, tmp_path, capsys, command, name):
    out = tmp_path / "missing" / name
    capsys.readouterr()
    assert run(BAD_OUTPUTS[command](artifacts) + ["--out", out]) == 1
    _one_error_line(capsys, f"cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["experiment", "report"])
def test_file_as_output_directory_exits_one(artifacts, capsys, command):
    results = artifacts["results.csv"]
    before = results.read_bytes()
    args = ["experiment", "c1"] if command == "experiment" else ["report", "--results", results]
    capsys.readouterr()
    assert run(args + ["--out", results]) == 1
    _one_error_line(capsys, f"cannot make directory {results}: ")
    assert results.read_bytes() == before


class TestExperimentCommand:
    @pytest.mark.parametrize("section,key,value", [
        ("probe", "softmax_batch", 0),
        ("probe", "softmax_hidden", 0),
        ("probe", "linear_epochs", -1),
        ("probe", "knn_k", 0),
        ("contrastive", "batch_size", 1),
        ("contrastive", "epochs", -3),
        ("projection", "iterations", 0),
        ("projection", "perplexity", "nan"),
        ("projection", "learning_rate", "inf"),
        ("projection", "early_exaggeration", "inf"),
        ("projection", "momentum_start", -0.5),
        ("projection", "momentum_final", "nan"),
        ("projection", "entropy_tolerance", -1),
        ("projection", "entropy_tolerance", "nan"),
        ("projection", "entropy_tolerance", "inf"),
        ("projection", "exaggeration_iters", -1),
        ("projection", "momentum_switch", -1),
        ("contrastive", "temperature", "nan"),
        ("contrastive", "temperature", "inf"),
        ("contrastive", "learning_rate", "nan"),
        ("contrastive", "learning_rate", 0),
        ("contrastive", "weight_decay", "nan"),
        ("contrastive", "weight_decay", -1),
        ("contrastive", "noise", -1),
        ("contrastive", "noise", "inf"),
        ("contrastive", "dropout", 1.5),
        ("contrastive", "dropout", 1),
        ("contrastive", "validation_fraction", "nan"),
        ("probe", "softmax_learning_rate", "nan"),
        ("probe", "softmax_learning_rate", 0),
        ("probe", "softmax_momentum", "nan"),
        ("probe", "softmax_momentum", -0.5),
        ("probe", "linear_lambda", "nan"),
        ("probe", "linear_lambda", "inf"),
        ("probe", "linear_lambda", -1),
        ("probe", "linear_lambda", 1e6),
        ("split", "s_frac", "nan"),
        ("split", "t_frac", "inf"),
        ("run", "seed", -2),
        ("dataset", "seed", -1),
        ("run", "modes", "simclr simclr"),
    ])
    def test_config_every_arm_rejects_exits_one_before_any_arm(self, tmp_path, capsys,
                                                               section, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_tiny_cfg(tmp_path).read_text() + f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert run(["experiment", "all", "--config", cfg, "--replicas", 1, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_nan_perplexity_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_tiny_cfg(tmp_path).read_text() + "[projection]\nperplexity = nan\n")
        assert run(["experiment", "all", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "perplexity must be a number, got NaN" in capsys.readouterr().err

    def test_config_error_exits_one(self, tmp_path, capsys):
        assert run(["experiment", "c1", "--config", tmp_path / "missing.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, extra", [
        ("dataset", "source", ""),
        ("contrastive", "warm_start_checkpoint", "init = warm_start\n"),
    ])
    def test_missing_input_file_exits_one_before_the_out_directory(self, tmp_path, capsys,
                                                                  section, key, extra):
        missing = tmp_path / "missing.bin"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{_tiny_cfg(tmp_path).read_text()}[{section}]\n{extra}{key} = {missing}\n")
        out = tmp_path / "o"
        assert run(["experiment", "all", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not out.exists()

    def test_split_no_replica_can_make_exits_one_before_the_out_directory(self, tmp_path,
                                                                          capsys):
        # 4 classes of 20 at 1% supervision: a budget of 1, whatever the seed.
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[dataset]\nper_class = 20\n")
        out = tmp_path / "o"
        assert run(["experiment", "c2", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == "error: supervised budget 1 cannot cover 4 classes\n"
        assert not out.exists()

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

    def test_infinite_center_dist_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(_tiny_cfg(tmp_path).read_text() + "[dataset]\ncenter_dist = inf\n")
        assert run(["experiment", "c1", "--config", cfg, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "center_dist" in err
        assert not (tmp_path / "o").exists()

    def test_mode_both_runs_two_arms(self, tmp_path):
        out = tmp_path / "both"
        assert run(["experiment", "c2", "--out", out, "--replicas", 1,
                    "--seed", 3, "--mode", "both", "--config",
                    _tiny_cfg(tmp_path)]) == 0
        rows = read_results_csv(out / "results.csv")
        assert {r.experiment for r in rows} == {"C2a", "C2b"}


    def test_an_interrupt_is_one_line_and_exit_code_130(self, tmp_path, capsys, monkeypatch):
        # KeyboardInterrupt, which Python's SIGINT handler raises, in the first
        # arm of the first wave: the arm that runs in this process.
        real_rows = epl.pipeline._FAMILY_ROWS["c2"]

        def rows(state, r, arm):
            if arm.encoder == "simclr":
                raise KeyboardInterrupt
            yield from real_rows(state, r, arm)

        monkeypatch.setitem(epl.pipeline._FAMILY_ROWS, "c2", rows)
        out = tmp_path / "o"
        assert run(["experiment", "c2", "--config", _tiny_cfg(tmp_path), "--replicas", 1,
                    "--mode", "both", "--out", out]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert "status = interrupted" in (out / "manifest.txt").read_text().splitlines()
        assert read_results_csv(out / "results.csv") == []

    def test_c1_on_a_finite_extreme_feature_records_arm_errors(self, tmp_path):
        data = generate_blobs(3, 40, 5, 0.5, 10.0, seed=2)
        split = stratified_split(data, 0.06, 0.64, 0.30, seed=3)
        feats = data.features.copy()
        feats[split.supervised[0], 1] = 1e200
        source = tmp_path / "extreme.bin"
        save_features(Dataset(feats, data.labels, 3, "source"), source, "binary")
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
