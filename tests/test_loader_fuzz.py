"""Fuzzing of every loader and the subcommand that reads its file.

Valid split, embedding, forest, results, text-dataset and config files are
mutated line by line: a line dropped, duplicated or swapped, a comma added
or removed, a field replaced with junk, nan or inf, the file truncated.
Encoder checkpoints are mutated byte by byte, mostly in the header and the
shape table. The float64 feature blocks of binary datasets are mutated byte
by byte and projected. Each loader must return an object or raise its
module's typed error, and the matching ``epl`` subcommand must exit 0 or 1
rather than end in a traceback or a numpy warning.
"""

import importlib
import inspect
import pkgutil
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epl
from epl import cli
from epl.checkpoint import CheckpointError
from epl.config import ConfigError, ExperimentConfig, format_config, load_config
from epl.contrastive import ContrastiveError, EncoderParams
from epl.dataset import DatasetError, EplError, SplitError, load_features, load_split
from epl.opf import OpfError, OptimumPathForest
from epl.pipeline import (PipelineError, ResultRow, read_embedding_csv,
                          read_results_csv, write_embedding_csv, write_results_csv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    path = {name: tmp / name for name in
            ("data.csv", "split.csv", "emb.csv", "forest.csv", "results.csv", "exp.cfg",
             "enc.bin")}
    assert cli.main(["gen", "--classes", "3", "--per-class", "8", "--dims", "3",
                     "--seed", "4", "--out", str(path["data.csv"])]) == 0
    assert cli.main(["split", "--data", str(path["data.csv"]), "--s-frac", "0.2",
                     "--u-frac", "0.5", "--t-frac", "0.3", "--out", str(path["split.csv"])]) == 0
    split = load_split(path["split.csv"])
    rows = np.flatnonzero(split.roles != 2)
    write_embedding_csv(path["emb.csv"], rows,
                        np.random.default_rng(0).normal(size=(rows.size, 2)))
    assert cli.main(["propagate", "--embedding", str(path["emb.csv"]),
                     "--data", str(path["data.csv"]), "--split", str(path["split.csv"]),
                     "--out", str(path["forest.csv"])]) == 0
    write_results_csv([ResultRow("d,s", "C2a", "propagation", 7, 0.5, 0.25, 0.75),
                       ResultRow("d,s", "C3b", "softmax", 7, 0.625, 0.5)],
                      path["results.csv"])
    path["exp.cfg"].write_text(format_config(ExperimentConfig(per_class=8).to_sections()))
    assert cli.main(["train", "--data", str(path["data.csv"]), "--split", str(path["split.csv"]),
                     "--mode", "simclr", "--epochs", "1", "--batch-size", "8",
                     "--out", str(path["enc.bin"])]) == 0
    return path


# kind: (valid file, loader, its typed error, the subcommand that reads it as BAD;
# DATA and SPLIT are the valid dataset and split, OUT a scratch directory)
CASES = {
    "split": ("split.csv", load_split, SplitError,
              ["probe", "--data", "DATA", "--split", "BAD", "--kind", "linear"]),
    "embedding": ("emb.csv", read_embedding_csv, PipelineError,
                  ["propagate", "--embedding", "BAD", "--data", "DATA",
                   "--split", "SPLIT", "--out", "OUT/forest.csv"]),
    "forest": ("forest.csv", OptimumPathForest.from_csv, OpfError,
               ["probe", "--data", "DATA", "--split", "SPLIT",
                "--kind", "softmax", "--pseudo", "BAD"]),
    "results": ("results.csv", read_results_csv, PipelineError,
                ["report", "--results", "BAD", "--out", "OUT/report"]),
    "dataset": ("data.csv", load_features, DatasetError,
                ["split", "--data", "BAD", "--out", "OUT/split.csv"]),
    "config": ("exp.cfg", load_config, ConfigError,
               ["experiment", "c1", "--config", "BAD", "--out", "OUT/run"]),
}

JUNK = st.sampled_from(["", " ", "\t", "junk", "é", "#", "x=y", "S", "nan", "inf", "-inf",
                        "1e999", "-1", "0.5", "7", "99999999999999999999"])


def mutated(data, text: str) -> str:
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["replace_field"] * 3 + [
            "drop", "duplicate", "swap", "add_comma", "remove_comma", "truncate"]))
        if op == "truncate":
            out = "\n".join(lines) + "\n"
            return out[:data.draw(st.integers(0, len(out)))]
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "add_comma":
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "," + lines[i][at:]
        elif op == "remove_comma":
            commas = [m.start() for m in re.finditer(",", lines[i])]
            if commas:
                at = data.draw(st.sampled_from(commas))
                lines[i] = lines[i][:at] + lines[i][at + 1:]
        else:
            # fields of CSV rows, of '# key=value' headers and of 'key = value' lines
            parts = re.split(r"([,=\s]+)", lines[i])
            at = 2 * data.draw(st.integers(0, len(parts) // 2))
            parts[at] = data.draw(JUNK)
            lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def _validated_run(kind, cfg):
    """Stands in for run_experiment: a mutated config may ask for a full-size
    run, and loading and checking it is what is under test."""
    cfg.validate()
    return [], 0


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_typed_error(files, tmp_path_factory, kind, data):
    name, loader, error, argv = CASES[kind]
    out = tmp_path_factory.mktemp(kind)
    bad = out / name
    bad.write_bytes(mutated(data, files[name].read_text()).encode())
    try:
        loader(bad)
    except error:
        pass
    paths = {"BAD": bad, "DATA": files["data.csv"], "SPLIT": files["split.csv"]}
    args = [str(paths.get(a, a)).replace("OUT", str(out)) for a in argv]
    with mock.patch.object(cli, "run_experiment", _validated_run):
        assert cli.main(args) in (0, 1)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_byte_mutated_checkpoint_loads_or_raises_typed_error(files, tmp_path_factory, data):
    blob = bytearray(files["enc.bin"].read_bytes())
    arrays = EncoderParams.load(files["enc.bin"]).arrays().values()
    table = len(blob) - 8 * sum(a.size for a in arrays)  # header and shape table
    # Most edits land in the header and shape table; some in the float data.
    spot = st.one_of(st.integers(0, table - 1), st.integers(0, table - 1),
                     st.integers(table, len(blob) - 1))
    for pos, value in data.draw(st.lists(st.tuples(spot, st.integers(0, 255)),
                                         min_size=1, max_size=4)):
        blob[pos] = value
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob))):]
    out = tmp_path_factory.mktemp("checkpoint")
    bad = out / "enc.bin"
    bad.write_bytes(bytes(blob))
    try:
        EncoderParams.load(bad)
    except (CheckpointError, ContrastiveError):
        pass
    assert cli.main(["extract", "--data", str(files["data.csv"]), "--checkpoint", str(bad),
                     "--out", str(out / "feats.bin")]) in (0, 1)


def _binary_features(magic: bytes) -> tuple[bytes, int]:
    """A 24-sample, d=3 labeled dataset file in the EPL1 or EPL2 layout, and
    the offset of its float64 feature block."""
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(3), 8)
    header = magic + (struct.pack("<IIBI", 24, 3, 1, 3) if magic == b"EPL2"
                      else struct.pack("<IIB", 24, 3, 1))
    return (header + rng.normal(size=(24, 3)).astype("<f8").tobytes()
            + labels.astype("<u4").tobytes()), len(header)


# A byte anywhere in the 72 floats, or the sign-and-exponent byte of one.
FEATURE_BYTE = st.one_of(st.integers(0, 72 * 8 - 1), st.integers(0, 71).map(lambda k: 8 * k + 7))


@settings(max_examples=300, deadline=None)
@given(magic=st.sampled_from([b"EPL1", b"EPL2"]),
       edits=st.lists(st.tuples(FEATURE_BYTE, st.integers(0, 255)), min_size=1, max_size=4))
def test_projection_of_byte_mutated_features_exits_zero_or_one(tmp_path_factory, magic,
                                                               edits):
    # Edits land in the float64 feature block: NaN, inf, extremes and
    # near-duplicate rows must end in an embedding or a typed error.
    blob, features_at = _binary_features(magic)
    blob = bytearray(blob)
    for pos, value in edits:
        blob[features_at + pos] = value
    tmp = tmp_path_factory.mktemp("features")
    data = tmp / "data.bin"
    data.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["project", "--features", str(data), "--iterations", "30",
                         "--perplexity", "3", "--out", str(tmp / "emb.csv")])
    assert code in (0, 1)


_TYPED_ERRORS = tuple(error.__name__ for error in EplError.__subclasses__())


def test_every_exception_class_in_epl_is_an_epl_error():
    # cli.main reports an EplError as exit code 1, so a module's own error
    # class outside the family would escape as a traceback.
    defined = []
    for info in pkgutil.iter_modules(epl.__path__):
        module = importlib.import_module(f"epl.{info.name}")
        defined += [obj for obj in vars(module).values()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert len(defined) == 11  # EplError and the ten module errors
    assert all(issubclass(error, EplError) for error in defined), defined
    assert set(EplError.__subclasses__()) == set(defined) - {EplError}


@settings(max_examples=150, deadline=None)
@given(magic=st.sampled_from([b"EPL1", b"EPL2"]),
       edits=st.lists(st.tuples(FEATURE_BYTE, st.integers(0, 255)), min_size=1, max_size=4))
def test_scored_run_on_byte_mutated_features_exits_cleanly(tmp_path_factory, magic, edits):
    # The same feature-block mutations through the commands that score them,
    # the latent probes (c1) and the softmax probe on raw and pseudo-labeled
    # inputs (c3): each run must end in rows, recorded arm errors or an error
    # line, each failure a typed error, with no numpy warning and no score
    # out of range.
    blob, features_at = _binary_features(magic)
    blob = bytearray(blob)
    for pos, value in edits:
        blob[features_at + pos] = value
    tmp = tmp_path_factory.mktemp("scored")
    data = tmp / "data.bin"
    data.write_bytes(bytes(blob))
    cfg = tmp / "run.cfg"
    cfg.write_text(f"[dataset]\nsource = {data}\n"
                   "[split]\ns_frac = 0.25\nu_frac = 0.375\nt_frac = 0.375\n"
                   "[run]\nreplicas = 1\nmodes = simclr supcon\n"
                   "[contrastive]\nepochs = 2\n"
                   "[projection]\nperplexity = 3\niterations = 30\n")
    for family in ("c1", "c3"):
        out = tmp / family
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["experiment", family, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2)
        assert not caught, [str(w.message) for w in caught]
        if code == 1:
            continue
        for row in read_results_csv(out / "results.csv"):
            assert 0.0 <= row.accuracy <= 1.0 and -1.0 <= row.kappa <= 1.0
        manifest = (out / "manifest.txt").read_text()
        section = manifest.split("\n[errors]\n", 1)[1].split("\n[digests]\n", 1)[0]
        errors = [line for line in section.splitlines() if line]
        assert (code == 2) == bool(errors)
        for line in errors:
            assert line.split(" = ", 1)[1].startswith(_TYPED_ERRORS), line
