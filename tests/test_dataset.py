import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import epl
from epl.config import ExperimentConfig
from epl.dataset import (Dataset, DatasetError, Role, SplitAssignment, SplitError,
                         generate_blobs, load_features, load_split, save_features,
                         save_split, stratified_split)
from epl.pipeline import RunState


def random_dataset(rng, n_classes=None, per_class=None, d=None):
    n_classes = n_classes or int(rng.integers(2, 5))
    per_class = per_class or int(rng.integers(5, 30))
    d = d or int(rng.integers(1, 6))
    feats = rng.normal(size=(n_classes * per_class, d))
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(feats, labels, n_classes, "random")


class TestIngestion:
    def test_parse_small_file_with_labels(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("# d=2 labels=1 k=2\n0.0,1.0,0\n1.5,2.5,1\n3.0,4.0,0\n5.0,6.0,1\n")
        ds = load_features(path)
        assert ds.sample_count == 4 and ds.dim == 2 and ds.class_count == 2
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert ds.features[1].tolist() == [1.5, 2.5]

    def test_nan_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# d=2 labels=0 k=0\n0.0,1.0\nNaN,2.0\n3.0,4.0\n")
        with pytest.raises(DatasetError, match="row 1, column 0"):
            load_features(path)

    def test_inconsistent_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# d=2 labels=0 k=0\n0.0,1.0\n1.0\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_features(path)

    def test_missing_file(self):
        with pytest.raises(DatasetError, match="no such file"):
            load_features("/nonexistent/nowhere.csv")

    def test_text_file_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.csv"
        save_features(generate_blobs(2, 3, 2, 1.0, 5.0, seed=1), path, "text")
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read_bytes(p))
        assert load_features(path).sample_count == 6
        assert reads == [path]

    def test_label_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("# d=2 labels=1 k=2\n0.0,1.0,0\n1.5,2.5,99999999999999999999\n")
        with pytest.raises(DatasetError, match="line 3: .*too large"):
            load_features(path)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_round_trip_100_random_datasets(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        for trial in range(100):
            ds = random_dataset(rng)
            path = tmp_path / f"ds_{fmt}_{trial}"
            save_features(ds, path, fmt)
            back = load_features(path)
            assert np.array_equal(back.features, ds.features)
            assert np.array_equal(back.labels, ds.labels)

    def test_class_count_survives_a_missing_class(self, tmp_path):
        # k = 3 but no sample of class 2: both formats keep k = 3
        ds = Dataset(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1], 3, "k3")
        for fmt in ("text", "binary"):
            path = tmp_path / f"k3.{fmt}"
            save_features(ds, path, fmt)
            assert load_features(path).class_count == 3
        assert (tmp_path / "k3.binary").read_bytes()[:4] == b"EPL2"

    def test_epl1_still_reads(self, tmp_path):
        feats = np.arange(8.0).reshape(4, 2)
        path = tmp_path / "old.bin"
        path.write_bytes(b"EPL1" + struct.pack("<IIB", 4, 2, 1) + feats.astype("<f8").tobytes()
                         + np.array([0, 2, 1, 2], dtype="<u4").tobytes())
        ds = load_features(path)  # sniffed format
        assert ds.class_count == 3  # EPL1 stores no count: max label + 1
        assert np.array_equal(ds.features, feats)
        assert ds.labels.tolist() == [0, 2, 1, 2]

    def test_class_count_above_sample_count_rejected(self):
        with pytest.raises(DatasetError, match="class count 5 exceeds 4 samples"):
            Dataset(np.zeros((4, 2)), [0, 1, 0, 1], 5, "k5")

    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(7, 3)), None, 0, "u")
        for fmt in ("text", "binary"):
            path = tmp_path / f"u.{fmt}"
            save_features(ds, path, fmt)
            back = load_features(path)  # sniffed format
            assert np.array_equal(back.features, ds.features)
            assert back.labels is None


class TestBlobs:
    def test_separated_blob_construction(self):
        ds = generate_blobs(2, 50, 2, 0.1, 10.0, seed=7)
        assert ds.sample_count == 100 and ds.class_count == 2
        centers = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        assert np.linalg.norm(centers[0] - centers[1]) >= 10.0 - 1.0

    def test_determinism(self):
        a = generate_blobs(3, 20, 4, 0.5, 8.0, seed=13)
        b = generate_blobs(3, 20, 4, 0.5, 8.0, seed=13)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_overlapping_blobs_confuse_nearest_neighbour(self):
        # 1-NN leave-one-out oracle on heavily overlapped classes
        ds = generate_blobs(3, 60, 2, 5.0, 1.0, seed=5)
        dist = cdist(ds.features, ds.features)
        np.fill_diagonal(dist, np.inf)
        nearest = ds.labels[np.argmin(dist, axis=1)]
        assert (nearest == ds.labels).mean() < 0.9

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            generate_blobs(1, 10, 2, 0.5, 5.0, seed=0)
        with pytest.raises(DatasetError):
            generate_blobs(2, 10, 2, -1.0, 5.0, seed=0)

    def test_finiteness_required(self):
        feats = np.ones((3, 2))
        feats[2, 1] = np.inf
        with pytest.raises(DatasetError, match="row 2, column 1"):
            Dataset(feats, None, 0, "inf")


class TestStratifiedSplit:
    def test_paper_scale_supervised_count(self):
        # 8 classes, 1668 samples: ceil(0.01 * 1668) = 17 supervised
        counts = [348, 80, 148, 122, 337, 375, 122, 136]
        assert sum(counts) == 1668
        labels = np.repeat(np.arange(8), counts)
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(1668, 4)), labels, 8, "paper")
        split = stratified_split(ds, 0.01, 0.69, 0.30, seed=1)
        assert split.supervised.size == 17
        assert split.supervised.size + split.unsupervised.size + split.test.size == 1668

    def test_balanced_300_counts(self):
        labels = np.repeat(np.arange(3), 100)
        ds = Dataset(np.random.default_rng(0).normal(size=(300, 2)), labels, 3, "balanced")
        split = stratified_split(ds, 0.01, 0.69, 0.30, seed=9)
        assert split.supervised.size == 3
        assert split.test.size == 90
        assert split.unsupervised.size == 207
        # one supervised sample per class
        assert sorted(ds.labels[split.supervised].tolist()) == [0, 1, 2]

    def test_determinism(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n_classes=4, per_class=25)
        a = stratified_split(ds, 0.05, 0.65, 0.30, seed=21)
        b = stratified_split(ds, 0.05, 0.65, 0.30, seed=21)
        assert np.array_equal(a.roles, b.roles)
        c = stratified_split(ds, 0.05, 0.65, 0.30, seed=22)
        assert not np.array_equal(a.roles, c.roles)

    def test_properties_over_200_random_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            counts = rng.integers(12, 60, k)
            labels = np.repeat(np.arange(k), counts)
            n = labels.size
            ds = Dataset(rng.normal(size=(n, 3)), labels, k, "random")
            split = stratified_split(ds, 0.05, 0.65, 0.30, int(rng.integers(0, 1 << 30)))
            roles = split.roles
            # roles partition all indices
            assert roles.size == n
            assert np.isin(roles, [0, 1, 2]).all()
            # every class supervised at least once, present in every part
            for c in range(k):
                mask = ds.labels == c
                for role in Role:
                    assert (roles[mask] == int(role)).sum() >= 1
            # stratification bound per class and part
            for role in Role:
                part = np.flatnonzero(roles == int(role))
                for c in range(k):
                    part_frac = (ds.labels[part] == c).mean()
                    global_frac = (ds.labels == c).mean()
                    assert abs(part_frac - global_frac) <= 1.0 / part.size + 1.0 / n

    def test_replicas_use_consecutive_seeds(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_classes=3, per_class=30)
        cfg = ExperimentConfig(s_frac=0.05, u_frac=0.65, t_frac=0.30, base_seed=100)
        state = RunState(cfg, ds, None, None)
        reps = [state.split(r) for r in range(3)]
        assert [r.seed for r in reps] == [100, 101, 102]
        single = stratified_split(ds, 0.05, 0.65, 0.30, seed=101)
        assert np.array_equal(reps[1].roles, single.roles)

    def test_class_too_small(self):
        labels = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)), labels, 2, "small")
        with pytest.raises(SplitError, match="at least 3"):
            stratified_split(ds, 0.1, 0.6, 0.30, seed=0)

    def test_unlabeled_dataset_rejected(self):
        ds = Dataset(np.zeros((10, 2)), None, 0, "unlabeled")
        with pytest.raises(SplitError):
            stratified_split(ds, 0.1, 0.6, 0.3, seed=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_fraction_validation(self, seed):
        ds = Dataset(np.arange(60, dtype=float).reshape(30, 2),
                     np.repeat([0, 1, 2], 10), 3, "grid")
        with pytest.raises(SplitError):
            stratified_split(ds, 0.5, 0.5, 0.5, seed=seed)

    @pytest.mark.parametrize("fracs", [
        (float("nan"), 0.7, 0.3), (0.1, float("nan"), 0.3), (0.1, 0.6, float("nan")),
        (float("inf"), 0.7, 0.3), (0.1, -float("inf"), 0.3)])
    def test_non_finite_fractions_rejected(self, fracs):
        ds = random_dataset(np.random.default_rng(7), n_classes=3, per_class=20)
        with pytest.raises(SplitError, match="positive and finite"):
            stratified_split(ds, *fracs, seed=0)

    @given(st.lists(st.integers(0, 2), max_size=40), st.sets(st.sampled_from(list(Role))))
    def test_indices_of_several_roles_are_the_sorted_union(self, roles, chosen):
        split = SplitAssignment(np.array(roles, dtype=np.uint8), 0, (0.2, 0.5, 0.3))
        union = np.unique(np.concatenate(
            [np.empty(0, dtype=np.int64)] + [np.flatnonzero(split.roles == role)
                                             for role in chosen]))
        got = split.indices(*chosen)
        assert got.dtype == np.int64
        assert np.array_equal(got, union)

    def test_split_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n_classes=3, per_class=20)
        split = stratified_split(ds, 0.05, 0.65, 0.30, seed=17)
        path = tmp_path / "split.csv"
        save_split(split, path)
        back = load_split(path)
        assert np.array_equal(back.roles, split.roles)
        assert back.seed == split.seed
        assert back.fractions == pytest.approx(split.fractions)

    def test_split_file_keeps_numpy_fractions(self, tmp_path):
        split = SplitAssignment(np.array([0, 1, 2, 1]), 3, tuple(np.float64([0.25, 0.5, 0.25])))
        path = tmp_path / "split.csv"
        save_split(split, path)
        assert path.read_text().startswith("# seed=3 s_frac=0.25 u_frac=0.5 t_frac=0.25\n")
        assert load_split(path).fractions == (0.25, 0.5, 0.25)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), s_frac=st.floats(0.05, 0.45), t_frac=st.floats(0.05, 0.45))
    def test_every_saved_split_loads(self, tmp_path_factory, seed, s_frac, t_frac):
        ds = random_dataset(np.random.default_rng(3), n_classes=3, per_class=30)
        split = stratified_split(ds, s_frac, 1.0 - s_frac - t_frac, t_frac, seed=seed)
        path = tmp_path_factory.mktemp("split") / "split.csv"
        save_split(split, path)
        back = load_split(path)
        assert (back.seed, back.fractions) == (split.seed, split.fractions)
        assert np.array_equal(back.roles, split.roles)

    @pytest.mark.parametrize("head, named", [
        ("# junk=1", "no seed"),
        ("# seed=-5 s_frac=nan u_frac=-1 t_frac=inf", "seed must be at least 0, got -5"),
        ("# seed=1.5 s_frac=0.2 u_frac=0.5 t_frac=0.3", "seed='1.5'"),
        ("# seed=5 u_frac=0.5 t_frac=0.5", "no s_frac"),
        ("# seed=5 s_frac=nan u_frac=0.5 t_frac=0.5",
         "s_frac must be positive and finite, got nan"),
        ("# seed=5 s_frac=0.2 u_frac=-1 t_frac=inf",
         "u_frac must be positive and finite, got -1"),
        ("# seed=5 s_frac=0.2 u_frac=0.5 t_frac=inf",
         "t_frac must be positive and finite, got inf"),
        ("# seed=5 s_frac=0.2 u_frac=x t_frac=0.3", "u_frac='x'"),
        ("# seed=5 s_frac=0.2 u_frac=0.5", "no t_frac"),
        ("# seed=5 s_frac=0.2 u_frac=0.5 t_frac=0.4", "fractions must sum to 1"),
    ])
    def test_split_header_it_cannot_read_is_a_split_error_naming_the_value(self, tmp_path,
                                                                           head, named):
        path = tmp_path / "split.csv"
        path.write_text(f"{head}\nindex,role\n0,S\n1,U\n2,T\n")
        with pytest.raises(SplitError, match=re.escape(named)):
            load_split(path)


# Names that open, read, write, make or test files and directories.
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir", "exists"}


def _file_calls(path: Path) -> list[str]:
    """Where the module names one of ``_FILE_CALLS``, as file:line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)
        if name in _FILE_CALLS:
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_only_the_rule_book_touches_files():
    # Every other module reads, writes and makes directories through
    # read_file, write_file and make_dir, so a failure has one wording.
    modules = sorted(Path(epl.__file__).parent.glob("*.py"))
    assert "dataset.py" in [path.name for path in modules]
    assert _file_calls(Path(epl.__file__).parent / "dataset.py")
    found = [site for path in modules if path.name != "dataset.py"
             for site in _file_calls(path)]
    assert not found, found
