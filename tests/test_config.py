from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epl.config import (VALID_MODES, ConfigError, ExperimentConfig,
                        config_from_sections, format_config, load_config,
                        parse_config_text)
from epl.contrastive import TrainConfig
from epl.probe import SoftmaxConfig
from epl.projection import ProjectionConfig

DEMO_CFG = Path(__file__).resolve().parents[1] / "demos" / "experiment.cfg"

# The config echo written into every run manifest, for the default config.
DEFAULT_ECHO = "\n".join([
    "[dataset]", "source = blobs", "classes = 4", "per_class = 200", "dims = 16",
    "spread = 0.5", "center_dist = 10.0", "seed = 1", "name = ", "",
    "[split]", "s_frac = 0.01", "u_frac = 0.69", "t_frac = 0.3", "",
    "[run]", "seed = 7", "replicas = 3", "modes = simclr supcon combined", "out = out", "",
    "[contrastive]", "init = scratch", "warm_start_checkpoint = ", "epochs = 50",
    "batch_size = 64", "temperature = 0.07", "learning_rate = 0.0005",
    "weight_decay = 0.0001", "validation_fraction = 0.1", "noise = 0.1",
    "dropout = 0.1", "",
    "[projection]", "perplexity = 30.0", "iterations = 1000", "learning_rate = 200.0",
    "early_exaggeration = 12.0", "exaggeration_iters = 250", "momentum_start = 0.5",
    "momentum_final = 0.8", "momentum_switch = 250", "entropy_tolerance = 1e-05", "",
    "[probe]", "linear_lambda = 1.0", "linear_epochs = 200", "softmax_epochs = 15",
    "softmax_learning_rate = 0.1", "softmax_momentum = 0.9", "softmax_hidden = 64",
    "softmax_batch = 32", "knn_k = 10", "",
])


def echo(cfg: ExperimentConfig) -> str:
    return format_config(cfg.to_sections())


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_stage_configs_default_to_their_own_defaults(seed):
    cfg = ExperimentConfig()
    assert cfg.train_config(seed) == TrainConfig(seed=seed)
    assert cfg.projection_config(seed) == ProjectionConfig(seed=seed)
    assert cfg.softmax_config(seed) == SoftmaxConfig(seed=seed)


class TestEcho:
    def test_default_config_golden(self):
        assert echo(ExperimentConfig()) == DEFAULT_ECHO

    def test_demo_config_golden(self):
        assert echo(load_config(DEMO_CFG)) == DEFAULT_ECHO

    def test_demo_config_is_the_defaults(self):
        assert load_config(DEMO_CFG) == ExperimentConfig()


def _plain_text(text: str) -> bool:
    """Survives a config line: no surrounding blanks, no comment marker."""
    if text != text.strip() or text.startswith("#"):
        return False
    return not any(a.isspace() and b == "#" for a, b in zip(text, text[1:]))


_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                max_size=12).filter(_plain_text)
_FIELD_VALUES = {
    int: st.integers(-10**12, 10**12),
    float: st.floats(allow_nan=False),
    str: _TEXT,
    tuple: st.lists(st.sampled_from(VALID_MODES), max_size=4).map(tuple),
}


@st.composite
def configs(draw):
    cfg = ExperimentConfig()
    for f in fields(ExperimentConfig):
        setattr(cfg, f.name, draw(_FIELD_VALUES[type(getattr(cfg, f.name))]))
    return cfg


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_echo_parses_back_to_the_same_config(self, cfg):
        assert config_from_sections(parse_config_text(echo(cfg))) == cfg

    def test_modes_accept_commas(self):
        cfg = config_from_sections(parse_config_text("[run]\nmodes = supcon,simclr\n"))
        assert cfg.modes == ("supcon", "simclr")


class TestComments:
    def test_hash_inside_a_value_is_kept(self):
        cfg = config_from_sections(parse_config_text("[run]\nout = res#1\n"))
        assert cfg.out_dir == "res#1"

    def test_hash_after_whitespace_starts_a_comment(self):
        text = "# header\n[run]  # trailing\nout = res #1\n  # indented\nseed = 3\t# tab\n"
        cfg = config_from_sections(parse_config_text(text))
        assert (cfg.out_dir, cfg.base_seed) == ("res", 3)


class TestErrors:
    @pytest.mark.parametrize("text, match", [
        ("[run]\nbogus = 1\n", "unknown config key"),
        ("[run]\nseed = seven\n", r"\[run\] seed"),
        ("seed = 7\n", "outside any"),
        ("[run]\nseed\n", "expected 'key = value'"),
    ])
    def test_bad_text_is_a_config_error(self, text, match):
        with pytest.raises(ConfigError, match=match):
            config_from_sections(parse_config_text(text))

    @pytest.mark.parametrize("section, key, value", [
        ("contrastive", "supcon_batch_rule", "paired-views"),
        ("projection", "init", "random-gaussian"),
    ])
    def test_former_echo_only_keys_are_unknown(self, section, key, value):
        # They configured nothing; their one accepted value now fails like any typo.
        with pytest.raises(ConfigError, match=rf"unknown config key \[{section}\] {key}"):
            config_from_sections(parse_config_text(f"[{section}]\n{key} = {value}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config file"):
            load_config(tmp_path / "absent.cfg")
