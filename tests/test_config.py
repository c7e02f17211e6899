"""Config parsing, precedence, rendering, and dataclass builders."""

import os

import numpy as np
import pytest

from dicegrad import config
from dicegrad.errors import ConfigError
from dicegrad.sampling import PatchDataset, sample_balanced_batch
from dicegrad.tensor_core import Rng
from dicegrad.volume_io import LabeledVolume


def test_defaults_cover_schema():
    cfg = config.resolve()
    assert set(cfg) == set(config.SCHEMA)
    assert cfg["model.patch_size"] == 64
    assert cfg["loss.kind"] == "bsd"
    assert cfg["train.steps"] == 2000
    assert cfg["compare.seeds"] == (0, 1, 2)


def test_file_then_set_precedence():
    text = "train.steps = 50\nmodel.depth = 1\n"
    cfg = config.resolve(text, ["train.steps=75"])
    assert cfg["train.steps"] == 75          # --set beats the file
    assert cfg["model.depth"] == 1           # file beats the default
    assert cfg["model.base_channels"] == 16  # untouched default


def test_comments_and_blank_lines():
    text = "# a comment\n\ntrain.steps = 9   # trailing comment\n"
    assert config.resolve(text)["train.steps"] == 9


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        config.resolve("train.stepz = 9\n")
    with pytest.raises(ConfigError, match="unknown key"):
        config.resolve(None, ["no.such.key=1"])
    with pytest.raises(ConfigError, match="duplicate"):
        config.resolve("train.steps = 1\ntrain.steps = 2\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        config.resolve("what is this\n")
    with pytest.raises(ConfigError, match="bad value"):
        config.resolve("train.steps = soon\n")
    with pytest.raises(ConfigError, match="key=value"):
        config.resolve(None, ["oops"])


def test_bool_spellings():
    for raw, want in [("true", True), ("Yes", True), ("1", True), ("on", True),
                      ("false", False), ("No", False), ("0", False), ("off", False)]:
        assert config.resolve(None, [f"sampler.augment={raw}"])["sampler.augment"] is want
    with pytest.raises(ConfigError):
        config.resolve(None, ["sampler.augment=maybe"])


def test_list_values():
    cfg = config.resolve(None, ["compare.losses=ce,bsd", "compare.seeds=4,5"])
    assert cfg["compare.losses"] == ("ce", "bsd")
    assert cfg["compare.seeds"] == (4, 5)


def test_render_round_trips():
    cfg = config.resolve(None, ["train.learning_rate=3e-4", "loss.kind=sd",
                                "sampler.augment=false", "compare.seeds=7,8,9"])
    text = config.render(cfg)
    again = config.resolve(text)
    assert again == cfg
    # render is stable: rendering the reparse gives identical text
    assert config.render(again) == text


def test_builders_wire_shared_keys():
    cfg = config.resolve(None, ["model.patch_size=32", "model.num_labels=5",
                                "sampler.batch_size=4"])
    sc = config.sampler_config(cfg)
    assert sc.patch_size == 32               # sampler inherits the model patch
    assert sc.batch_size == 4
    # the label count comes from the dataset built with model.num_labels
    labels = np.arange(2 * 32 * 32).reshape(2, 32, 32) % 5
    vol = LabeledVolume(np.zeros(labels.shape), labels, (1.0, 1.0, 1.0))
    ds = PatchDataset([("c", vol)], cfg["model.num_labels"])
    assert sample_balanced_batch(ds, sc, Rng(0)).onehot.shape[1] == ds.num_labels == 5
    mc = config.model_config(cfg)
    assert mc.patch_size == 32
    tc = config.train_config(cfg)
    assert tc.sampler == sc
    assert tc.loss == config.loss_config(cfg)
    ps = config.phantom_spec(cfg)
    assert ps.spacing_mm == (1.2, 1.0, 1.0)
    cc = config.compare_config(cfg)
    assert cc.losses == ("ce", "wce", "sd", "bsd")


def test_builder_validation_propagates():
    cfg = config.resolve(None, ["model.patch_size=30"])   # not divisible by 4
    with pytest.raises(Exception):
        config.model_config(cfg)


def test_readme_lists_every_key_with_its_default():
    # the README's "Configuration keys (defaults)" block, parsed with each
    # key's own parser, must be exactly the resolved defaults
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("### Configuration keys (defaults)", 1)[1]
    block = block.split("```", 2)[1]
    listed = {}
    for line in block.splitlines():
        for pair in line.split("#", 1)[0].split():
            key, value = pair.split("=", 1)
            assert key not in listed, f"{key} listed twice"
            listed[key] = config.SCHEMA[key][0](value)
    assert listed == config.resolve()
