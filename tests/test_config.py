"""Config parsing, defaults resolution, and strictness."""

import json
import re
from dataclasses import asdict, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gancomm import config
from gancomm.channel import EBN0_DB_LIMIT
from gancomm.config import ConfigError, TrainConfig
from gancomm.evaluate import SweepSpec
from helpers import save_config


class TestDefaults:
    def test_operating_point(self):
        cfg = TrainConfig()
        assert (cfg.k, cfg.n, cfg.n_pilot) == (4, 7, 1)
        assert cfg.M == 16
        assert cfg.channel == "awgn"
        assert not cfg.is_fading
        assert cfg.tx_hidden == (32, 32)
        assert cfg.gen_hidden == (96, 96, 96)
        assert cfg.disc_hidden == (32, 32, 32)
        assert cfg.batch_size == 320

    def test_train_snr_resolves_per_channel(self):
        assert TrainConfig().train_ebn0_db == 4.0
        assert TrainConfig(channel="rayleigh").train_ebn0_db == 10.0
        assert TrainConfig(train_ebn0_db=7.5).train_ebn0_db == 7.5

    def test_gan_steps_resolve_per_channel(self):
        assert TrainConfig().gan_steps == 10
        assert TrainConfig(channel="rayleigh").gan_steps == 20
        assert TrainConfig(channel="rayleigh", gan_steps=7).gan_steps == 7
        assert TrainConfig.from_dict({"gan_steps": None}).gan_steps == 10
        assert TrainConfig().warmup_gan_steps == 100
        assert TrainConfig(channel="rayleigh").warmup_gan_steps == 200

    def test_warmup_defaults_to_ten_gan_phases(self):
        assert TrainConfig().warmup_gan_steps == 10 * TrainConfig().gan_steps
        assert TrainConfig(gan_steps=3).warmup_gan_steps == 30
        assert TrainConfig(warmup_gan_steps=0).warmup_gan_steps == 0

    def test_discriminator_lr_defaults_to_four_times_generator(self):
        cfg = TrainConfig(lr_gan=0.0002)
        assert cfg.lr_disc == pytest.approx(0.0008)
        assert TrainConfig(lr_disc=0.01).lr_disc == 0.01

    def test_hidden_layers_coerced_to_int_tuples(self):
        cfg = TrainConfig(tx_hidden=[16, 8])
        assert cfg.tx_hidden == (16, 8)
        assert isinstance(cfg.tx_hidden[0], int)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"channel": "rician"},
            {"k": 0},
            {"n": 0},
            {"n_pilot": 0},
            {"batch_size": 0},
            {"lr_transceiver": 0.0},
            {"lr_gan": -1e-4},
            {"lr_gan": float("inf")},
            {"lr_transceiver": float("inf")},
            {"lr_disc": float("inf")},
            {"gan_beta1": 1.0},
            {"ema_decay": 1.0},
            {"outer_iterations": 0},
            {"rx_steps": -1},
            {"seed": -1},
            {"z_dim": 0},
            {"tx_hidden": ()},
            {"gen_hidden": (128, 0)},
            {"warmup_gan_steps": -1},
            {"final_rx_steps": -1},
            {"d_updates": 0},
            {"train_ebn0_db": float("nan")},
            {"train_ebn0_db": 5000.0},
            {"train_ebn0_db": -300.5},
        ],
    )
    def test_out_of_range_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_error_names_the_field(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=-5)


class TestDictRoundTrip:
    def test_to_dict_from_dict_identity(self):
        cfg = TrainConfig(channel="rayleigh", lr_gan=0.0003, tx_hidden=(48, 24))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": 0.01})

    def test_partial_dict_takes_defaults(self):
        cfg = TrainConfig.from_dict({"k": 2, "n": 3})
        assert (cfg.k, cfg.n) == (2, 3)
        assert cfg.batch_size == 320

    def test_null_means_unset(self):
        cfg = TrainConfig.from_dict({"train_ebn0_db": None, "channel": "rayleigh"})
        assert cfg.train_ebn0_db == 10.0

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig.from_dict({"seed": True})

    def test_string_where_number_expected(self):
        with pytest.raises(ConfigError, match="lr_gan"):
            TrainConfig.from_dict({"lr_gan": "fast"})

    def test_infinite_float_names_the_key(self):
        with pytest.raises(ConfigError, match="lr_gan"):
            TrainConfig.from_dict({"lr_gan": float("inf")})

    def test_hidden_must_be_integer_list(self):
        with pytest.raises(ConfigError, match="rx_hidden"):
            TrainConfig.from_dict({"rx_hidden": [32, "32"]})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            TrainConfig.from_dict([1, 2, 3])


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        cfg = TrainConfig(channel="rayleigh", seed=9, gan_steps=5)
        path = tmp_path / "run.json"
        save_config(cfg, str(path))
        assert config.load_config(str(path)) == cfg

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "run.json"
        save_config(TrainConfig(), str(path))
        data = json.loads(path.read_text())
        assert data["k"] == 4
        assert data["tx_hidden"] == [32, 32]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_literal_names_the_file_and_key(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"k": 4, "lr_gan": {literal}}}')
        where = re.escape(f"config {path}: lr_gan: {literal} ")
        with pytest.raises(ConfigError, match=f"^{where}is not standard JSON"):
            config.load_config(str(path))

    def test_duplicate_key_names_the_file_and_key(self, tmp_path):
        # json keeps the last of two values, so seed 2 would train silently
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "k": 4, "seed": 2}')
        where = re.escape(f"config {path}: seed: ")
        with pytest.raises(ConfigError, match=f"^{where}duplicate key$"):
            config.load_config(str(path))

    @pytest.mark.parametrize("text, where", [
        ('{"ebn0_db": [0.0, [1.0, NaN]]}', "ebn0_db: NaN"),
        ('{"a": {"b": [Infinity]}, "c": 1}', "b: Infinity"),
        ('{"a": [-Infinity, {"b": 1}]}', "a: -Infinity"),
        ("[1.0, NaN]", "NaN"),
        ("-Infinity", "-Infinity"),
    ])
    def test_literal_anywhere_is_refused(self, tmp_path, text, where):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"spec {path}: {where} is not")):
            config.read_json(str(path), "spec")

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config.load_config(str(tmp_path / "absent.json"))

    def test_malformed_json_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{k: 4")
        with pytest.raises(ConfigError, match="malformed"):
            config.load_config(str(path))


ebn0 = st.floats(-EBN0_DB_LIMIT, EBN0_DB_LIMIT)
learning_rate = st.floats(0.0, 1.0, exclude_min=True)
unit_interval = st.floats(0.0, 1.0, exclude_max=True)
widths = st.lists(st.integers(1, 512), min_size=1, max_size=4).map(tuple)

train_configs = st.builds(
    TrainConfig,
    k=st.integers(1, 16), n=st.integers(1, 64), n_pilot=st.integers(1, 8),
    channel=st.sampled_from(config.CHANNELS),
    train_ebn0_db=st.none() | ebn0,
    batch_size=st.integers(min_value=1),
    lr_transceiver=learning_rate, lr_gan=learning_rate,
    lr_disc=st.none() | learning_rate,
    gan_beta1=unit_interval, ema_decay=unit_interval,
    outer_iterations=st.integers(min_value=1),
    rx_steps=st.integers(min_value=0), tx_steps=st.integers(min_value=0),
    gan_steps=st.integers(min_value=0),
    warmup_gan_steps=st.none() | st.integers(min_value=0),
    final_rx_steps=st.integers(min_value=0), seed=st.integers(min_value=0),
    z_dim=st.integers(1, 64),
    tx_hidden=widths, rx_hidden=widths, gen_hidden=widths, disc_hidden=widths,
    d_updates=st.integers(1, 8),
)

sweep_specs = st.builds(
    lambda grid, low, extra, errors: SweepSpec(grid, low, low + extra, errors),
    st.lists(ebn0, min_size=1, max_size=8).map(tuple),
    st.integers(1, 10**9), st.integers(0, 10**9), st.integers(min_value=1),
)

# one JSON value of the wrong type per field annotation: a bool for an
# integer, a string for a number, a number for a string, strings in a list
WRONG_TYPE = {
    "int": True, "int | None": True, "float": "4", "float | None": "4",
    "str": 4, "tuple[int, ...]": ["8"], "tuple[float, ...]": ["4"],
}


class TestSharedParser:
    @given(x=st.one_of(train_configs, sweep_specs))
    def test_json_round_trip_is_the_identity(self, x):
        data = json.loads(json.dumps(asdict(x)))
        assert config.from_dict(type(x), data) == x

    @given(x=st.one_of(train_configs, sweep_specs), data=st.data())
    def test_wrong_typed_value_names_its_field(self, x, data):
        field = data.draw(st.sampled_from(fields(x)))
        doc = json.loads(json.dumps(asdict(x)))
        doc[field.name] = WRONG_TYPE[field.type]
        with pytest.raises(ConfigError, match=f"^{field.name}: "):
            config.from_dict(type(x), doc)
