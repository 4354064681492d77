"""Checkpoint save/load: exact float round trips and dimension checks, and
the atomic writes every output file goes through."""

import builtins
import errno
import json
import os
import re

import numpy as np
import pytest

from gancomm import checkpoint, cli, config, evaluate, nn, train
from gancomm.config import ConfigError, TrainConfig
from helpers import assert_params_layout


def tiny_cfg(**overrides):
    base = dict(k=2, n=2, tx_hidden=(8,), rx_hidden=(8,),
                gen_hidden=(8,), disc_hidden=(8,), z_dim=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestNetRoundTrip:
    def test_parameters_survive_bit_for_bit(self, tmp_path):
        net = nn.DenseNet.create((3, 5, 2), np.random.default_rng(0))
        path = str(tmp_path / "net.json")
        checkpoint.save_net(net, path)
        again = checkpoint.load_net(path)
        assert np.array_equal(net.params, again.params)
        assert [l.activation for l in again.layers] == [
            l.activation for l in net.layers
        ]

    def test_extreme_float_values_round_trip(self, tmp_path):
        f32 = np.finfo(np.float32)
        net = nn.DenseNet.create((2, 2), np.random.default_rng(1))
        net.layers[0].w[...] = [[f32.tiny, -0.0], [1.0 / 3.0, f32.max]]
        net.layers[0].b[...] = [f32.smallest_subnormal, -1e16]
        path = str(tmp_path / "net.json")
        checkpoint.save_net(net, path)
        again = checkpoint.load_net(path)
        w = again.layers[0].w
        assert w.dtype == np.float32
        assert w[0, 0] == f32.tiny
        assert w[0, 1] == 0.0 and np.signbit(w[0, 1])
        assert w[1, 0] == np.float32(1.0 / 3.0)
        assert w[1, 1] == f32.max
        assert again.layers[0].b[0] == f32.smallest_subnormal
        assert again.params.tobytes() == net.params.tobytes()

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"layers": [{"activation": "relu", "w": [[1.0]], "b": [0.0], '
                        '"activation": "linear"}]}')
        where = re.escape(f"checkpoint file {path}: activation: ")
        with pytest.raises(ConfigError, match=f"^{where}duplicate key$"):
            checkpoint.load_net(str(path))

    def write_net(self, path, w, b):
        path.write_text(json.dumps({"layers": [{"activation": "linear", "w": w, "b": b}]}))

    def test_float64_checkpoint_loads_rounded_to_float32(self, tmp_path):
        path = tmp_path / "net.json"
        self.write_net(path, [[0.1, 1.0 / 3.0]], [-1e-3, 2.0])
        again = checkpoint.load_net(str(path))
        assert again.dtype == np.float32
        assert np.array_equal(again.layers[0].w, np.float32([[0.1, 1.0 / 3.0]]))
        assert np.array_equal(again.layers[0].b, np.float32([-1e-3, 2.0]))

    def test_value_beyond_the_float32_range_refused(self, tmp_path):
        # 1e308 is a finite float64 but rounds to Inf in float32
        path = tmp_path / "net.json"
        self.write_net(path, [[1e308, 0.5]], [0.0, 0.0])
        with pytest.raises(ConfigError, match="net.json"):
            checkpoint.load_net(str(path))

    def test_identical_nets_write_identical_bytes(self, tmp_path):
        net = nn.DenseNet.create((3, 4, 2), np.random.default_rng(2))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        checkpoint.save_net(net, a)
        checkpoint.save_net(net, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_temp_file_left_behind(self, tmp_path):
        net = nn.DenseNet.create((2, 2), np.random.default_rng(3))
        checkpoint.save_net(net, str(tmp_path / "net.json"))
        assert sorted(os.listdir(tmp_path)) == ["net.json"]

    @pytest.mark.parametrize("dims", [(2, 3, 2), (1, 4, 1), (1, 1), (3, 5)],
                             ids=["extremes", "one-row-then-one-column", "one-by-one",
                                  "one-layer"])
    def test_streamed_file_equals_the_one_string_dump(self, tmp_path, dims):
        f32 = np.finfo(np.float32)
        values = [-0.0, f32.tiny, f32.smallest_subnormal, f32.max, 1.0 / 3.0,
                  -f32.max, 0.0, -1e-16]
        net = nn.DenseNet.create(dims, np.random.default_rng(4))
        net.params[: len(values)] = values[: net.n_params]
        path = tmp_path / "net.json"
        checkpoint.save_net(net, str(path))
        want = json.dumps(
            {"layers": [{"activation": l.activation, "w": l.w.tolist(), "b": l.b.tolist()}
                        for l in net.layers]},
            sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        assert path.read_text() == want

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_refused_before_anything_is_written(self, tmp_path,
                                                                     value):
        net = nn.DenseNet.create((3, 4, 2), np.random.default_rng(5))
        net.layers[1].w[2, 1] = value
        path = tmp_path / "net.json"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            checkpoint.save_net(net, str(path))
        assert os.listdir(tmp_path) == []

    def test_refused_net_keeps_the_previous_file(self, tmp_path):
        net = nn.DenseNet.create((3, 4, 2), np.random.default_rng(6))
        path = tmp_path / "net.json"
        checkpoint.save_net(net, str(path))
        before = path.read_bytes()
        net.layers[0].b[0] = float("nan")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            checkpoint.save_net(net, str(path))
        assert os.listdir(tmp_path) == ["net.json"]
        assert path.read_bytes() == before

    def test_write_failing_mid_stream_leaves_no_temp_file(self, tmp_path, monkeypatch):
        net = nn.DenseNet.create((3, 4, 2), np.random.default_rng(7))
        path = tmp_path / "net.json"
        path.write_bytes(b"previous")
        encode, on_disk = checkpoint._ENCODER.encode, []

        def failing(value):
            # the fourth encoding, layer 0's second weight row, fails while the
            # temporary file is open and partly written
            if len(on_disk) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            on_disk.append(sorted(os.listdir(tmp_path)))
            return encode(value)

        monkeypatch.setattr(checkpoint._ENCODER, "encode", failing)
        with pytest.raises(OSError, match="No space left"):
            checkpoint.save_net(net, str(path))
        assert on_disk[-1] == ["net.json", "net.json.tmp"]
        assert os.listdir(tmp_path) == ["net.json"]
        assert path.read_bytes() == b"previous"

    @pytest.mark.parametrize("content", [None, b'{"layers": [', b"\xff{}"],
                             ids=["missing", "truncated", "not-utf8"])
    def test_unreadable_file_names_the_path(self, tmp_path, content):
        path = tmp_path / "net.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=str(path)):
            checkpoint.load_net(str(path))

    def test_malformed_layer_entry_rejected(self):
        with pytest.raises(ConfigError, match="malformed network"):
            checkpoint.net_from_dict({"layers": [{"activation": "relu", "b": [0.0]}]})

    @pytest.mark.parametrize("data", [
        {"layers": [{"activation": "relu", "w": [[0.0, 1.0], [0.0]], "b": [0.0, 0.0]}]},
        {"layers": [{"activation": "swish", "w": [[0.0]], "b": [0.0]}]},
        {"layers": []},
        {"layers": [{"activation": "relu", "w": [[0.0, 1.0]], "b": [0.0]}]},
        {"layers": 5},
    ], ids=["ragged-w", "unknown-activation", "no-layers", "w-b-mismatch",
            "layers-not-a-list"])
    def test_malformed_content_names_the_path(self, tmp_path, data):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="malformed network") as info:
            checkpoint.load_net(str(path))
        assert str(path) in str(info.value)


class TestSystemRoundTrip:
    def test_all_four_nets_and_config_survive(self, tmp_path):
        cfg = tiny_cfg(channel="rayleigh")
        tx, rx, g, d = train.build_system(cfg)
        checkpoint.save_system(str(tmp_path), cfg, tx, rx, g, d)
        cfg2, tx2, rx2, g2, d2 = checkpoint.load_system(str(tmp_path))
        assert cfg2 == cfg
        for before, after in ((tx.net, tx2.net), (rx.net, rx2.net),
                              (g.net, g2.net), (d.net, d2.net)):
            assert np.array_equal(before.params, after.params)
        assert rx2.net.input_dim == 2 * cfg.n + 2 * cfg.n_pilot
        assert g2.z_dim == cfg.z_dim

    @pytest.mark.parametrize("n_pilot", [1, 3])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_wrappers_read_their_sizes_off_the_nets(self, tmp_path, kind, n_pilot):
        cfg = tiny_cfg(k=3, n=5, channel=kind, n_pilot=n_pilot, z_dim=4)
        built = train.build_system(cfg)
        checkpoint.save_system(str(tmp_path), cfg, *built)
        _, *loaded = checkpoint.load_system(str(tmp_path))
        for tx, rx, g, _ in (built, loaded):
            assert tx.n == cfg.n
            assert tx.m_count == rx.net.output_dim == cfg.M
            assert g.z_dim == cfg.z_dim

    def test_loaded_nets_are_views_of_one_vector(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        _, *wrappers = checkpoint.load_system(str(tmp_path))
        for wrapper in wrappers:
            assert_params_layout(wrapper.net)

    def test_awgn_system_has_no_pilot_inputs(self, tmp_path):
        cfg = tiny_cfg()
        tx, rx, g, d = train.build_system(cfg)
        checkpoint.save_system(str(tmp_path), cfg, tx, rx, g, d)
        _, _, rx2, g2, _ = checkpoint.load_system(str(tmp_path))
        assert rx2.net.input_dim == 2 * cfg.n
        assert g2.net.input_dim == cfg.z_dim + 2 * cfg.n

    def test_expected_files_on_disk(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        names = sorted(os.listdir(tmp_path))
        assert names == sorted(("config.json",) + checkpoint.CHECKPOINT_FILES)

    def test_missing_net_file_rejected(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        os.remove(tmp_path / "receiver.json")
        with pytest.raises(ConfigError, match="cannot read"):
            checkpoint.load_system(str(tmp_path))

    def test_truncated_net_file_rejected(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        (tmp_path / "generator.json").write_text('{"layers": [')
        with pytest.raises(ConfigError, match="malformed checkpoint file"):
            checkpoint.load_system(str(tmp_path))

    def test_config_net_dimension_mismatch_rejected(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        # claim a different block length than the nets were built for
        doctored = cfg.to_dict()
        doctored["n"] = 3
        with open(tmp_path / "config.json", "w") as f:
            json.dump(doctored, f)
        with pytest.raises(ConfigError):
            checkpoint.load_system(str(tmp_path))

    @pytest.mark.parametrize("key, name", [
        ("tx_hidden", "transmitter.json"), ("rx_hidden", "receiver.json"),
        ("gen_hidden", "generator.json"), ("disc_hidden", "discriminator.json"),
    ])
    def test_hidden_width_mismatch_names_the_file(self, tmp_path, key, name):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        checkpoint.write_json({**cfg.to_dict(), key: [16, 16]},
                              str(tmp_path / "config.json"))
        path = re.escape(str(tmp_path / name))
        with pytest.raises(ConfigError, match=f"^checkpoint file {path} has layer widths"):
            checkpoint.load_system(str(tmp_path))

    def test_wrong_message_count_rejected(self, tmp_path):
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        doctored = cfg.to_dict()
        doctored["k"] = 3
        with open(tmp_path / "config.json", "w") as f:
            json.dump(doctored, f)
        with pytest.raises(ConfigError):
            checkpoint.load_system(str(tmp_path))

    def test_non_finite_parameter_rejected(self, tmp_path):
        # Adam never commits a non-finite parameter and write_json refuses
        # one, so only a hand-edited file can hold a NaN
        cfg = tiny_cfg()
        checkpoint.save_system(str(tmp_path), cfg, *train.build_system(cfg))
        path = tmp_path / "receiver.json"
        data = json.loads(path.read_text())
        data["layers"][0]["w"][0][0] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="receiver.json"):
            checkpoint.load_system(str(tmp_path))


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_refused_before_anything_is_written(self, tmp_path,
                                                                 value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            checkpoint.write_json({"w": [1.0, value]}, str(path))
        assert os.listdir(tmp_path) == []

    def test_refused_write_keeps_the_previous_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        checkpoint.write_json({"x": 1.5}, path)
        with pytest.raises(ValueError):
            checkpoint.write_json({"x": float("nan")}, path)
        assert os.listdir(tmp_path) == ["out.json"]
        assert json.loads(open(path).read()) == {"x": 1.5}


class _FullDisk:
    """A text file that takes `room` characters, then fails as a full disk
    does, with what it took already on disk."""

    def __init__(self, f, room):
        self._f, self._room, self.failed = f, room, False

    def write(self, text):
        if len(text) > self._room:
            self._f.write(text[:self._room])
            self._f.flush()
            self.failed = True
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(text)
        return self._f.write(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)


def _write_sweep_chart(path):
    sweep = os.path.join(os.path.dirname(path), "sweep.json")
    checkpoint.write_json({"ebn0_db": [2.0, 4.0], "min_trials": 100,
                           "max_trials": 100}, sweep)
    rc = cli.main(["baseline", "--system", "hamming74-mld-awgn", "--sweep", sweep,
                   "--out", path + ".csv", "--svg", path])
    assert rc == 1


def _writers():
    tx, _, g, _ = train.build_system(tiny_cfg())
    points = evaluate.bler_sweep_baseline(
        "hamming74-mld-awgn", evaluate.SweepSpec((2.0, 4.0), 100, 100), seed=0)
    log = train.TrainLog()
    for step in range(3):
        log.append(train.StepRecord(step, 1, "rx", 0.5 / (step + 1)))
    x = tx.encode_messages(np.arange(tx.m_count))
    return {
        "bler_to_csv": lambda path: evaluate.bler_to_csv(points, path),
        "train_log": log.to_csv,
        "constellation_dump": lambda path: evaluate.constellation_dump(tx, path),
        "gan_scatter_dump": lambda path: evaluate.gan_scatter_dump(g, x, 0.3, path, 5),
        "svg_chart": _write_sweep_chart,
        "save_net": lambda path: checkpoint.save_net(tx.net, path),
        "write_json": lambda path: checkpoint.write_json({"x": [1.5, 2.5, 3.5]}, path),
    }


class TestInterruptedWrite:
    # a write that fails mid-file: a full disk rather than a row source that
    # raises, because the chart's text is whole before its file is opened
    @pytest.mark.parametrize("writer", [
        "bler_to_csv", "train_log", "constellation_dump", "gan_scatter_dump",
        "svg_chart", "save_net", "write_json"])
    def test_full_disk_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        write = _writers()[writer]
        path = tmp_path / "out"
        path.write_bytes(b"previous\n")
        real_open, disks = builtins.open, []

        def open_on_a_full_disk(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "w" in mode and str(file) in (str(path), f"{path}.tmp"):
                disks.append(_FullDisk(f, 16))
                return disks[-1]
            return f

        monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
        try:
            write(str(path))
        except OSError as exc:
            assert exc.errno == errno.ENOSPC
        monkeypatch.undo()
        assert [disk.failed for disk in disks] == [True]
        assert not os.path.exists(str(path) + ".tmp")
        assert path.read_bytes() == b"previous\n"


class TestOlderRunDirectory:
    # config.json of a run written while hidden_activation, label_smoothing
    # and the GAN step's optimizer settings were still TrainConfig fields,
    # each at its one value (the last of them wrote all 24 fields)
    OLDER = {"hidden_activation": "relu", "label_smoothing": 0.0,
             "lr_gan": 0.0001, "lr_disc": 0.0004, "gan_beta1": 0.0,
             "ema_decay": 0.995, "d_updates": 2}

    def write_older_run(self, path, **retired):
        cfg = tiny_cfg()
        checkpoint.save_system(str(path), cfg, *train.build_system(cfg))
        older = {**cfg.to_dict(), **self.OLDER}
        checkpoint.write_json({**older, **retired}, str(path / "config.json"))
        return cfg

    # null takes the default, as for any key; an integer 0 is the float 0.0
    @pytest.mark.parametrize("retired", [{}, {"hidden_activation": None},
                                         {"label_smoothing": 0},
                                         {"lr_disc": None, "d_updates": None},
                                         {"gan_beta1": 0}])
    def test_loads_to_the_same_config(self, tmp_path, retired):
        cfg = self.write_older_run(tmp_path, **retired)
        assert checkpoint.load_system(str(tmp_path))[0] == cfg

    @pytest.mark.parametrize("key, value", [("hidden_activation", "tanh"),
                                            ("label_smoothing", 0.1),
                                            ("label_smoothing", False),
                                            ("lr_gan", 2e-4),
                                            ("lr_gan", "0.0001"),
                                            ("lr_disc", 1e-3),
                                            ("gan_beta1", 0.5),
                                            ("ema_decay", 0.99),
                                            ("ema_decay", True),
                                            ("d_updates", 3),
                                            ("d_updates", 2.0),
                                            ("d_updates", True),
                                            ("d_updates", 10**400)])
    def test_other_value_is_refused_by_key(self, tmp_path, key, value):
        self.write_older_run(tmp_path, **{key: value})
        path = re.escape(str(tmp_path / "config.json"))
        with pytest.raises(ConfigError, match=f"^config {path}: {key}: retired; "):
            checkpoint.load_system(str(tmp_path))

    def test_evaluates_to_the_same_csv(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [0.0, 4.0], "min_trials": 2000,
                                     "max_trials": 2000}))
        cfg = self.write_older_run(tmp_path / "older")
        checkpoint.save_system(str(tmp_path / "current"), cfg, *train.build_system(cfg))
        csvs = []
        for name in ("older", "current"):
            out = tmp_path / f"{name}.csv"
            assert cli.main(["eval", "--checkpoint", str(tmp_path / name), "--sweep",
                             str(sweep), "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_the_gan_keys_hold_the_values_training_uses(self):
        trainer = train.Trainer(tiny_cfg())
        used = {"lr_gan": trainer.g_opt.learning_rate,
                "lr_disc": trainer.d_opt.learning_rate,
                "gan_beta1": trainer.g_opt.beta1, "ema_decay": trainer._g_ema.decay,
                "d_updates": train.D_UPDATES}
        assert trainer.d_opt.beta1 == trainer.g_opt.beta1
        assert used == {key: config.RETIRED_KEYS[key] for key in used}
        assert used == {key: self.OLDER[key] for key in used}
