"""Command-line interface: wiring, exit codes, file outputs."""

import csv
import importlib.metadata
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import gancomm
from gancomm import checkpoint, cli, train
from gancomm.config import ConfigError, TrainConfig
from gancomm.evaluate import BASELINE_SYSTEMS

TINY = {
    "k": 2, "n": 2, "batch_size": 16, "outer_iterations": 2, "rx_steps": 2,
    "tx_steps": 2, "gan_steps": 2, "warmup_gan_steps": 2, "final_rx_steps": 3,
    "seed": 3, "tx_hidden": [8], "rx_hidden": [8], "gen_hidden": [12],
    "disc_hidden": [8], "z_dim": 3,
}


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out = root / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                   "--quiet"])
    assert rc == 0
    return out


class TestSweepFile:
    def test_parses_full_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(
            {"ebn0_db": [0, 2], "min_trials": 100, "max_trials": 1000,
             "target_errors": 5}
        ))
        spec = cli.load_sweep(str(path))
        assert spec.ebn0_db == (0.0, 2.0)
        assert spec.target_errors == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"ebn0_db": [0], "snr": [1]}))
        with pytest.raises(ConfigError, match="snr"):
            cli.load_sweep(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"ebn0_db": [0], "min_trials": 100, "ebn0_db": [4]}')
        where = re.escape(f"sweep spec {path}: ebn0_db: ")
        with pytest.raises(ConfigError, match=f"^{where}duplicate key$"):
            cli.load_sweep(str(path))

    def test_grid_is_mandatory(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"min_trials": 100}))
        with pytest.raises(ConfigError, match="ebn0_db"):
            cli.load_sweep(str(path))

    def test_null_takes_the_default(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"ebn0_db": [1], "min_trials": None}))
        assert cli.load_sweep(str(path)).min_trials == 2000

    def test_trial_counts_must_be_integers(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"ebn0_db": [0], "min_trials": True}))
        with pytest.raises(ConfigError, match="min_trials"):
            cli.load_sweep(str(path))


    @pytest.mark.parametrize("grid", [[True, 4], [4, "6"], [None], [[1.0]], 4])
    def test_grid_values_must_be_numbers(self, tmp_path, grid):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"ebn0_db": grid}))
        with pytest.raises(ConfigError, match="ebn0_db"):
            cli.load_sweep(str(path))


class TestParsing:
    def test_version_exits_cleanly(self, capsys):
        assert cli.main(["--version"]) == 0
        assert re.match(r"\d+\.\d+\.\d+", capsys.readouterr().out)

    def test_console_script_resolves_to_main(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        entry = importlib.metadata.EntryPoint(
            name="gancomm", value=scripts["gancomm"], group="console_scripts")
        assert entry.load()(["--version"]) == 0
        assert capsys.readouterr().out.strip() == cli.__version__

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["train", "--config", "x", "--out", "y", "--fast"]) == 2

    def test_baseline_system_is_restricted(self, capsys):
        rc = cli.main(["baseline", "--system", "ldpc", "--sweep", "s",
                       "--out", "o"])
        assert rc == 2


class TestBlasThreads:
    @pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")])
    def test_one_thread_unless_the_environment_says(self, given, seen):
        env = {key: value for key, value in os.environ.items() if key not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gancomm.__file__))
        code = "import os, gancomm.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == seen + "\n"


class TestStartup:
    def test_import_loads_no_http_client(self):
        # xml.sax.saxutils, the obvious escape for the chart's label, pulls
        # urllib.request and http.client into every command's startup
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(gancomm.__file__))}
        code = ("import sys, gancomm.cli; "
                "print(sorted({'http.client', 'urllib.request'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestTrainCommand:
    def test_writes_manifest_checkpoints_and_log(self, trained_dir):
        names = {p.name for p in trained_dir.iterdir()}
        assert {"manifest.json", "config.json", "train_log.csv",
                "transmitter.json", "receiver.json", "generator.json",
                "discriminator.json"} <= names
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert manifest["config"]["k"] == 2
        assert "train_log.csv" in manifest["outputs"]
        assert manifest["status"] == "completed"

    def test_refuses_to_reuse_a_run_directory(self, trained_dir, tmp_path,
                                              capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        rc = cli.main(["train", "--config", str(cfg_path), "--out",
                       str(trained_dir), "--quiet"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "refusing" in captured.err

    def test_progress_lines_have_the_documented_shape(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        rc = cli.main(["train", "--config", str(cfg_path), "--out",
                       str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert re.match(r"iter=0 phase=gan loss=-?\d+\.\d{6}$", lines[0])
        assert any(line.startswith("iter=2 phase=tx") for line in lines)
        assert lines[-1].startswith("checkpoint written")

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        rc = cli.main(["train", "--config", str(cfg_path), "--out",
                       str(tmp_path / "run"), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_bad_config_reports_and_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k": 0}))
        rc = cli.main(["train", "--config", str(cfg_path), "--out",
                       str(tmp_path / "run"), "--quiet"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"error: config {cfg_path}: k:")

    @pytest.mark.parametrize("text, key", [
        ('{"train_ebn0_db": 5000}', "train_ebn0_db"),
        ('{"train_ebn0_db": -4000}', "train_ebn0_db"),
        ('{"lr_gan": Infinity}', "lr_gan"),
        ('{"lr_transceiver": 1' + '0' * 400 + '}', "lr_transceiver"),
    ], ids=["5000dB", "-4000dB", "infinity", "huge-int"])
    def test_unrepresentable_number_fails_before_the_run_starts(
            self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                       "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config {cfg_path}: {key}:")
        assert not out.exists()


class TestEvalCommand:
    def test_sweep_csv_and_stdout(self, trained_dir, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"ebn0_db": [8.0], "min_trials": 100, "max_trials": 20000,
             "target_errors": 10}
        ))
        out = tmp_path / "bler.csv"
        rc = cli.main(["eval", "--checkpoint", str(trained_dir), "--sweep",
                       str(sweep), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2
        assert rows[1][0] == "8.0"
        assert re.match(r"ebn0_db=8 bler=\d", captured.out)

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [0.0]}))
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope"),
                       "--sweep", str(sweep), "--out", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_malformed_net_file_exits_1_naming_it(self, trained_dir, tmp_path,
                                                  capsys):
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        bad = ckpt / "receiver.json"
        bad.write_text(json.dumps({"layers": [{"activation": "relu", "w": [[0.0], []],
                                               "b": [0.0]}]}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [0.0]}))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--sweep", str(sweep),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err

    def test_bad_config_value_exits_1_naming_the_file(self, trained_dir, tmp_path,
                                                      capsys):
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        bad = ckpt / "config.json"
        bad.write_text(json.dumps({"k": 0}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [0.0]}))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--sweep", str(sweep),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config {bad}: k: must be >= 1")

    def test_aborted_run_exits_1_naming_its_status(self, tmp_path, capsys):
        def stop(iteration, phase, loss):
            raise RuntimeError("stop")

        run = tmp_path / "run"
        with pytest.raises(RuntimeError):
            train.train_full(TrainConfig(**TINY), out_dir=str(run), progress=stop)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [4.0]}))
        out = tmp_path / "bler.csv"
        rc = cli.main(["eval", "--checkpoint", str(run), "--sweep", str(sweep),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: run directory {run} is not a completed run: its manifest.json "
            f"reads status 'aborted at step 2: RuntimeError: stop'\n")
        assert not out.exists()
        # a Python caller can still inspect the last nets of the run
        assert checkpoint.load_system(str(run))[0] == TrainConfig(**TINY)

    @pytest.mark.parametrize("manifest", [None, {"command": "train"}],
                             ids=["no-manifest", "no-status"])
    def test_run_without_a_recorded_status_is_evaluated(self, trained_dir, tmp_path,
                                                        capsys, manifest):
        # perfbench's directories have no manifest; older runs' have no status
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        if manifest is None:
            (ckpt / "manifest.json").unlink()
        else:
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [8.0], "min_trials": 100,
                                     "max_trials": 20000}))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--sweep", str(sweep),
                       "--out", str(tmp_path / "bler.csv")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ebn0_db=8 ")

    def test_manifest_that_is_not_an_object_exits_1_naming_it(self, trained_dir,
                                                              tmp_path, capsys):
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        (ckpt / "manifest.json").write_text("[1, 2]")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [4.0]}))
        out = tmp_path / "bler.csv"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--sweep", str(sweep),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {ckpt / 'manifest.json'}: must be a JSON object\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec, where", [
        ({"ebn0_db": [4000]}, "ebn0_db: values must lie within"),
        ({"ebn0_db": [4], "foo": 1}, "unknown SweepSpec keys: foo"),
    ])
    def test_bad_sweep_spec_exits_1_naming_the_file(self, trained_dir, tmp_path,
                                                     capsys, spec, where):
        sweep = tmp_path / "bad.json"
        sweep.write_text(json.dumps(spec))
        out = tmp_path / "bler.csv"
        rc = cli.main(["eval", "--checkpoint", str(trained_dir), "--sweep",
                       str(sweep), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: sweep spec {sweep}: {where}")
        assert not out.exists()

    def test_svg_chart_written_on_request(self, trained_dir, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"ebn0_db": [4.0, 8.0], "min_trials": 100, "max_trials": 20000,
             "target_errors": 5}
        ))
        svg = tmp_path / "curve.svg"
        rc = cli.main(["eval", "--checkpoint", str(trained_dir), "--sweep",
                       str(sweep), "--out", str(tmp_path / "bler.csv"),
                       "--svg", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "BLER" in text


class TestBaselineCommand:
    def test_hamming_sweep_runs(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"ebn0_db": [2.0], "min_trials": 100, "max_trials": 20000,
             "target_errors": 20}
        ))
        out = tmp_path / "ham.csv"
        rc = cli.main(["baseline", "--system", "hamming74-mld-awgn",
                       "--sweep", str(sweep), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert out.exists()
        assert captured.out.startswith("ebn0_db=2")

    def test_svg_of_a_sweep_without_errors_is_a_chart_without_a_curve(
            self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"ebn0_db": [30], "min_trials": 100, "max_trials": 100,
             "target_errors": 1}
        ))
        out, svg = tmp_path / "h.csv", tmp_path / "h.svg"
        rc = cli.main(["baseline", "--system", "hamming74-mld-awgn", "--sweep",
                       str(sweep), "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        assert capsys.readouterr().out == "ebn0_db=30 bler=0.000e+00 trials=100 errors=0\n"
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "hamming74-mld-awgn" in text
        assert "<polyline" not in text and "<circle" not in text

    def test_bad_sweep_spec_exits_1_naming_the_file(self, tmp_path, capsys):
        sweep = tmp_path / "bad.json"
        sweep.write_text(json.dumps({"ebn0_db": [4], "foo": 1}))
        rc = cli.main(["baseline", "--system", "hamming74-mld-awgn", "--sweep",
                       str(sweep), "--out", str(tmp_path / "h.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: sweep spec {sweep}: unknown SweepSpec keys: foo\n")

    def test_pilot_count_reaches_the_ls_baseline(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"ebn0_db": [10.0], "min_trials": 100, "max_trials": 20000,
             "target_errors": 20}
        ))
        rc_bad = cli.main(["baseline", "--system", "qam16-rayleigh-ls",
                           "--sweep", str(sweep), "--out",
                           str(tmp_path / "a.csv"), "--n-pilot", "0"])
        captured = capsys.readouterr()
        assert rc_bad == 1
        assert "n_pilot" in captured.err

    def test_workers_below_one_exit_1(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [4.0]}))
        out = tmp_path / "b.csv"
        rc = cli.main(["baseline", "--system", "hamming74-mld-awgn", "--sweep",
                       str(sweep), "--out", str(out), "--workers", "-3"])
        assert rc == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()


    def test_boolean_grid_point_exit_1(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"ebn0_db": [True, 4]}))
        out = tmp_path / "c.csv"
        rc = cli.main(["baseline", "--system", "hamming74-mld-awgn", "--sweep",
                       str(sweep), "--out", str(out)])
        assert rc == 1
        assert "ebn0_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["[4000]", "[-4000]", "[2, 1" + "0" * 400 + "]"],
                             ids=["4000dB", "-4000dB", "huge-int"])
    @pytest.mark.parametrize("system", BASELINE_SYSTEMS)
    def test_unrepresentable_grid_point_exit_1(self, tmp_path, capsys, grid, system):
        sweep = tmp_path / "sweep.json"
        sweep.write_text('{"ebn0_db": %s}' % grid)
        out = tmp_path / "d.csv"
        rc = cli.main(["baseline", "--system", system, "--sweep", str(sweep),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: sweep spec {sweep}: ebn0_db:")
        assert not out.exists()


class TestDumpCommand:
    def test_constellation_csv(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "points.csv"
        rc = cli.main(["dump", "--checkpoint", str(trained_dir), "--what",
                       "constellation", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["message", "use_index", "re", "im"]
        assert len(rows) == 1 + 4 * 2

    def test_gan_scatter_csv(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "scatter.csv"
        rc = cli.main(["dump", "--checkpoint", str(trained_dir), "--what",
                       "gan-scatter", "--out", str(out), "--samples", "20"])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        sources = {row[1] for row in rows[1:]}
        assert sources == {"condition", "real", "fake"}

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_gan_scatter_samples_below_one_exit_1(self, trained_dir, tmp_path,
                                                  capsys, samples):
        out = tmp_path / "scatter.csv"
        rc = cli.main(["dump", "--checkpoint", str(trained_dir), "--what",
                       "gan-scatter", "--out", str(out), "--samples", samples])
        assert rc == 1
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("status", ["running", "aborted at step 9: X: y"])
    @pytest.mark.parametrize("what", ["constellation", "gan-scatter"])
    def test_dump_refuses_an_unfinished_run(self, trained_dir, tmp_path, capsys,
                                            status, what):
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        (ckpt / "manifest.json").write_text(json.dumps({**manifest, "status": status}))
        out = tmp_path / "dump.csv"
        rc = cli.main(["dump", "--checkpoint", str(ckpt), "--what", what,
                       "--out", str(out)])
        assert rc == 1
        assert f"status {status!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["constellation", "gan-scatter"])
    def test_manifest_that_is_not_an_object_exits_1_naming_it(self, trained_dir,
                                                              tmp_path, capsys, what):
        ckpt = tmp_path / "run"
        shutil.copytree(trained_dir, ckpt)
        (ckpt / "manifest.json").write_text('"completed"')
        out = tmp_path / "dump.csv"
        rc = cli.main(["dump", "--checkpoint", str(ckpt), "--what", what,
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {ckpt / 'manifest.json'}: must be a JSON object\n")
        assert not out.exists()
