"""Print a digest of every seeded output of a small run, one line each.

Usage: python tools/digest_probe.py [--src DIR]

The package is imported from DIR (default: the ``src`` next to this
script), so the same probe can run against another checkout, for example
the base of a change; the ``train_channel_gan`` test helper always comes
from the ``tests`` next to this script:

    git worktree add --detach ../base <base commit>
    python tools/digest_probe.py --src ../base/src > base.txt
    python tools/digest_probe.py > head.txt
    diff base.txt head.txt

Each line reads ``<name> <sha256 prefix>``. Per channel (awgn, rayleigh)
it covers a short default-width training run (the four net files,
config.json and train_log.csv) with the ``(iteration, phase, loss)``
progress calls it makes, learned BLER counts at workers 1 and 3 and of one
45,001-trial point, ``gan_fidelity`` (each report's label, energy
distance, target, and real and generated means and variances), the
constellation and GAN-scatter dump CSVs written by ``gancomm dump``, the
CSV and SVG chart written by ``gancomm eval`` on the sweep and on a 30 dB
point (no errors on AWGN), and a ``train_channel_gan`` run; then the two
baseline codebooks (each table's dtype, shape and bytes, on one line) and
the BLER counts of the three baselines, on the sweep and on the
45,001-trial point.
That point's last shard is short, and so is its last block of decided
rows. Two checkouts that print the same lines produce the same bits on all
of these; a change that moves them on purpose says so.
BLAS runs on one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SEED = 5
CHANNELS = ("awgn", "rayleigh")
SWEEP = dict(ebn0_db=(0.0, 4.0), min_trials=20_000, max_trials=60_000,
             target_errors=100)
TAIL_SWEEP = dict(ebn0_db=(2.0,), min_trials=45_001, max_trials=45_001)
HIGH_SNR_SWEEP = dict(ebn0_db=(30.0,), min_trials=20_000, max_trials=20_000)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path: pathlib.Path) -> str:
    return digest(path.read_bytes())


def points_digest(points) -> str:
    return digest(repr([(p.ebn0_db, p.trials, p.errors) for p in points]))


def nets_digest(*nets) -> str:
    return digest(b"".join(net.params.tobytes() for net in nets))


def probe_channel(kind: str, tmp: pathlib.Path) -> list[tuple[str, str]]:
    import helpers
    from gancomm import channel, checkpoint, cli, evaluate, train
    from gancomm.config import TrainConfig
    from gancomm.rng import substream

    out = []
    cfg = TrainConfig(channel=kind, seed=SEED, outer_iterations=5, gan_steps=10,
                      rx_steps=5, tx_steps=5, final_rx_steps=100)
    run = tmp / f"run-{kind}"
    calls = []
    trainer = train.train_full(
        cfg, out_dir=str(run),
        progress=lambda it, phase, loss: calls.append((it, phase, repr(loss))))
    for name in (*checkpoint.CHECKPOINT_FILES, "config.json", "train_log.csv"):
        out.append((f"{kind}.{name}", file_digest(run / name)))
    out.append((f"{kind}.progress", digest(repr(calls))))

    spec = evaluate.SweepSpec(**SWEEP)
    for workers in (1, 3):
        points = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, spec,
                                             workers=workers)
        out.append((f"{kind}.bler_learned.w{workers}", points_digest(points)))
    points = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg,
                                         evaluate.SweepSpec(**TAIL_SWEEP))
    out.append((f"{kind}.bler_learned.tail", points_digest(points)))

    x = trainer.tx.encode_messages(np.arange(cfg.M))
    h = (channel.rayleigh_sample(substream(SEED, "probe", "h"), cfg.M)
         if cfg.is_fading else None)
    reports = evaluate.gan_fidelity(trainer.generator_averaged(), x, trainer.noise_std,
                                    200, SEED, h=h, n_pilot=cfg.n_pilot)
    out.append((f"{kind}.gan_fidelity", digest(repr([
        (r.label, r.energy_distance, r.target_mean.tobytes(), r.real_mean.tobytes(),
         r.fake_mean.tobytes(), r.real_var.tobytes(), r.fake_var.tobytes())
        for r in reports]))))

    for what in ("constellation", "gan-scatter"):
        csv_path = tmp / f"{kind}-{what}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["dump", "--checkpoint", str(run), "--what", what,
                           "--out", str(csv_path), "--samples", "50",
                           "--seed", str(SEED)])
        if rc != 0:
            raise RuntimeError(f"gancomm dump --what {what} exited {rc}")
        out.append((f"{kind}.dump.{what}", file_digest(csv_path)))

    # the CSV and chart of ``gancomm eval`` on the sweep, and on one 30 dB
    # point that the AWGN link decides without an error: a chart with no curve
    for name, sweep in (("sweep", SWEEP), ("30db", HIGH_SNR_SWEEP)):
        sweep_path, csv_path, svg_path = (tmp / f"{kind}-{name}.{ext}"
                                          for ext in ("json", "csv", "svg"))
        sweep_path.write_text(json.dumps(sweep))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eval", "--checkpoint", str(run), "--sweep", str(sweep_path),
                           "--out", str(csv_path), "--svg", str(svg_path),
                           "--seed", str(SEED)])
        if rc != 0:
            raise RuntimeError(f"gancomm eval of the {name} sweep exited {rc}")
        out.append((f"{kind}.eval.{name}.csv", file_digest(csv_path)))
        out.append((f"{kind}.eval.{name}.svg", file_digest(svg_path)))

    g, d, log = helpers.train_channel_gan(kind, 8.0, steps=100, seed=SEED)
    out.append((f"{kind}.train_channel_gan", digest(
        nets_digest(g.net, d.net)
        + repr([(r.loss, r.g_loss, r.d_accuracy) for r in log.records]))))
    return out


def probe() -> list[tuple[str, str]]:
    from gancomm import baseline, evaluate

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind in CHANNELS:
            lines += probe_channel(kind, pathlib.Path(tmp))
    lines.append(("baseline.codebooks", digest(repr([
        (cb.dtype.str, cb.shape, cb.tobytes())
        for cb in (baseline.hamming74_bpsk_codebook(), baseline.qam16_codebook())]))))
    for system in evaluate.BASELINE_SYSTEMS:
        for suffix, sweep in (("", SWEEP), (".tail", TAIL_SWEEP)):
            points = evaluate.bler_sweep_baseline(system, evaluate.SweepSpec(**sweep),
                                                  seed=SEED)
            lines.append((f"baseline.{system}{suffix}", points_digest(points)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    root = pathlib.Path(__file__).resolve().parents[1]
    parser.add_argument("--src", default=str(root / "src"),
                        help="directory that holds the gancomm package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, str(root / "tests")]
    import gancomm

    if not os.path.abspath(gancomm.__file__).startswith(src + os.sep):
        raise SystemExit(f"gancomm was imported from {gancomm.__file__}, not {src}")
    for name, value in probe():
        print(f"{name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
