"""Command-line entry points: train, eval, baseline, dump.

All commands are batch jobs with explicit inputs and outputs; nothing is
written outside the paths given on the command line, each of which is
written whole or not at all (``checkpoint.atomic_open``). Exit codes: 0 on
success, 2 for bad usage (argparse), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread unless the environment names its own count; it must be set
# before numpy loads. OpenBLAS otherwise starts a thread per vCPU, and two
# runs at once then fight over them. On a 2-vCPU host a 20-iteration AWGN
# training took 1.89-3.53 s at the default two threads and 1.74-2.11 s at
# one; two such runs at once took 11.18 and 11.27 s each at the default
# and 1.75 and 2.20 s at one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, channel, checkpoint, evaluate, nn, svg, train  # noqa: E402
from .config import ConfigError, from_dict, load_config, read_json  # noqa: E402
from .evaluate import BASELINE_SYSTEMS, SweepSpec  # noqa: E402
from .rng import substream  # noqa: E402


def load_sweep(path: str) -> SweepSpec:
    """Parse a sweep spec JSON file by the config rules: unknown keys are
    rejected, a null or absent key takes its default, and ebn0_db is
    required. A bad value raises a ConfigError that names the file."""
    return read_json(path, "sweep spec", lambda data: from_dict(SweepSpec, data))


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(iteration: int, phase: str, loss: float) -> None:
        print(f"iter={iteration} phase={phase} loss={loss:.6f}", flush=True)

    return emit


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    train.train_full(cfg, out_dir=args.out, progress=_progress_printer(args.quiet))
    if not args.quiet:
        print(f"checkpoint written to {args.out}")
    return 0


def _write_sweep(points, args: argparse.Namespace, label: str) -> int:
    """The sweep's CSV, its optional chart, and one stdout line per point."""
    evaluate.bler_to_csv(points, args.out)
    if args.svg is not None:
        chart = svg.bler_chart(label, [p.ebn0_db for p in points],
                               [p.bler for p in points])
        with checkpoint.atomic_open(args.svg) as f:
            f.write(chart)
    for p in points:
        print(f"ebn0_db={p.ebn0_db:g} bler={p.bler:.3e} trials={p.trials} "
              f"errors={p.errors}")
    return 0


def _load_finished_run(ckpt_dir: str):
    """``checkpoint.load_system`` on a run directory whose manifest.json, if
    it has one, reads status "completed" or none (written before runs
    recorded one); any other run, or manifest, is refused."""
    path = os.path.join(ckpt_dir, "manifest.json")
    manifest = read_json(path, "manifest") if os.path.exists(path) else {}
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path}: must be a JSON object")
    status = manifest.get("status", "completed")
    if status != "completed":
        raise ConfigError(f"run directory {ckpt_dir} is not a completed run: "
                          f"its manifest.json reads status {status!r}")
    return checkpoint.load_system(ckpt_dir)


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg, tx, rx, _, _ = _load_finished_run(args.checkpoint)
    spec = load_sweep(args.sweep)
    points = evaluate.bler_sweep_learned(
        tx, rx, cfg, spec, seed=args.seed, workers=args.workers
    )
    return _write_sweep(points, args, f"learned ({cfg.channel})")


def _cmd_baseline(args: argparse.Namespace) -> int:
    spec = load_sweep(args.sweep)
    points = evaluate.bler_sweep_baseline(
        args.system, spec, seed=args.seed, workers=args.workers,
        n_pilot=args.n_pilot,
    )
    return _write_sweep(points, args, args.system)


def _cmd_dump(args: argparse.Namespace) -> int:
    cfg, tx, rx, g, _ = _load_finished_run(args.checkpoint)
    if args.what == "constellation":
        evaluate.constellation_dump(tx, args.out)
    else:
        x = tx.encode_messages(np.arange(cfg.M))
        std = channel.noise_std_from_snr(cfg.train_ebn0_db, cfg.k, cfg.n)
        h = cfg.make_channel().draw_state(substream(args.seed, "dump", "h"), cfg.M)
        evaluate.gan_scatter_dump(
            g, x, std, args.out, n_samples=args.samples, seed=args.seed,
            h=h, n_pilot=cfg.n_pilot,
        )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gancomm",
        description="End-to-end learned communication link trained through a "
                    "conditional-GAN channel surrogate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a full system from a JSON config")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--out", required=True, help="output directory for the run")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="BLER sweep of a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="training output directory")
    p.add_argument("--sweep", required=True, help="JSON sweep spec")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional SVG chart path")
    p.add_argument("--seed", type=int, default=None,
                   help="evaluation seed (default: the checkpoint's seed)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="BLER sweep of a classical reference")
    p.add_argument("--system", required=True, choices=BASELINE_SYSTEMS)
    p.add_argument("--sweep", required=True, help="JSON sweep spec")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional SVG chart path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--n-pilot", type=int, default=1, dest="n_pilot")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("dump", help="write constellation or GAN scatter CSVs")
    p.add_argument("--checkpoint", required=True, help="training output directory")
    p.add_argument("--what", required=True, choices=("constellation", "gan-scatter"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, nn.NonFiniteError, FloatingPointError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
