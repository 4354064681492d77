"""Print the margins of acceptance 2 (AWGN) or 5 (Rayleigh) for one seed.

Usage: python tools/acceptance_margins.py --channel {awgn,rayleigh} --seed N [--src DIR]

Trains the default config on the channel with the given seed, then runs
the sweeps of the acceptance test: the learned link on its Eb/N0 grid
against the baseline shifted by the test's allowance (Hamming(7,4) MLD at
-1 dB on AWGN, LS 16-QAM at -2 dB on Rayleigh, both with baseline seed 7).
One line per grid point gives both BLERs and their ratio; the last line
gives the worst ratio, which passes at most 1. Seed 1 reproduces the
acceptance test's own numbers.

The package is imported from DIR (default: the ``src`` next to this
script), so the same margins can be taken on another checkout, for
example the base of a change. BLAS runs on one thread unless the
environment says otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# per channel: the acceptance test, the learned grid, the baseline, the
# shift in dB and the sweep's trial cap, as tests/test_acceptance.py has them
ACCEPTANCE = {
    "awgn": ("2", (2.0, 4.0, 6.0, 8.0), "hamming74-mld-awgn", 1.0, 8_000_000),
    "rayleigh": ("5", (0.0, 4.0, 8.0, 12.0, 16.0, 20.0), "qam16-rayleigh-ls", 2.0,
                 4_000_000),
}
BASELINE_SEED = 7


def margins(channel_kind: str, seed: int) -> list[str]:
    from gancomm import evaluate, train
    from gancomm.config import TrainConfig

    test, grid, system, shift, max_trials = ACCEPTANCE[channel_kind]
    cfg = TrainConfig(channel=channel_kind, seed=seed)
    t0 = time.monotonic()
    trainer = train.train_full(cfg)
    train_s = time.monotonic() - t0

    def spec(points):
        return evaluate.SweepSpec(ebn0_db=tuple(points), min_trials=2000,
                                  max_trials=max_trials, target_errors=200)

    learned = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, spec(grid))
    shifted = evaluate.bler_sweep_baseline(
        system, spec(x - shift for x in grid), seed=BASELINE_SEED)
    lines = [f"acceptance {test}, {channel_kind}, seed {seed}: trained in {train_s:.0f}s"]
    ratios = []
    for lp, bp in zip(learned, shifted):
        ratio = lp.bler / bp.bler if bp.bler else math.inf
        ratios.append(ratio)
        lines.append(f"{lp.ebn0_db:g} dB: learned {lp.bler:.3e} ({lp.errors} errors) "
                     f"vs {system} at {bp.ebn0_db:g} dB {bp.bler:.3e}: ratio {ratio:.3f}")
    worst = max(ratios)
    lines.append(f"worst ratio {worst:.3f} ({'PASS' if worst <= 1.0 else 'FAIL'})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--channel", choices=sorted(ACCEPTANCE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1]
                                             / "src"),
                        help="directory that holds the gancomm package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import gancomm

    if not os.path.abspath(gancomm.__file__).startswith(src + os.sep):
        raise SystemExit(f"gancomm was imported from {gancomm.__file__}, not {src}")
    for line in margins(args.channel, args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
