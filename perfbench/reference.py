"""Reference BLERs of the baseline systems at the eval-sweep operating points.

The eval-sweep workload checks every baseline point it runs against these
values. Each reference is a fixed-length Monte-Carlo point of REF_TRIALS
trials drawn with REF_SEED, a seed the benchmark never passes to a workload.
For the perfect-CSI 16-QAM system the closed form for square M-QAM over
Rayleigh fading gives an independent cross-check; `python3
perfbench/reference.py` recomputes all three and prints both.
"""

from __future__ import annotations

import math
import statistics

REF_SEED = 2_147_483_647
REF_TRIALS = 20_000_000

# (system, Eb/N0 in dB) -> (trials, errors) measured with REF_SEED.
REFERENCE = {
    ("hamming74-mld-awgn", 4.0): (20_000_000, 236_987),
    ("qam16-rayleigh-perfect-csi", 10.0): (20_000_000, 2_694_635),
    ("qam16-rayleigh-ls", 10.0): (20_000_000, 4_446_465),
}

# The check is a 95% interval for the whole family of baseline checks that
# a full benchmark campaign makes (Bonferroni over FAMILY_SIZE checks), so a
# correct baseline fails it with probability below 5% across all of them.
FAMILY_SIZE = 1000
Z_FAMILY = statistics.NormalDist().inv_cdf(1.0 - 0.05 / (2 * FAMILY_SIZE))


def within_reference(system: str, ebn0_db: float, trials: int, errors: int) -> bool:
    """True when a measured point agrees with the reference at Z_FAMILY.

    The interval combines the binomial spread of the measured point and of
    the reference itself, both evaluated at the reference rate.
    """
    ref_trials, ref_errors = REFERENCE[(system, float(ebn0_db))]
    p = ref_errors / ref_trials
    var = p * (1.0 - p) * (1.0 / trials + 1.0 / ref_trials)
    return abs(errors / trials - p) <= Z_FAMILY * math.sqrt(var)


def qam16_rayleigh_ser(ebn0_db: float) -> float:
    """Closed-form symbol error rate of coherent 16-QAM on Rayleigh fading
    with perfect CSI (Simon and Alouini, square M-QAM), 4 bits per symbol."""
    m = 16
    es_n0 = 4.0 * 10.0 ** (ebn0_db / 10.0)
    g = 1.5 / (m - 1)
    mu = math.sqrt(g * es_n0 / (1.0 + g * es_n0))
    q = 1.0 - 1.0 / math.sqrt(m)
    return 2.0 * q * (1.0 - mu) - q * q * (1.0 - 4.0 / math.pi * mu * math.atan(1.0 / mu))


def _recompute() -> None:
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from gancomm import evaluate

    for (system, ebn0), (trials, errors) in REFERENCE.items():
        spec = evaluate.SweepSpec((ebn0,), min_trials=REF_TRIALS, max_trials=REF_TRIALS)
        point = evaluate.bler_sweep_baseline(system, spec, seed=REF_SEED, workers=2)[0]
        line = (f"{system} @ {ebn0} dB: trials={point.trials} errors={point.errors} "
                f"bler={point.bler:.6f} stored={errors / trials:.6f}")
        if system == "qam16-rayleigh-perfect-csi":
            line += f" closed_form={qam16_rayleigh_ser(ebn0):.6f}"
        print(line)


if __name__ == "__main__":
    _recompute()
