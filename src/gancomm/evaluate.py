"""Block-error-rate sweeps and GAN fidelity measurement.

Every BLER system, learned or classical, is a codebook, a channel object
and a decision rule, and one trial loop drives them all: draw messages,
the channel state, then what the receiver observes of the codebook rows,
and count the decisions that miss. The Hamming(7,4) baseline runs on the
AWGN channel object, and the 16-QAM baselines on the Rayleigh one: with
n_pilot pilots for LS estimation, and with no pilots for perfect CSI.

Sweeps draw trials in fixed-size shards, each with its own named RNG
substream keyed by (seed, system label, point index, shard index). Shards
are merged in index order and the early-stop rule is applied shard by
shard, so the result is byte-identical no matter how many workers ran the
shards. A shard draws its messages and channel state in one go, then runs
as blocks of DECIDE_ROWS rows: each block's codebook rows are gathered,
observed through the channel and decided, and its misses counted, before
the next block is touched. So every array a shard allocates, but its
messages and h, spans one block, whichever thread runs it: the gathered
rows, the received blocks and pilots, the noise, and the decision rule's
own arrays.

The fidelity statistics likewise measure pairwise distances into one
reused (256, n) buffer a few rows at a time.
"""

from __future__ import annotations

import contextlib
import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baseline, channel, gan, transceiver
from .config import ConfigError, TrainConfig
from .rng import substream

SHARD_TRIALS = 20_000
# Rows per block of a shard: each block is gathered, observed and decided
# before the next. On a channel with pilots a block draws its block noise
# and then its pilot noise, so there, like SHARD_TRIALS, it is part of what
# a seed draws; without pilots the noise is drawn row-major whatever the
# block size.
DECIDE_ROWS = 2_000

BASELINE_SYSTEMS = (
    "hamming74-mld-awgn",
    "qam16-rayleigh-perfect-csi",
    "qam16-rayleigh-ls",
)


@dataclass(frozen=True)
class SweepSpec:
    """Which Eb/N0 points to sweep and when to stop each one.

    A point stops once it has both min_trials trials and target_errors
    errors, or when it hits max_trials, whichever comes first.
    """

    ebn0_db: tuple[float, ...]
    min_trials: int = 2000
    max_trials: int = 10_000_000
    target_errors: int = 200

    def __post_init__(self) -> None:
        if len(self.ebn0_db) == 0:
            raise ConfigError("ebn0_db: must list at least one point")
        # bounded before the float conversion, which overflows on huge ints
        if not all(abs(v) <= channel.EBN0_DB_LIMIT for v in self.ebn0_db):
            raise ConfigError(
                f"ebn0_db: values must lie within +-{channel.EBN0_DB_LIMIT:g} dB")
        object.__setattr__(self, "ebn0_db", tuple(float(v) for v in self.ebn0_db))
        if self.min_trials < 1:
            raise ConfigError("min_trials: must be >= 1")
        if self.max_trials < self.min_trials:
            raise ConfigError("max_trials: must be >= min_trials")
        if self.target_errors < 1:
            raise ConfigError("target_errors: must be >= 1")


@dataclass(frozen=True)
class BlerPoint:
    ebn0_db: float
    trials: int
    errors: int
    bler: float
    ci95_halfwidth: float

    @classmethod
    def from_counts(cls, ebn0_db: float, trials: int, errors: int) -> "BlerPoint":
        if trials < 1 or errors < 0 or errors > trials:
            raise ValueError(f"bad counts: {errors} errors in {trials} trials")
        p = errors / trials
        ci = 1.96 * math.sqrt(p * (1.0 - p) / trials)
        return cls(float(ebn0_db), int(trials), int(errors), p, ci)


def _run_point(trial_fn, ebn0_db, spec, seed, label, point_index, workers):
    """Run shards for one Eb/N0 point until the stop rule fires.

    trial_fn(n_trials, rng) -> error count. Shard j always covers the same
    trial budget and substream regardless of worker count; a stop decision
    mid-wave discards the later shards of that wave, so parallel runs
    reproduce the sequential result exactly. With workers > 1 one thread
    pool serves every wave of the point.
    """
    shard_cap = math.ceil(spec.max_trials / SHARD_TRIALS)
    trials = errors = 0
    next_shard = 0

    def shard_size(j: int) -> int:
        return min(SHARD_TRIALS, spec.max_trials - j * SHARD_TRIALS)

    def run_shard(j: int) -> int:
        rng = substream(seed, "eval", label, point_index, j)
        return trial_fn(shard_size(j), rng)

    with (ThreadPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        while next_shard < shard_cap:
            batch = list(range(next_shard, min(next_shard + workers, shard_cap)))
            if pool is None or len(batch) == 1:
                results = [run_shard(j) for j in batch]
            else:
                results = list(pool.map(run_shard, batch))
            stop = False
            for j, errs in zip(batch, results):
                trials += shard_size(j)
                errors += int(errs)
                if trials >= spec.min_trials and errors >= spec.target_errors:
                    stop = True
                    break
            if stop:
                break
            next_shard += len(batch)
    return BlerPoint.from_counts(ebn0_db, trials, errors)


def _sweep(codebook, model, decide, k, n, spec, seed, label, workers):
    """BLER points of one system. A shard draws its messages and channel
    state, then, one block of DECIDE_ROWS rows at a time, what the receiver
    observes of the messages' codebook rows, block noise before pilot
    noise; decide(y, y_pilot, state) returns the decided message indices
    of a block. Eb/N0 counts k information bits over n complex channel
    uses."""
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    points = []
    for i, ebn0 in enumerate(spec.ebn0_db):
        std = channel.noise_std_from_snr(ebn0, k, n)

        def trial_fn(n_trials: int, rng: np.random.Generator) -> int:
            messages = rng.integers(0, len(codebook), size=n_trials)
            state = model.draw_state(rng, n_trials)
            misses = 0
            for start in range(0, n_trials, DECIDE_ROWS):
                rows = slice(start, start + DECIDE_ROWS)
                sent = messages[rows]
                # np.take gathers rows of a narrow 2-D array several times
                # faster than fancy indexing
                blocks = np.take(codebook, sent, axis=0)
                block_state = None if state is None else state[rows]
                y, y_pilot = model.observe(blocks, block_state, std, rng)
                decided = decide(y, y_pilot, block_state)
                misses += np.count_nonzero(decided != sent)
            return misses

        points.append(_run_point(trial_fn, ebn0, spec, seed, label, i, workers))
    return points


def bler_sweep_learned(
    tx: transceiver.Transmitter,
    rx: transceiver.Receiver,
    cfg: TrainConfig,
    spec: SweepSpec,
    seed: int | None = None,
    workers: int = 1,
) -> list[BlerPoint]:
    """Monte-Carlo BLER of a trained transmitter/receiver pair on the real
    channel the config names."""
    dims = cfg.net_dims()
    for role, net in (("tx", tx.net), ("rx", rx.net)):
        if (net.input_dim, net.output_dim) != (dims[role][0], dims[role][-1]):
            raise ConfigError(
                f"{role} net maps {net.input_dim} -> {net.output_dim} values, "
                f"but the config builds {dims[role][0]} -> {dims[role][-1]}"
            )
    if seed is None:
        seed = cfg.seed
    # the transmitter is deterministic, so its M blocks serve every trial
    codebook = tx.encode_messages(np.arange(cfg.M))
    return _sweep(codebook, cfg.make_channel(),
                  lambda y, y_pilot, state: rx.decode(y, y_pilot),
                  cfg.k, cfg.n, spec, seed, f"learned-{cfg.channel}", workers)


def bler_sweep_baseline(
    system: str,
    spec: SweepSpec,
    seed: int = 0,
    workers: int = 1,
    n_pilot: int = 1,
) -> list[BlerPoint]:
    """Monte-Carlo BLER of one of the classical reference systems."""
    if system not in BASELINE_SYSTEMS:
        raise ConfigError(
            f"unknown baseline {system!r}; choose from {', '.join(BASELINE_SYSTEMS)}"
        )
    if n_pilot < 1:
        raise ConfigError("n_pilot: must be >= 1")
    if system == "hamming74-mld-awgn":
        # 4 bits over 7 BPSK uses; a BPSK use carries one real, so the
        # codebook is 7 reals wide and only in-phase noise is drawn
        return _sweep(baseline.hamming74_bpsk_codebook(), channel.make_channel("awgn"),
                      lambda y, y_pilot, state: baseline.hamming74_mld_decode(y),
                      4, 7, spec, seed, system, workers)
    # uncoded 16-QAM, one complex use carrying 4 bits; perfect CSI is
    # fading without pilots
    model = channel.make_channel(
        "rayleigh", 0 if system == "qam16-rayleigh-perfect-csi" else n_pilot)
    return _sweep(baseline.qam16_codebook(), model, _qam16_decide,
                  4, 1, spec, seed, system, workers)


def _qam16_decide(y, y_pilot, h):
    """Equalize by the LS estimate of the received pilots, or by the true h
    on a channel without pilots, then take the nearest 16-QAM point. An
    exactly-zero estimate cannot be equalized; its block decides -1, an
    error."""
    h_est = h if y_pilot is None else baseline.ls_estimate(channel.iq_to_complex(y_pilot))
    usable = h_est != 0
    decided = np.full(h_est.shape, -1)
    decided[usable] = baseline.qam16_demod_coherent(
        channel.iq_to_complex(y)[:, 0][usable], h_est[usable])
    return decided


def bler_to_csv(points: list[BlerPoint], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["ebn0_db", "trials", "errors", "bler", "ci95_halfwidth"])
        for p in points:
            writer.writerow(
                [repr(p.ebn0_db), p.trials, p.errors, repr(p.bler),
                 repr(p.ci95_halfwidth)]
            )


@dataclass
class ConditionReport:
    """Real-vs-generated comparison for one conditioning value."""

    label: str
    target_mean: np.ndarray  # analytic conditional mean (x, or h*x when fading)
    real_mean: np.ndarray
    fake_mean: np.ndarray
    real_var: np.ndarray  # per real dimension
    fake_var: np.ndarray
    energy_distance: float
    n_samples: int


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> float:
    """Mean Euclidean distance between the rows of a and of b. The
    distances of each chunk of a's rows are summed from one (chunk, len(b))
    buffer, filled 16 rows at a time through one (16, len(b), width)
    buffer of differences."""
    rows = 16
    d = np.empty((min(chunk, a.shape[0]), b.shape[0]))
    diffs = np.empty((min(rows, a.shape[0]), *b.shape))
    total = 0.0
    for start in range(0, a.shape[0], chunk):
        part = a[start : start + chunk]
        for r in range(0, part.shape[0], rows):
            fill = part[r : r + rows]
            diff = np.subtract(fill[:, None, :], b[None, :, :], out=diffs[: len(fill)])
            diff *= diff
            np.sqrt(diff.sum(axis=2), out=d[r : r + len(fill)])
        total += float(d[: part.shape[0]].sum())
    return total / (a.shape[0] * b.shape[0])


def energy_distance(a: np.ndarray, b: np.ndarray, subsample: int = 1024) -> float:
    """Two-sample energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'|.

    V-statistic over the first `subsample` rows of each set; zero iff the
    distributions match (asymptotically), and always >= 0 in expectation.
    """
    a = np.asarray(a, dtype=np.float64)[:subsample]
    b = np.asarray(b, dtype=np.float64)[:subsample]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"sample sets must be 2-D with equal width, "
                         f"got {a.shape} and {b.shape}")
    return (
        2.0 * _mean_pairwise_distance(a, b)
        - _mean_pairwise_distance(a, a)
        - _mean_pairwise_distance(b, b)
    )


def _conditions(x: np.ndarray, h: np.ndarray | None):
    """x as float64 (C, 2n) blocks, and h, when given, as C complex
    coefficients; any other shape of either is refused."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] % 2 != 0:
        raise ValueError(f"conditions must be (C, 2n), got {x.shape}")
    if h is not None:
        h = np.asarray(h, dtype=np.complex128)
        if h.shape != x.shape[:1]:
            raise ValueError(
                f"h {h.shape} must hold one coefficient per condition of {x.shape}")
    return x, h


def _fixed_condition(
    x: np.ndarray, c: int, h: np.ndarray | None, noise_std: float,
    n_samples: int, n_pilot: int,
):
    """The real channel at condition c: a sampler of n_samples received
    blocks, the generator conditioning for them, the noiseless received
    block and a label.

    With h None the channel is AWGN, otherwise block fading with every
    block at h[c]. The channel object gives the noiseless output and
    pilots; ``gan.conditioning`` appends the pilots, as in training.
    """
    xc = np.tile(x[c], (n_samples, 1))
    label = f"x={x[c].round(4).tolist()}"
    if h is None:
        model, state = channel.make_channel("awgn"), None
    else:
        hc = complex(h[c])
        model, state = channel.make_channel("rayleigh", n_pilot), np.full(n_samples, hc)
        label = f"h={hc:.4g}, {label}"
    noiseless, pilots = model.observe(xc, state, 0.0, None)  # draws nothing

    def sample(rng: np.random.Generator) -> np.ndarray:
        return model.apply(xc, state, noise_std, rng)

    return sample, gan.conditioning(xc, pilots), noiseless[0].copy(), label


def gan_fidelity(
    g: gan.Generator | None,
    x: np.ndarray,
    noise_std: float,
    n_samples: int,
    seed: int,
    h: np.ndarray | None = None,
    n_pilot: int = 1,
) -> list[ConditionReport]:
    """Compare generator output against the real channel, per condition.

    x is (C, 2n): one transmitted block per condition. With h given
    (shape (C,), complex), the channel is block fading at those fixed
    coefficients and the generator is conditioned on the noiseless pilot
    observation of h; otherwise the channel is AWGN and the conditioning
    is x alone. g=None runs the calibration mode: a second independent
    set of real samples stands in for the generator, which shows the
    sampling floor of the statistics.
    """
    x, h = _conditions(x, h)
    reports = []
    for c in range(x.shape[0]):
        rng = substream(seed, "fidelity", c)
        sample, m, target, label = _fixed_condition(x, c, h, noise_std, n_samples,
                                                    n_pilot)
        real = sample(rng)
        real2 = sample(rng)
        if g is None:
            fake = real2
        else:
            z = gan.sample_z(rng, n_samples, g.z_dim)
            # the statistics run in float64, whatever the net's dtype
            fake = gan.generate(g, z, m)[0].astype(np.float64)
        reports.append(
            ConditionReport(
                label=label,
                target_mean=target,
                real_mean=real.mean(axis=0),
                fake_mean=fake.mean(axis=0),
                real_var=real.var(axis=0),
                fake_var=fake.var(axis=0),
                energy_distance=energy_distance(real, fake),
                n_samples=n_samples,
            )
        )
    return reports


def constellation_dump(tx: transceiver.Transmitter, path: str) -> None:
    """All M learned blocks as CSV: message, use index, re, im."""
    x = tx.encode_messages(np.arange(tx.m_count))
    symbols = channel.iq_to_complex(x)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["message", "use_index", "re", "im"])
        for msg in range(tx.m_count):
            for use in range(tx.n):
                writer.writerow(
                    [msg, use, repr(float(symbols[msg, use].real)),
                     repr(float(symbols[msg, use].imag))]
                )


def gan_scatter_dump(
    g: gan.Generator,
    x: np.ndarray,
    noise_std: float,
    path: str,
    n_samples: int = 500,
    seed: int = 0,
    h: np.ndarray | None = None,
    n_pilot: int = 1,
) -> None:
    """Real and generated samples per condition as CSV, for scatter plots.

    Rows carry source='condition' (the conditioning block itself, one row
    per use), then 'real' and 'fake' sample rows.
    """
    if n_samples < 1:
        raise ConfigError(f"samples: must be >= 1, got {n_samples}")
    x, h = _conditions(x, h)
    n = x.shape[1] // 2
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["condition", "source", "sample", "use_index", "re", "im"])

        def emit(cond: int, source: str, rows: np.ndarray) -> None:
            symbols = channel.iq_to_complex(rows)
            for s in range(symbols.shape[0]):
                for use in range(n):
                    writer.writerow(
                        [cond, source, s, use,
                         repr(float(symbols[s, use].real)),
                         repr(float(symbols[s, use].imag))]
                    )

        for c in range(x.shape[0]):
            rng = substream(seed, "scatter", c)
            sample, m, _, _ = _fixed_condition(x, c, h, noise_std, n_samples, n_pilot)
            real = sample(rng)
            fake, _ = gan.generate(g, gan.sample_z(rng, n_samples, g.z_dim), m)
            emit(c, "condition", x[c][None, :])
            emit(c, "real", real)
            emit(c, "fake", fake)
