"""System acceptance runs, one test per criterion.

Every test prints a single PASS/FAIL line with its measured margins (run
pytest with -s to watch them stream). The suite trains real systems, so it
takes a few minutes end to end; everything is seeded and deterministic.

Acceptance 2, 5 and 9 also print one line per grid point (9 prints
three, then pooled efficiencies and train times per channel), and train
once per
``--acceptance-seed N`` (repeatable; seed 1 by default).
The GAN links and their sweeps are module fixtures, shared by the three
tests.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gancomm import baseline, channel, evaluate, gan, nn, train
from gancomm.config import TrainConfig
from gancomm.rng import substream
from helpers import (check_net_gradients, float64_copy, reference_complex_to_iq,
                     train_channel_gan)


def report(ok: bool, name: str, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def report_margins(test: int, cfg, learned, shifted, system: str,
                   name: str = "learned") -> float:
    """Print a line per grid point (both BLERs, the learned errors and their
    ratio) and return the worst ratio, which passes at most 1."""
    head = f"acceptance {test}, {cfg.channel}, seed {cfg.seed}"
    ratios = []
    for lp, bp in zip(learned, shifted):
        ratios.append(lp.bler / bp.bler if bp.bler else math.inf)
        print(f"{head}: {lp.ebn0_db:g} dB: {name} {lp.bler:.3e} ({lp.errors} errors) "
              f"vs {system} at {bp.ebn0_db:g} dB {bp.bler:.3e}: ratio {ratios[-1]:.3f}",
              flush=True)
    return max(ratios)


@pytest.fixture(autouse=True)
def fresh_line():
    # under -s a test's first line would follow pytest's progress output
    # (the file name, or the last test's dot); a newline starts it at
    # column 0, where grep '^acceptance' finds it
    print()


def pytest_generate_tests(metafunc):
    # acceptance 2, 5 and 9 train once per --acceptance-seed, seed 1 by default
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize(
            "seed", metafunc.config.getoption("acceptance_seed") or [1], scope="module")


# the grids and trial caps of acceptance 2 (AWGN, against Hamming MLD 1 dB
# lower) and 5 (Rayleigh, against LS 16-QAM 2 dB lower); acceptance 9 sweeps
# its control arm over the same
AWGN_SPEC = evaluate.SweepSpec(
    ebn0_db=(2.0, 4.0, 6.0, 8.0), min_trials=2000, max_trials=32_000_000,
    target_errors=200,
)
RAYLEIGH_SPEC = evaluate.SweepSpec(
    ebn0_db=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0), min_trials=2000,
    max_trials=4_000_000, target_errors=200,
)


def trained(cfg, trainer_class=train.Trainer):
    """A trainer that has run cfg's schedule, and the seconds that took."""
    t0 = time.monotonic()
    trainer = trainer_class(cfg)
    trainer.run()
    return trainer, time.monotonic() - t0


@pytest.fixture(scope="module")
def awgn_run(seed):
    cfg = TrainConfig(seed=seed)
    return cfg, *trained(cfg)


@pytest.fixture(scope="module")
def rayleigh_run(seed):
    cfg = TrainConfig(channel="rayleigh", seed=seed)
    return cfg, *trained(cfg)


@pytest.fixture(scope="module")
def awgn_sweep(awgn_run):
    # the GAN link's BLER over acceptance 2's grid
    cfg, trainer, _ = awgn_run
    return evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, AWGN_SPEC)


@pytest.fixture(scope="module")
def rayleigh_sweep(rayleigh_run):
    # the GAN link's BLER over acceptance 5's grid
    cfg, trainer, _ = rayleigh_run
    return evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, RAYLEIGH_SPEC)


def test_1_gradient_suite_full_size_nets():
    # finite differences against every backward path at the deployed layer
    # widths, including the composite chain that substitutes the generator
    # for the channel; tolerance 1e-4 relative, under one minute. The nets
    # are float64 copies: the same code, at a precision the step resolves
    t0 = time.monotonic()
    errors = []
    for channel_kind in ("awgn", "rayleigh"):
        cfg = TrainConfig(channel=channel_kind, seed=17)
        tx, rx, g, d = train.build_system(cfg)
        for part in (tx, rx, g, d):
            part.net = float64_copy(part.net)
        rng = np.random.default_rng(23)
        batch = 8
        messages = rng.integers(0, cfg.M, size=batch)
        z = gan.sample_z(rng, batch, cfg.z_dim)
        y_p = rng.normal(size=(batch, 2 * cfg.n_pilot)) if cfg.is_fading else None
        y = rng.normal(size=(batch, 2 * cfg.n))
        cond = gan.conditioning(tx.encode(messages)[0], y_p)

        _, rx_grads = train.receiver_forward_backward(rx, messages, y, y_p)
        errors.append(check_net_gradients(
            rx.net,
            lambda: train.receiver_forward_backward(rx, messages, y, y_p)[0],
            rx_grads,
        ))

        real_y = rng.normal(size=(batch, 2 * cfg.n))
        fake_y, _ = gan.generate(g, z, cond)
        rows = gan.real_fake_rows(d, real_y, fake_y, cond)
        _, d_grads, _ = gan.d_loss(d, rows)
        errors.append(check_net_gradients(
            d.net, lambda: gan.d_loss(d, rows)[0], d_grads
        ))

        def g_loss():
            fake_y, g_tape = gan.generate(g, z, cond)
            return gan.g_loss(g, d, gan.real_fake_rows(d, real_y, fake_y, cond), g_tape)

        _, g_grads = g_loss()
        errors.append(check_net_gradients(g.net, lambda: g_loss()[0], g_grads))

        _, tx_grads = train.transmitter_forward_backward(
            tx, rx, g, messages, z, y_p
        )
        errors.append(check_net_gradients(
            tx.net,
            lambda: train.transmitter_forward_backward(tx, rx, g, messages, z, y_p)[0],
            tx_grads,
            count=60,
        ))

    worst = max(errors)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(ok, "1 gradient suite",
           f"worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_2_awgn_end_to_end_tracks_hamming_within_one_db(awgn_run, awgn_sweep):
    cfg, _, train_seconds = awgn_run
    shifted = dataclasses.replace(
        AWGN_SPEC, ebn0_db=tuple(x - 1.0 for x in AWGN_SPEC.ebn0_db))
    learned = awgn_sweep
    oracle = evaluate.bler_sweep_baseline("hamming74-mld-awgn", shifted, seed=7)
    worst = report_margins(2, cfg, learned, oracle, "hamming74-mld-awgn")
    ok_points = all(lp.bler <= op.bler for lp, op in zip(learned, oracle))
    ok_errors = all(p.errors >= 200 for p in learned + oracle)
    ok_time = train_seconds <= 900.0
    report(ok_points and ok_errors and ok_time, f"2 awgn end-to-end, seed {cfg.seed}",
           f"train {train_seconds:.0f}s <= 900s; worst ratio {worst:.3f} to mld(-1dB)")
    assert ok_time, f"training took {train_seconds:.0f}s"
    assert ok_errors, "a sweep point stopped short of 200 errors"
    for lp, op in zip(learned, oracle):
        assert lp.bler <= op.bler, (
            f"at {lp.ebn0_db:g} dB learned {lp.bler:.3e} exceeds "
            f"the 1 dB-shifted reference {op.bler:.3e}"
        )


def test_3_awgn_surrogate_matches_channel_statistics():
    g, _, _ = train_channel_gan("awgn", 6.0, steps=3000, seed=1)
    std = channel.noise_std_from_snr(6.0, 4, 1)
    x = baseline.qam16_codebook()
    reports = evaluate.gan_fidelity(g, x, std, n_samples=10_000, seed=2)
    mean_dist = max(
        float(np.linalg.norm(r.fake_mean - r.target_mean)) for r in reports
    )
    ratios = np.concatenate([r.fake_var / std**2 for r in reports])
    ok = mean_dist <= 0.1 and ratios.min() >= 0.8 and ratios.max() <= 1.25
    report(ok, "3 awgn surrogate fidelity",
           f"worst mean offset {mean_dist:.4f} <= 0.1, var/true in "
           f"[{ratios.min():.3f}, {ratios.max():.3f}] within [0.8, 1.25]")
    assert mean_dist <= 0.1
    assert ratios.min() >= 0.8 and ratios.max() <= 1.25


def test_4_fading_surrogate_follows_the_pilot():
    g, _, _ = train_channel_gan("rayleigh", 10.0, steps=4000, seed=1)
    coeffs = np.array([1.0 + 0j, 1j, 0.5 - 0.5j])
    x = np.repeat(baseline.qam16_codebook(), 3, axis=0)
    h = np.tile(coeffs, 16)
    std = channel.noise_std_from_snr(10.0, 4, 1)
    reports = evaluate.gan_fidelity(g, x, std, n_samples=10_000, seed=2, h=h)
    mean_dist = max(
        float(np.linalg.norm(r.fake_mean - r.target_mean)) for r in reports
    )
    ok = mean_dist <= 0.15
    report(ok, "4 fading surrogate conditioning",
           f"worst |mean - h*x| {mean_dist:.4f} <= 0.15 over "
           f"{len(reports)} (x, h) pairs")
    assert mean_dist <= 0.15


def test_5_rayleigh_end_to_end_within_two_db_of_ls(rayleigh_run, rayleigh_sweep):
    cfg, _, _ = rayleigh_run
    shifted = dataclasses.replace(
        RAYLEIGH_SPEC, ebn0_db=tuple(x - 2.0 for x in RAYLEIGH_SPEC.ebn0_db))
    learned = rayleigh_sweep
    ls = evaluate.bler_sweep_baseline("qam16-rayleigh-ls", shifted, seed=7)
    worst = report_margins(5, cfg, learned, ls, "qam16-rayleigh-ls")
    ok = all(lp.bler <= op.bler for lp, op in zip(learned, ls))
    report(ok, f"5 rayleigh end-to-end, seed {cfg.seed}",
           f"worst ratio {worst:.3f} to ls(-2dB)")
    for lp, op in zip(learned, ls):
        assert lp.bler <= op.bler, (
            f"at {lp.ebn0_db:g} dB learned {lp.bler:.3e} exceeds "
            f"the 2 dB-shifted LS reference {op.bler:.3e}"
        )


def test_6_mld_equals_exhaustive_search():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    n_blocks = 10_000
    messages = rng.integers(0, 16, size=n_blocks)
    bpsk = baseline.hamming74_bpsk_codebook()
    y = bpsk[messages] + rng.normal(0.0, 0.8, size=(n_blocks, 7))
    fast = baseline.nearest_codeword(y, bpsk, baseline.half_energy(bpsk))
    sq = ((y[:, None, :] - bpsk[None, :, :]) ** 2).sum(axis=2)
    exhaustive = sq.argmin(axis=1)
    mismatches = int(np.sum(fast != exhaustive))
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(ok, "6 mld oracle equivalence",
           f"{mismatches} mismatches in {n_blocks} blocks, {elapsed:.2f}s < 5s")
    assert mismatches == 0
    assert elapsed < 5.0


def test_7_channel_monte_carlo_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)

    h = channel.rayleigh_sample(rng, 1_000_000)
    power = float(np.mean(np.abs(h) ** 2))
    quad_corr = float(np.mean(h.real * h.imag))

    std = channel.noise_std_from_snr(4.0, 4, 7)
    x = np.zeros((50_000, 14))
    awgn_var = float(channel.awgn_apply(x, std, rng).var())

    ones = np.ones((50_000, 14))
    h_batch = channel.rayleigh_sample(rng, 50_000)
    y = channel.fading_apply(ones, h_batch, std, rng)
    hx = reference_complex_to_iq(
        np.asarray(h_batch)[:, None] * channel.iq_to_complex(ones)
    )
    fading_noise_var = float((y - hx).var())

    h_fixed = 0.7 - 0.3j
    pilots = h_fixed + std * (
        rng.standard_normal((200_000, 4)) + 1j * rng.standard_normal((200_000, 4))
    )
    ls_bias = abs(complex(np.mean(baseline.ls_estimate(pilots))) - h_fixed)

    elapsed = time.monotonic() - t0
    checks = {
        "E|h|^2": abs(power - 1.0) <= 0.02,
        "quadrature corr": abs(quad_corr) <= 0.01,
        "awgn var": abs(awgn_var / std**2 - 1.0) <= 0.02,
        "fading noise var": abs(fading_noise_var / std**2 - 1.0) <= 0.02,
        "ls bias": ls_bias <= 0.002,
        "runtime": elapsed < 30.0,
    }
    ok = all(checks.values())
    report(ok, "7 channel statistics",
           f"E|h|^2={power:.4f}, awgn var ratio={awgn_var / std**2:.4f}, "
           f"fading var ratio={fading_noise_var / std**2:.4f}, "
           f"ls bias={ls_bias:.2e}, {elapsed:.1f}s < 30s")
    for name, passed in checks.items():
        assert passed, name


def _train_twice_and_compare(tmp_path, cfg_kwargs, spec):
    """Train and sweep twice; the names of the outputs that differ."""
    dirs = []
    for run in ("a", "b"):
        out = tmp_path / run
        trainer = train.train_full(TrainConfig(**cfg_kwargs), out_dir=str(out))
        points = evaluate.bler_sweep_learned(
            trainer.tx, trainer.rx, trainer.cfg, spec, workers=3
        )
        evaluate.bler_to_csv(points, str(out / "bler.csv"))
        dirs.append(out)

    names = ["transmitter.json", "receiver.json", "generator.json",
             "discriminator.json", "config.json", "train_log.csv", "bler.csv"]
    return [
        name for name in names
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]


def test_8_identical_runs_are_byte_identical(tmp_path):
    # a complete (reduced-size) pipeline run twice: training, checkpoints,
    # step log, and a BLER sweep CSV must match byte for byte
    cfg_kwargs = dict(outer_iterations=30, final_rx_steps=50, seed=5)
    spec = evaluate.SweepSpec(
        ebn0_db=(2.0, 6.0), min_trials=2000, max_trials=100_000,
        target_errors=50,
    )
    mismatched = _train_twice_and_compare(tmp_path, cfg_kwargs, spec)
    ok = not mismatched
    report(ok, "8 determinism",
           "all checkpoint and csv bytes equal across two runs"
           if ok else f"files differ: {', '.join(mismatched)}")
    assert not mismatched, f"files differ: {mismatched}"


def test_8_identical_rayleigh_runs_are_byte_identical(tmp_path):
    # the fading draw path (h from the batch stream, block then pilot noise
    # from the channel stream, pilot-only draws in the transmitter phase)
    # on a shorter schedule
    cfg_kwargs = dict(channel="rayleigh", outer_iterations=8, warmup_gan_steps=20,
                      final_rx_steps=20, seed=5)
    spec = evaluate.SweepSpec(
        ebn0_db=(6.0, 14.0), min_trials=2000, max_trials=60_000,
        target_errors=50,
    )
    mismatched = _train_twice_and_compare(tmp_path, cfg_kwargs, spec)
    ok = not mismatched
    report(ok, "8 determinism (rayleigh)",
           "all checkpoint and csv bytes equal across two runs"
           if ok else f"files differ: {', '.join(mismatched)}")
    assert not mismatched, f"files differ: {mismatched}"


class KnownChannelTrainer(train.Trainer):
    """The known-channel arm: the transmitter trains through the real
    channel and its own gradient, dy/dx = I on AWGN and conj(h) per complex
    use on block fading, where the GAN link uses the generator. A control
    for acceptance 9; the product path never has this gradient."""

    def train_transmitter_step(self, iteration: int) -> float:
        messages, h = self._draw_batch()
        x, tx_tape = self.tx.encode(messages)
        y, y_p = self.channel_model.observe(x, h, self.noise_std, self._rng_channel)
        logits, rx_tape = self.rx.forward_logits(y, y_p)
        loss, grad_logits = nn.softmax_cross_entropy(logits, messages)
        _, rx_input_grad = nn.backward(self.rx.net, rx_tape, grad_logits, params=False)
        x_grad = rx_input_grad[:, : x.shape[1]]
        if h is not None:
            x_grad = reference_complex_to_iq(
                np.conj(h)[:, None] * channel.iq_to_complex(x_grad))
        nn.adam_step(self.tx.net, self.tx.backward(tx_tape, x_grad), self.tx_opt)
        self._codebook = None
        return self._record(iteration, "tx", loss)


class PolicyGradientTrainer(train.Trainer):
    """The policy-gradient arm (Aoudia and Hoydis, arXiv:1804.02276): the
    transmitter sends perturbed blocks x_p = sqrt(1 - s^2) x + s w, w from
    a stream of its own, through the real channel, and learns from nothing
    but the receiver's loss on each block, by the score-function estimate
    of the gradient: (l_i - mean l) sqrt(1 - s^2) w_i / (s B) per block. A
    control for acceptance 9, with no GAN and no channel model; the product
    path never trains this way."""

    # the perturbation's standard deviation, fixed before any run
    SIGMA = 0.15

    def __init__(self, cfg: TrainConfig):
        super().__init__(cfg)
        self._rng_perturb = substream(cfg.seed, "train", "perturb")

    def train_transmitter_step(self, iteration: int) -> float:
        messages, state = self._draw_batch()
        x, tx_tape = self.tx.encode(messages)
        w = self._rng_perturb.standard_normal(x.shape)
        keep = math.sqrt(1.0 - self.SIGMA**2)
        y, y_p = self.channel_model.observe(keep * x + self.SIGMA * w, state,
                                            self.noise_std, self._rng_channel)
        # each block's cross-entropy; the receiver is only read
        logits = self.rx.forward_logits(y, y_p)[0].astype(np.float64)
        logits -= logits.max(axis=1, keepdims=True)
        losses = (np.log(np.exp(logits).sum(axis=1))
                  - logits[np.arange(len(messages)), messages])
        weights = (losses - losses.mean()) * keep / (self.SIGMA * len(messages))
        nn.adam_step(self.tx.net, self.tx.backward(tx_tape, weights[:, None] * w),
                     self.tx_opt)
        self._codebook = None
        return self._record(iteration, "tx", float(losses.mean()))


def surrogate_efficiency(rx_only: float, arm: float, known: float) -> str:
    """ln(B_rx-only / B_arm) / ln(B_rx-only / B_known): 0 when the arm
    does no better than an untrained transmitter, 1 when it does as well as
    the known channel; n/a where a BLER is 0 or the known arm does no
    better than rx-only."""
    if min(rx_only, arm, known) <= 0.0 or known == rx_only:
        return "n/a"
    return f"{math.log(rx_only / arm) / math.log(rx_only / known):.3f}"


def pooled_efficiency(arm_points, rx_only, known) -> float:
    """sum ln(B_rx-only / B_arm) / sum ln(B_rx-only / B_known) over the grid
    points where all three BLERs are above 0; NaN, which fails any bound,
    where no point counts or the known arm does no better than rx-only in
    the sum."""
    gained = possible = 0.0
    for ap, rp, kp in zip(arm_points, rx_only, known):
        if min(ap.bler, rp.bler, kp.bler) > 0.0:
            gained += math.log(rp.bler / ap.bler)
            possible += math.log(rp.bler / kp.bler)
    return gained / possible if possible > 0.0 else math.nan


# the least pooled surrogate efficiency acceptance 9 accepts on either
# channel; per-point efficiencies on seeds 1, 3 and 4 read 0.807-0.975 on
# AWGN and 0.636-1.014 on Rayleigh. Fixed before any held-out seed ran
# under it; not to be moved to pass a seed
POOLED_EFFICIENCY_BOUND = 0.6


def test_9_the_gan_link_beats_the_receiver_only_arm(seed, awgn_run, rayleigh_run,
                                                    awgn_sweep, rayleigh_sweep):
    # the control arm: no GAN and no transmitter steps, so the transmitter
    # keeps its random initialization and only the receiver trains, on the
    # real channel. Swept on the same trials as the GAN link (the sweep
    # seed is the training seed), it must do no better at any grid point.
    # The known-channel arm, on the same trials, gives each point's
    # surrogate efficiency, reported with no bound, and each channel's
    # pooled efficiency, which must reach POOLED_EFFICIENCY_BOUND. The
    # policy-gradient arm, the model-free reference the GAN link ought to
    # beat, is reported the same way, with no bound
    worse = []
    worst = {}
    pooled = {}
    for kind, run, gan_points, spec in (("awgn", awgn_run, awgn_sweep, AWGN_SPEC),
                                        ("rayleigh", rayleigh_run, rayleigh_sweep,
                                         RAYLEIGH_SPEC)):
        head = f"acceptance 9, {kind}, seed {seed}"
        cfg = TrainConfig(channel=kind, seed=seed, tx_steps=0, gan_steps=0,
                          warmup_gan_steps=0)
        arm, rx_only_seconds = trained(cfg)
        rx_only = evaluate.bler_sweep_learned(arm.tx, arm.rx, cfg, spec)
        worst[kind] = report_margins(9, cfg, gan_points, rx_only, "rx-only", "GAN")
        no_gan = TrainConfig(channel=kind, seed=seed, gan_steps=0, warmup_gan_steps=0)
        known_arm, known_seconds = trained(no_gan, KnownChannelTrainer)
        known = evaluate.bler_sweep_learned(known_arm.tx, known_arm.rx, no_gan, spec)
        pg_arm, pg_seconds = trained(no_gan, PolicyGradientTrainer)
        pg = evaluate.bler_sweep_learned(pg_arm.tx, pg_arm.rx, no_gan, spec)
        for gp, rp, kp, pp in zip(gan_points, rx_only, known, pg):
            print(f"{head}: {kp.ebn0_db:g} dB: known channel {kp.bler:.3e} "
                  f"({kp.errors} errors): efficiency "
                  f"{surrogate_efficiency(rp.bler, gp.bler, kp.bler)}", flush=True)
            print(f"{head}: {pp.ebn0_db:g} dB: policy gradient {pp.bler:.3e} "
                  f"({pp.errors} errors): efficiency "
                  f"{surrogate_efficiency(rp.bler, pp.bler, kp.bler)}", flush=True)
        pooled[kind] = pooled_efficiency(gan_points, rx_only, known)
        print(f"{head}: pooled efficiency {pooled[kind]:.3f}", flush=True)
        print(f"{head}: policy gradient pooled efficiency "
              f"{pooled_efficiency(pg, rx_only, known):.3f}", flush=True)
        print(f"{head}: train seconds: GAN {run[2]:.1f}, rx-only {rx_only_seconds:.1f}, "
              f"known channel {known_seconds:.1f}, policy gradient {pg_seconds:.1f}",
              flush=True)
        worse += [f"{kind} at {gp.ebn0_db:g} dB: GAN {gp.bler:.3e} > rx-only {rp.bler:.3e}"
                  for gp, rp in zip(gan_points, rx_only) if gp.bler > rp.bler]
        if not pooled[kind] >= POOLED_EFFICIENCY_BOUND:
            worse.append(f"{kind} pooled efficiency {pooled[kind]:.3f} "
                         f"< {POOLED_EFFICIENCY_BOUND}")
    report(not worse, f"9 gan beats rx-only, seed {seed}",
           ", ".join(f"{kind} worst ratio {worst[kind]:.3f}, pooled efficiency "
                     f"{pooled[kind]:.3f} >= {POOLED_EFFICIENCY_BOUND}" for kind in worst))
    assert not worse, "; ".join(worse)
