"""System acceptance runs, one test per criterion.

Every test prints a single PASS/FAIL line with its measured margins (run
pytest with -s to watch them stream). The suite trains real systems, so it
takes a few minutes end to end; everything is seeded and deterministic.

Acceptance 2 and 5 also print one line per grid point, and train once per
``--acceptance-seed N`` (repeatable; seed 1 by default).
"""

import math
import time

import numpy as np
import pytest

from gancomm import baseline, channel, evaluate, gan, train
from gancomm.config import TrainConfig
from helpers import central_difference, float64_copy, relative_error


def report(ok: bool, name: str, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def report_margins(test: int, cfg, learned, shifted, system: str) -> float:
    """Print a line per grid point (both BLERs, the learned errors and their
    ratio) and return the worst ratio, which passes at most 1."""
    head = f"acceptance {test}, {cfg.channel}, seed {cfg.seed}"
    ratios = []
    for lp, bp in zip(learned, shifted):
        ratios.append(lp.bler / bp.bler if bp.bler else math.inf)
        print(f"{head}: {lp.ebn0_db:g} dB: learned {lp.bler:.3e} ({lp.errors} errors) "
              f"vs {system} at {bp.ebn0_db:g} dB {bp.bler:.3e}: ratio {ratios[-1]:.3f}",
              flush=True)
    return max(ratios)


def pytest_generate_tests(metafunc):
    # acceptance 2 and 5 train once per --acceptance-seed, seed 1 by default
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize(
            "seed", metafunc.config.getoption("acceptance_seed") or [1], scope="module")


@pytest.fixture(scope="module")
def awgn_run(seed):
    cfg = TrainConfig(seed=seed)
    t0 = time.monotonic()
    trainer = train.train_full(cfg)
    return cfg, trainer, time.monotonic() - t0


@pytest.fixture(scope="module")
def rayleigh_run(seed):
    cfg = TrainConfig(channel="rayleigh", seed=seed)
    trainer = train.train_full(cfg)
    return cfg, trainer


def test_1_gradient_suite_full_size_nets():
    # finite differences against every backward path at the deployed layer
    # widths, including the composite chain that substitutes the generator
    # for the channel; tolerance 1e-4 relative, under one minute. The nets
    # are float64 copies: the same code, at a precision the step resolves
    t0 = time.monotonic()
    worst = 0.0

    def fd_check(net, loss_fn, analytic, count=40):
        nonlocal worst
        flat = net.flat_params()
        idx = np.linspace(0, flat.size - 1, count).astype(int)

        def at(params):
            net.set_flat_params(params)
            return loss_fn()

        fd = central_difference(at, flat, idx)
        net.set_flat_params(flat)
        worst = max(worst, float(relative_error(analytic.flat[idx], fd).max()))

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
        fd_check(
            rx.net,
            lambda: train.receiver_forward_backward(rx, messages, y, y_p)[0],
            rx_grads,
        )

        real_y = rng.normal(size=(batch, 2 * cfg.n))
        fake_y, _ = gan.generate(g, z, cond)
        _, d_grads, _ = gan.d_loss(d, real_y, fake_y, cond)
        fd_check(
            d.net, lambda: gan.d_loss(d, real_y, fake_y, cond)[0], d_grads
        )

        _, g_grads = gan.g_loss(g, d, *gan.generate(g, z, cond), cond)
        fd_check(
            g.net, lambda: gan.g_loss(g, d, *gan.generate(g, z, cond), cond)[0], g_grads
        )

        _, tx_grads = train.transmitter_forward_backward(
            tx, rx, g, messages, z, y_p
        )
        fd_check(
            tx.net,
            lambda: train.transmitter_forward_backward(tx, rx, g, messages, z, y_p)[0],
            tx_grads,
            count=60,
        )

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(ok, "1 gradient suite",
           f"worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_2_awgn_end_to_end_tracks_hamming_within_one_db(awgn_run):
    cfg, trainer, train_seconds = awgn_run
    grid = (2.0, 4.0, 6.0, 8.0)
    spec = evaluate.SweepSpec(
        ebn0_db=grid, min_trials=2000, max_trials=8_000_000, target_errors=200
    )
    shifted = evaluate.SweepSpec(
        ebn0_db=tuple(x - 1.0 for x in grid), min_trials=2000,
        max_trials=8_000_000, target_errors=200,
    )
    learned = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, spec)
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
    g, _, _ = train.train_channel_gan("awgn", 6.0, steps=3000, seed=1)
    std = channel.noise_std_from_snr(6.0, 4, 1)
    x = channel.complex_to_iq(baseline.qam16_constellation()[:, None])
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
    g, _, _ = train.train_channel_gan("rayleigh", 10.0, steps=4000, seed=1)
    coeffs = np.array([1.0 + 0j, 1j, 0.5 - 0.5j])
    x = channel.complex_to_iq(np.repeat(baseline.qam16_constellation(), 3)[:, None])
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


def test_5_rayleigh_end_to_end_within_two_db_of_ls(rayleigh_run):
    cfg, trainer = rayleigh_run
    grid = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    spec = evaluate.SweepSpec(
        ebn0_db=grid, min_trials=2000, max_trials=4_000_000, target_errors=200
    )
    shifted = evaluate.SweepSpec(
        ebn0_db=tuple(x - 2.0 for x in grid), min_trials=2000,
        max_trials=4_000_000, target_errors=200,
    )
    learned = evaluate.bler_sweep_learned(trainer.tx, trainer.rx, cfg, spec)
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
    bpsk = baseline.bpsk_modulate(baseline.hamming74_codebook())
    y = bpsk[messages] + rng.normal(0.0, 0.8, size=(n_blocks, 7))
    fast = baseline.hamming74_mld_decode(y)
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
    hx = channel.complex_to_iq(
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
