"""BLER sweep harness, its stop rule, and the GAN fidelity report."""

import csv
import math

import numpy as np
import pytest

from gancomm import baseline, channel, evaluate, gan, nn, train, transceiver
from gancomm.config import ConfigError, TrainConfig
from gancomm.rng import substream
from helpers import reference_correlation_decode, reference_energy_distance, reference_qam16_demod


def q_func(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestSweepSpec:
    def test_coerces_points_to_float_tuple(self):
        spec = evaluate.SweepSpec(ebn0_db=(0, 2, 4))
        assert spec.ebn0_db == (0.0, 2.0, 4.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            evaluate.SweepSpec(ebn0_db=())

    def test_rejects_inverted_trial_bounds(self):
        with pytest.raises(ConfigError):
            evaluate.SweepSpec(ebn0_db=(0.0,), min_trials=100, max_trials=50)

    def test_rejects_nonfinite_point(self):
        with pytest.raises(ConfigError):
            evaluate.SweepSpec(ebn0_db=(0.0, float("inf")))

    @pytest.mark.parametrize("point", [float("nan"), 300.5, -4000, 10**400],
                             ids=["nan", "300.5", "-4000", "huge-int"])
    def test_rejects_points_the_noise_model_cannot_represent(self, point):
        with pytest.raises(ConfigError, match="ebn0_db"):
            evaluate.SweepSpec(ebn0_db=(0.0, point))

    @pytest.mark.parametrize("point", [300, -300.0])
    def test_accepts_points_at_the_bound(self, point):
        assert evaluate.SweepSpec(ebn0_db=(point,)).ebn0_db == (float(point),)


class TestBlerPoint:
    def test_frozen_ci_halfwidth(self):
        # 1.96 * sqrt(p (1-p) / n) evaluated by hand for 37/2000
        pt = evaluate.BlerPoint.from_counts(3.0, 2000, 37)
        assert pt.bler == 0.0185
        assert pt.ci95_halfwidth == pytest.approx(0.005905709627132035, rel=1e-15)

    def test_zero_errors_lead_to_zero_width(self):
        pt = evaluate.BlerPoint.from_counts(3.0, 1000, 0)
        assert pt.bler == 0.0
        assert pt.ci95_halfwidth == 0.0

    def test_rejects_more_errors_than_trials(self):
        with pytest.raises(ValueError):
            evaluate.BlerPoint.from_counts(0.0, 10, 11)


def one_percent(n_trials, rng):
    return n_trials // 100


class TestRunPointStopRule:
    def test_stops_at_first_shard_once_target_reached(self):
        spec = evaluate.SweepSpec(ebn0_db=(0.0,), min_trials=2000, target_errors=200)
        pt = evaluate._run_point(one_percent, 0.0, spec, 0, "t", 0, workers=1)
        assert (pt.trials, pt.errors) == (evaluate.SHARD_TRIALS, 200)
        assert pt.bler == 0.01

    def test_accumulates_shards_until_target(self):
        spec = evaluate.SweepSpec(ebn0_db=(0.0,), min_trials=2000, target_errors=500)
        pt = evaluate._run_point(one_percent, 0.0, spec, 0, "t", 0, workers=1)
        assert (pt.trials, pt.errors) == (3 * evaluate.SHARD_TRIALS, 600)

    def test_max_trials_caps_the_point_with_a_short_last_shard(self):
        spec = evaluate.SweepSpec(
            ebn0_db=(0.0,), min_trials=2000, max_trials=30_000, target_errors=500
        )
        pt = evaluate._run_point(one_percent, 0.0, spec, 0, "t", 0, workers=1)
        assert (pt.trials, pt.errors) == (30_000, 300)

    def test_min_trials_keeps_an_early_hit_running(self):
        spec = evaluate.SweepSpec(
            ebn0_db=(0.0,), min_trials=50_000, target_errors=10
        )
        pt = evaluate._run_point(lambda n, rng: n, 0.0, spec, 0, "t", 0, workers=1)
        assert pt.trials == 60_000
        assert pt.bler == 1.0

    def test_parallel_wave_never_pads_past_the_stop(self):
        # workers=4 schedules four shards, but the merge must stop at the
        # first one and discard the rest of the wave
        spec = evaluate.SweepSpec(ebn0_db=(0.0,), min_trials=2000, target_errors=200)
        pt = evaluate._run_point(one_percent, 0.0, spec, 0, "t", 0, workers=4)
        assert (pt.trials, pt.errors) == (evaluate.SHARD_TRIALS, 200)

    def test_result_is_invariant_to_worker_count(self):
        def noisy_fn(n_trials, rng):
            return int((rng.uniform(size=n_trials) < 0.03).sum())

        spec = evaluate.SweepSpec(ebn0_db=(0.0,), min_trials=2000, target_errors=900)
        pts = [
            evaluate._run_point(noisy_fn, 0.0, spec, 5, "t", 0, workers=w)
            for w in (1, 2, 3, 7)
        ]
        assert len({(p.trials, p.errors) for p in pts}) == 1

    def test_shard_streams_differ_by_index(self):
        seen = []

        def recording_fn(n_trials, rng):
            seen.append(rng.uniform())
            return 0

        spec = evaluate.SweepSpec(
            ebn0_db=(0.0,), min_trials=1, max_trials=60_000, target_errors=1
        )
        evaluate._run_point(recording_fn, 0.0, spec, 5, "t", 0, workers=1)
        assert len(seen) == 3
        assert len(set(seen)) == 3


def small_system(seed=0):
    cfg = TrainConfig(k=2, n=2, tx_hidden=(8,), rx_hidden=(8,))
    rng = np.random.default_rng(seed)
    tx = transceiver.Transmitter(nn.DenseNet.create((4, 8, 4), rng))
    rx = transceiver.Receiver(nn.DenseNet.create((4, 8, 4), rng))
    return cfg, tx, rx


def reference_sweep(label, shard_errors, spec, seed):
    """A sweep point by point: the shards, substreams and stop rule of
    evaluate's sweeps, with shard_errors(ebn0_db, n_trials, rng) counting
    the errors of one shard trial by trial."""
    points = []
    for i, ebn0 in enumerate(spec.ebn0_db):
        trials = errors = 0
        for j in range(math.ceil(spec.max_trials / evaluate.SHARD_TRIALS)):
            size = min(evaluate.SHARD_TRIALS, spec.max_trials - j * evaluate.SHARD_TRIALS)
            errors += shard_errors(ebn0, size, substream(seed, "eval", label, i, j))
            trials += size
            if trials >= spec.min_trials and errors >= spec.target_errors:
                break
        points.append(evaluate.BlerPoint.from_counts(ebn0, trials, errors))
    return points


def decide_blocks(size):
    """The row slices of a shard's blocks of evaluate.DECIDE_ROWS rows."""
    return [slice(start, start + evaluate.DECIDE_ROWS)
            for start in range(0, size, evaluate.DECIDE_ROWS)]


def learned_shard(tx, rx, cfg):
    """Encode each message, take the receiver's logits, argmax. Draw order:
    messages, h, then for each block of evaluate.DECIDE_ROWS rows its block
    noise and then its pilot noise."""
    model = cfg.make_channel()

    def shard_errors(ebn0, size, rng):
        std = channel.noise_std_from_snr(ebn0, cfg.k, cfg.n)
        messages = rng.integers(0, cfg.M, size=size)
        x = np.concatenate([tx.encode(messages[t:t + 1])[0] for t in range(size)])
        h = model.draw_state(rng, size)
        y, y_pilot = zip(*(model.observe(x[rows], None if h is None else h[rows],
                                         std, rng)
                           for rows in decide_blocks(size)))
        y = np.concatenate(y)
        y_pilot = None if y_pilot[0] is None else np.concatenate(y_pilot)
        errors = 0
        for t in range(size):
            pilot = None if y_pilot is None else y_pilot[t:t + 1]
            logits, _ = rx.forward_logits(y[t:t + 1], pilot)
            errors += int(np.argmax(logits[0]) != messages[t])
        return errors

    return shard_errors


def hamming_shard(ebn0, size, rng):
    """Each message's BPSK codeword over AWGN (in-phase noise only, 4 bits
    over 7 uses), MLD one block at a time by correlation."""
    std = channel.noise_std_from_snr(ebn0, 4, 7)
    messages = rng.integers(0, 16, size=size)
    y = channel.awgn_apply(baseline.hamming74_bpsk_codebook()[messages], std, rng)
    return sum(int(reference_correlation_decode(y[t:t + 1])[0] != messages[t])
               for t in range(size))


def qam16_shard(n_pilot):
    """16-QAM over Rayleigh fading, one complex use carrying 4 bits. Draw
    order: messages, h, then for each block of evaluate.DECIDE_ROWS rows its
    block noise and then its pilot noise. With n_pilot 0 the receiver
    equalizes by the true h, otherwise by the LS estimate of the received
    pilots, and takes the constellation point nearest in |eq - point|; an
    exactly-zero estimate is an error."""

    def shard_errors(ebn0, size, rng):
        std = channel.noise_std_from_snr(ebn0, 4, 1)
        messages = rng.integers(0, 16, size=size)
        x = baseline.qam16_codebook()[messages]
        h = channel.rayleigh_sample(rng, size)
        y, h_est = np.empty(size, dtype=np.complex128), h.copy()
        for rows in decide_blocks(size):
            y[rows] = channel.iq_to_complex(
                channel.fading_apply(x[rows], h[rows], std, rng))[:, 0]
            if n_pilot:
                pilots = channel.pilot_receive(h[rows], std, n_pilot, rng)
                h_est[rows] = baseline.ls_estimate(channel.iq_to_complex(pilots))
        return sum(
            int(h_est[t] == 0
                or reference_qam16_demod(y[t:t + 1], h_est[t:t + 1])[0]
                != messages[t])
            for t in range(size)
        )

    return shard_errors


class TestLearnedSweep:
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_matches_the_trial_by_trial_reference(self, kind, monkeypatch):
        # short shards, so a point spans several and three workers run waves
        monkeypatch.setattr(evaluate, "SHARD_TRIALS", 100)
        cfg = TrainConfig(k=2, n=2, channel=kind, tx_hidden=(8,), rx_hidden=(8,))
        tx, rx, _, _ = train.build_system(cfg)
        spec = evaluate.SweepSpec(ebn0_db=(0.0, 8.0), min_trials=250, max_trials=950,
                                  target_errors=300)
        expected = reference_sweep(f"learned-{kind}", learned_shard(tx, rx, cfg),
                                   spec, seed=13)
        for workers in (1, 3):
            assert evaluate.bler_sweep_learned(
                tx, rx, cfg, spec, seed=13, workers=workers) == expected

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_a_shorter_last_shard_matches_the_reference(self, kind, monkeypatch):
        # every point runs all 11 shards, the last one of 50 trials
        monkeypatch.setattr(evaluate, "SHARD_TRIALS", 100)
        cfg = TrainConfig(k=2, n=2, channel=kind, tx_hidden=(8,), rx_hidden=(8,))
        tx, rx, _, _ = train.build_system(cfg)
        spec = evaluate.SweepSpec(ebn0_db=(2.0, 6.0), min_trials=1050,
                                  max_trials=1050, target_errors=10**6)
        expected = reference_sweep(f"learned-{kind}", learned_shard(tx, rx, cfg),
                                   spec, seed=14)
        assert [p.trials for p in expected] == [1050, 1050]
        for workers in (1, 3):
            assert evaluate.bler_sweep_learned(
                tx, rx, cfg, spec, seed=14, workers=workers) == expected

    def test_dimension_mismatch_is_rejected(self):
        cfg, tx, rx = small_system()
        other = transceiver.Transmitter(
            nn.DenseNet.create((8, 32, 32, 4), np.random.default_rng(1)))
        spec = evaluate.SweepSpec(ebn0_db=(4.0,))
        with pytest.raises(ConfigError, match="tx net maps 8 -> 4"):
            evaluate.bler_sweep_learned(other, rx, cfg, spec)

    def test_pilot_mismatch_is_rejected(self):
        cfg, tx, rx = small_system()
        piloted = transceiver.Receiver(
            nn.DenseNet.create((6, 32, 32, 4), np.random.default_rng(2)))
        spec = evaluate.SweepSpec(ebn0_db=(4.0,))
        with pytest.raises(ConfigError, match="rx net maps 6 -> 4"):
            evaluate.bler_sweep_learned(tx, piloted, cfg, spec)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        cfg, tx, rx = small_system()
        spec = evaluate.SweepSpec(ebn0_db=(4.0,))
        with pytest.raises(ConfigError, match="workers"):
            evaluate.bler_sweep_learned(tx, rx, cfg, spec, workers=workers)

    def test_untrained_system_reports_mostly_errors(self):
        cfg, tx, rx = small_system(seed=3)
        spec = evaluate.SweepSpec(ebn0_db=(30.0,), target_errors=200)
        (pt,) = evaluate.bler_sweep_learned(tx, rx, cfg, spec)
        assert pt.trials == evaluate.SHARD_TRIALS
        assert 0.3 < pt.bler <= 1.0

    def test_same_seed_reproduces_counts(self):
        cfg, tx, rx = small_system(seed=4)
        spec = evaluate.SweepSpec(ebn0_db=(6.0, 10.0))
        a = evaluate.bler_sweep_learned(tx, rx, cfg, spec, seed=11)
        b = evaluate.bler_sweep_learned(tx, rx, cfg, spec, seed=11)
        assert [(p.trials, p.errors) for p in a] == [(p.trials, p.errors) for p in b]

    def test_rayleigh_path_runs_with_pilots(self):
        cfg = TrainConfig(k=2, n=2, channel="rayleigh", tx_hidden=(8,), rx_hidden=(8,))
        tx, rx, _, _ = train.build_system(cfg)
        spec = evaluate.SweepSpec(ebn0_db=(10.0,), target_errors=50)
        (pt,) = evaluate.bler_sweep_learned(tx, rx, cfg, spec)
        assert pt.errors >= 50


class TestBaselineSweeps:
    @pytest.mark.parametrize("system, shard_errors", [
        ("hamming74-mld-awgn", hamming_shard),
        ("qam16-rayleigh-perfect-csi", qam16_shard(0)),
        ("qam16-rayleigh-ls", qam16_shard(2)),
    ])
    def test_matches_the_trial_by_trial_reference(self, system, shard_errors,
                                                  monkeypatch):
        # short shards, so a point spans several and three workers run waves
        monkeypatch.setattr(evaluate, "SHARD_TRIALS", 100)
        spec = evaluate.SweepSpec(ebn0_db=(0.0, 8.0), min_trials=250, max_trials=950,
                                  target_errors=60)
        expected = reference_sweep(system, shard_errors, spec, seed=13)
        for workers in (1, 3):
            assert evaluate.bler_sweep_baseline(
                system, spec, seed=13, workers=workers, n_pilot=2) == expected

    @pytest.mark.parametrize("system", ["qam16-rayleigh-perfect-csi",
                                        "qam16-rayleigh-ls"])
    def test_zero_channel_estimate_counts_as_an_error(self, system, monkeypatch):
        # h = 0 for perfect CSI, a zero LS estimate for LS: no block can be
        # equalized, so every one is an error and nothing raises
        monkeypatch.setattr(channel, "rayleigh_sample",
                            lambda rng, size: np.zeros(size, dtype=np.complex128))
        monkeypatch.setattr(baseline, "ls_estimate",
                            lambda y_pilot: np.zeros(len(y_pilot), dtype=np.complex128))
        spec = evaluate.SweepSpec(ebn0_db=(10.0,), min_trials=100, max_trials=500)
        (pt,) = evaluate.bler_sweep_baseline(system, spec, seed=3)
        assert (pt.trials, pt.errors) == (500, 500)

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError, match="unknown baseline"):
            evaluate.bler_sweep_baseline("turbo", evaluate.SweepSpec(ebn0_db=(0.0,)))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            evaluate.bler_sweep_baseline(
                "hamming74-mld-awgn", evaluate.SweepSpec(ebn0_db=(0.0,)), workers=workers
            )

    def test_hamming_mld_tracks_union_bound_at_high_snr(self):
        # pairwise error Q(sqrt(w)/sigma) summed over the weight enumerator
        # 7/7/1 at weights 3/4/7 bounds block error from above and is tight
        # near 7 dB; the measured rate must sit just below it
        ebn0 = 10.0 ** (7.0 / 10.0)
        sigma = math.sqrt(1.0 / ((4.0 / 7.0) * ebn0) / 2.0)
        bound = (
            7.0 * q_func(math.sqrt(3.0) / sigma)
            + 7.0 * q_func(math.sqrt(4.0) / sigma)
            + q_func(math.sqrt(7.0) / sigma)
        )
        spec = evaluate.SweepSpec(
            ebn0_db=(7.0,), max_trials=8_000_000, target_errors=400
        )
        (pt,) = evaluate.bler_sweep_baseline("hamming74-mld-awgn", spec, seed=3)
        assert pt.errors >= 400
        assert 0.75 * bound <= pt.bler <= 1.01 * bound

    def test_qam_perfect_csi_matches_conditional_error_formula(self):
        # per-axis 4-PAM error is 1.5 Q(|h| / (sqrt(10) sigma)); averaging
        # the exact conditional block error over fresh fading draws gives
        # an independent estimate of the same quantity
        sigma = channel.noise_std_from_snr(10.0, 4, 1)
        rng = np.random.default_rng(99)
        absh = np.abs(
            math.sqrt(0.5) * (rng.standard_normal(400_000)
                              + 1j * rng.standard_normal(400_000))
        )
        p_axis = 1.5 * np.array(
            [q_func(v) for v in absh / (math.sqrt(10.0) * sigma)]
        )
        formula = float(np.mean(1.0 - (1.0 - p_axis) ** 2))
        spec = evaluate.SweepSpec(ebn0_db=(10.0,), target_errors=400)
        (pt,) = evaluate.bler_sweep_baseline(
            "qam16-rayleigh-perfect-csi", spec, seed=3
        )
        assert abs(pt.bler - formula) < 0.01

    def test_ls_estimation_costs_accuracy(self):
        spec = evaluate.SweepSpec(ebn0_db=(10.0,), target_errors=400)
        (perfect,) = evaluate.bler_sweep_baseline(
            "qam16-rayleigh-perfect-csi", spec, seed=3
        )
        (ls,) = evaluate.bler_sweep_baseline("qam16-rayleigh-ls", spec, seed=3)
        assert ls.bler > perfect.bler

    def test_more_pilots_help_ls(self):
        spec = evaluate.SweepSpec(ebn0_db=(10.0,), target_errors=400)
        (one,) = evaluate.bler_sweep_baseline("qam16-rayleigh-ls", spec, seed=3)
        (four,) = evaluate.bler_sweep_baseline(
            "qam16-rayleigh-ls", spec, seed=3, n_pilot=4
        )
        assert four.bler < one.bler

    def test_pilot_count_validated(self):
        with pytest.raises(ConfigError):
            evaluate.bler_sweep_baseline(
                "qam16-rayleigh-ls", evaluate.SweepSpec(ebn0_db=(0.0,)), n_pilot=0
            )


class TestDecideRows:
    @pytest.mark.parametrize("system", ["learned-awgn", "learned-rayleigh",
                                        *evaluate.BASELINE_SYSTEMS])
    def test_blocks_of_seven_rows_match_the_reference(self, system, monkeypatch):
        # every point runs all 11 shards: ten of 100 trials, each ending in
        # a 2-row block, and a last one of 50 ending in a 1-row block
        monkeypatch.setattr(evaluate, "SHARD_TRIALS", 100)
        monkeypatch.setattr(evaluate, "DECIDE_ROWS", 7)
        spec = evaluate.SweepSpec(ebn0_db=(2.0, 6.0), min_trials=1050,
                                  max_trials=1050, target_errors=10**6)
        if system.startswith("learned-"):
            cfg = TrainConfig(k=2, n=2, channel=system.removeprefix("learned-"),
                              tx_hidden=(8,), rx_hidden=(8,))
            tx, rx, _, _ = train.build_system(cfg)
            shard_errors = learned_shard(tx, rx, cfg)

            def sweep(workers):
                return evaluate.bler_sweep_learned(tx, rx, cfg, spec, seed=15,
                                                   workers=workers)
        else:
            shard_errors = {"hamming74-mld-awgn": hamming_shard,
                            "qam16-rayleigh-perfect-csi": qam16_shard(0),
                            "qam16-rayleigh-ls": qam16_shard(2)}[system]

            def sweep(workers):
                return evaluate.bler_sweep_baseline(system, spec, seed=15,
                                                    workers=workers, n_pilot=2)
        expected = reference_sweep(system, shard_errors, spec, seed=15)
        assert [p.trials for p in expected] == [1050, 1050]
        for workers in (1, 3):
            assert sweep(workers) == expected

    @pytest.mark.parametrize("system", ["learned-awgn", "hamming74-mld-awgn",
                                        "qam16-rayleigh-perfect-csi"])
    def test_without_pilots_the_block_size_draws_nothing(self, system, monkeypatch):
        # the block noise is drawn row-major whatever the block size, so a
        # channel without pilots gives the same points at 7 rows as at the
        # shipped DECIDE_ROWS; one full shard and a short last one of 5,000
        # trials
        spec = evaluate.SweepSpec(ebn0_db=(0.0, 4.0), min_trials=25_000,
                                  max_trials=25_000, target_errors=10**6)
        if system == "learned-awgn":
            cfg = TrainConfig(k=2, n=2, tx_hidden=(8,), rx_hidden=(8,))
            tx, rx, _, _ = train.build_system(cfg)

            def sweep():
                return evaluate.bler_sweep_learned(tx, rx, cfg, spec, seed=16)
        else:
            def sweep():
                return evaluate.bler_sweep_baseline(system, spec, seed=16)
        shipped = evaluate.DECIDE_ROWS
        points = {}
        for rows in (7, shipped):
            monkeypatch.setattr(evaluate, "DECIDE_ROWS", rows)
            points[rows] = sweep()
        assert [p.trials for p in points[7]] == [25_000, 25_000]
        assert points[7] == points[shipped]


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        pts = [
            evaluate.BlerPoint.from_counts(2.0, 20000, 37),
            evaluate.BlerPoint.from_counts(4.0, 60000, 601),
        ]
        path = tmp_path / "sweep.csv"
        evaluate.bler_to_csv(pts, str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["ebn0_db", "trials", "errors", "bler", "ci95_halfwidth"]
        for pt, row in zip(pts, rows[1:]):
            assert float(row[0]) == pt.ebn0_db
            assert int(row[1]) == pt.trials
            assert int(row[2]) == pt.errors
            assert float(row[3]) == pt.bler
            assert float(row[4]) == pt.ci95_halfwidth


class TestEnergyDistance:
    def test_point_masses_give_twice_the_gap(self):
        a = np.zeros((300, 2))
        b = np.tile([3.0, 4.0], (300, 1))
        assert evaluate.energy_distance(a, b) == 10.0

    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(200, 3))
        assert evaluate.energy_distance(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_matching_distributions_sit_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1500, 2))
        b = rng.normal(size=(1500, 2))
        assert abs(evaluate.energy_distance(a, b)) < 0.05

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate.energy_distance(np.zeros((10, 2)), np.zeros((10, 3)))

    @pytest.mark.parametrize("n_a, n_b, width", [
        (1024, 1024, 14),  # full 256-row chunks of full 2-row fills
        (300, 70, 1),      # one real dimension; a 44-row last chunk
        (517, 333, 3),     # uneven chunks and fills on both sides
        (9, 1500, 2),      # under one chunk, a 1-row last fill; b cut to 1024
    ])
    def test_matches_the_one_cube_formula_bit_for_bit(self, n_a, n_b, width):
        rng = np.random.default_rng(n_a + width)
        a = rng.normal(size=(n_a, width))
        b = rng.normal(0.3, 1.2, size=(n_b, width))
        assert (repr(evaluate.energy_distance(a, b))
                == repr(reference_energy_distance(a, b)))


def untrained_generator(width, cond_dim):
    """A generator of width outputs over 3 noise and cond_dim conditioning
    inputs, at its random initialization."""
    net = nn.DenseNet.create((3 + cond_dim, 8, width), np.random.default_rng(1))
    return gan.Generator(net, z_dim=3)


class TestGanFidelity:
    def test_real_blocks_hit_the_true_channel_stats(self):
        x = np.array([[1.0, -1.0]])
        g = untrained_generator(2, 2)
        (r,) = evaluate.gan_fidelity(g, x, 0.5, n_samples=4000, seed=0)
        assert np.abs(r.real_mean - r.target_mean).max() < 0.04
        assert np.all(np.abs(r.real_var / 0.5**2 - 1.0) < 0.15)

    def test_fading_target_is_h_times_x(self):
        # (0.5 - 0.5j) * (1 + 1j) = 1 + 0j
        x = np.array([[1.0, 1.0]])
        g = untrained_generator(2, 4)
        reports = evaluate.gan_fidelity(
            g, x, 0.1, n_samples=2000, seed=1, h=np.array([0.5 - 0.5j])
        )
        (r,) = reports
        assert r.target_mean == pytest.approx([1.0, 0.0], abs=1e-15)
        assert np.abs(r.real_mean - r.target_mean).max() < 0.02

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_target_is_the_noiseless_channel_output_bit_for_bit(self, kind):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(8, 4))
        h = channel.rayleigh_sample(rng, 8) if kind == "rayleigh" else None
        model = channel.make_channel(kind)
        g = untrained_generator(4, model.cond_dim(2))
        reports = evaluate.gan_fidelity(g, x, 0.1, n_samples=4, seed=3, h=h)
        for c, r in enumerate(reports):
            state = None if h is None else h[c:c + 1]
            noiseless = model.apply(x[c][None, :], state, 0.0, None)[0]
            assert r.target_mean.tobytes() == noiseless.tobytes()

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_both_diagnostics_draw_real_blocks_then_z_per_condition(self, kind, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        h = channel.rayleigh_sample(rng, 3) if kind == "rayleigh" else None
        model = channel.make_channel(kind, n_pilot=2)
        g = untrained_generator(4, model.cond_dim(2))
        std, samples, seed = 0.3, 6, 9

        def reference(stream, c):
            draw = substream(seed, stream, c)
            blocks = np.tile(x[c], (samples, 1))
            state = None if h is None else np.full(samples, h[c])
            real = model.apply(blocks, state, std, draw)
            m = gan.conditioning(blocks, model.pilots(state, 0.0, None))
            fake, _ = gan.generate(g, gan.sample_z(draw, samples, g.z_dim), m)
            return real, fake.astype(np.float64)

        reports = evaluate.gan_fidelity(g, x, std, samples, seed, h=h, n_pilot=2)
        assert len(reports) == 3
        for c, r in enumerate(reports):
            real, fake = reference("fidelity", c)
            assert [a.tobytes() for a in (r.real_mean, r.real_var, r.fake_mean, r.fake_var)] == [
                a.tobytes() for a in (real.mean(axis=0), real.var(axis=0),
                                      fake.mean(axis=0), fake.var(axis=0))]
            assert r.energy_distance == evaluate.energy_distance(real, fake)

        path = tmp_path / "scatter.csv"
        evaluate.gan_scatter_dump(g, x, std, str(path), samples, seed, h=h, n_pilot=2)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        for c in range(3):
            for source, blocks in zip(("real", "fake"), reference("scatter", c)):
                written = [[float(v) for v in row[4:]] for row in rows
                           if row[:2] == [str(c), source]]
                symbols = channel.iq_to_complex(blocks).ravel()
                assert written == np.stack([symbols.real, symbols.imag], axis=1).tolist()

    def test_one_report_per_condition(self):
        x = np.tile([1.0, 0.0], (5, 1))
        reports = evaluate.gan_fidelity(untrained_generator(2, 2), x, 0.3,
                                        n_samples=500, seed=2)
        assert len(reports) == 5

    def test_rejects_flat_condition_array(self):
        with pytest.raises(ValueError):
            evaluate.gan_fidelity(untrained_generator(2, 2), np.array([1.0, 0.0]),
                                  0.3, 100, 0)

    def test_zero_samples_are_refused_by_both_functions(self, tmp_path):
        x = np.tile([1.0, 0.0], (2, 1))
        g = untrained_generator(2, 2)
        with pytest.raises(ConfigError, match="samples: must be >= 1"):
            evaluate.gan_fidelity(g, x, 0.3, n_samples=0, seed=0)
        with pytest.raises(ConfigError, match="samples: must be >= 1"):
            evaluate.gan_scatter_dump(g, x, 0.3, str(tmp_path / "s.csv"), n_samples=0)
        assert not (tmp_path / "s.csv").exists()

    def test_scatter_dump_refuses_bad_arguments_before_opening_its_file(self, tmp_path):
        # the path's directory does not exist, so an open would raise OSError
        x = np.tile([1.0, 0.0], (2, 1))
        g = untrained_generator(2, 2)
        path = str(tmp_path / "missing" / "s.csv")
        with pytest.raises(ConfigError, match="samples: must be >= 1"):
            evaluate.gan_scatter_dump(g, x, 0.3, path, n_samples=0)
        with pytest.raises(ValueError, match="conditions must be"):
            evaluate.gan_scatter_dump(g, x[0], 0.3, path, n_samples=5)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [2, 4])
    def test_rejects_h_of_another_length_than_the_conditions(self, tmp_path, count):
        x = np.tile([1.0, 0.0], (3, 1))
        h = np.ones(count, dtype=np.complex128)
        g = untrained_generator(2, 4)
        with pytest.raises(ValueError, match="one coefficient per condition"):
            evaluate.gan_fidelity(g, x, 0.3, 10, 0, h=h)
        with pytest.raises(ValueError, match="one coefficient per condition"):
            evaluate.gan_scatter_dump(g, x, 0.3, str(tmp_path / "s.csv"), 10, 0, h=h)


class TestDumps:
    def test_constellation_csv_covers_every_message_and_use(self, tmp_path):
        cfg, tx, _ = small_system(seed=6)
        path = tmp_path / "points.csv"
        evaluate.constellation_dump(tx, str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + cfg.M * cfg.n
        x = tx.encode_messages(np.arange(cfg.M))
        first = rows[1]
        assert first[:2] == ["0", "0"]
        assert float(first[2]) == x[0, 0]
        assert float(first[3]) == x[0, 1]

    def test_scatter_csv_has_real_fake_and_condition_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        g = gan.Generator(nn.DenseNet.create((5, 8, 2), rng), z_dim=3)
        x = baseline.qam16_codebook()[:2]
        path = tmp_path / "scatter.csv"
        evaluate.gan_scatter_dump(g, x, 0.2, str(path), n_samples=50, seed=8)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2 * (1 + 2 * 50)
        sources = {row[1] for row in rows[1:]}
        assert sources == {"condition", "real", "fake"}
