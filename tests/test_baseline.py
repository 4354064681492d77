"""Classical baselines: Hamming(7,4) coding/decoding and 16-QAM."""

import numpy as np
import pytest

from gancomm import baseline, channel, evaluate, nn
from helpers import (hamming74_bits, hamming74_hard_decode, qam16_points,
                     reference_complex_to_iq, reference_correlation_decode,
                     reference_qam16_demod)


def mld_decode(y):
    """Hamming(7,4) MLD: the nearest BPSK codeword."""
    cb = baseline.hamming74_bpsk_codebook()
    return baseline.nearest_codeword(y, cb, baseline.half_energy(cb))


def qam16_decide(y, h):
    """The 16-QAM sweeps' decision on (B,) complex symbols equalized by the
    (B,) channel coefficients h."""
    return evaluate._qam16_decide(reference_complex_to_iq(np.asarray(y)[:, None]), None,
                                  np.asarray(h, dtype=np.complex128),
                                  baseline.half_energy(baseline.qam16_codebook()))


class TestHammingEncode:
    def test_zero_message_gives_zero_codeword(self):
        assert np.array_equal(hamming74_bits()[0], np.zeros(7, dtype=int))

    def test_hand_computed_codewords(self):
        bits = hamming74_bits()
        # u=1000: p = (u1+u3+u4, u1+u2+u3, u2+u3+u4) = (1,1,0)
        assert np.array_equal(bits[8], [1, 0, 0, 0, 1, 1, 0])
        # all-ones data -> all-ones codeword
        assert np.array_equal(bits[15], np.ones(7, dtype=int))

    def test_code_is_linear(self):
        # message indices add like their data bits, by exclusive or
        bits = hamming74_bits()
        a, b = np.meshgrid(np.arange(16), np.arange(16))
        assert np.array_equal(bits[a ^ b], (bits[a] + bits[b]) % 2)


class TestCodebook:
    def test_sixteen_distinct_codewords(self):
        cb = hamming74_bits()
        assert cb.shape == (16, 7)
        assert len({tuple(row) for row in cb}) == 16

    def test_minimum_distance_is_three(self):
        cb = hamming74_bits()
        dist = (cb[:, None, :] != cb[None, :, :]).sum(axis=2)
        np.fill_diagonal(dist, 99)
        assert dist.min() == 3

    def test_weight_enumerator(self):
        # Hamming(7,4): 1 + 7 z^3 + 7 z^4 + z^7
        weights = hamming74_bits().sum(axis=1)
        counts = np.bincount(weights, minlength=8)
        assert counts.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]

    def test_row_order_matches_message_index(self):
        # systematic: row i starts with i's four bits, most significant first
        data = hamming74_bits()[:, :4]
        assert np.array_equal(data @ [8, 4, 2, 1], np.arange(16))

    def test_bpsk_codebook_is_the_modulated_codebook(self):
        cb = baseline.hamming74_bpsk_codebook()
        assert cb.shape == (16, 7)
        assert np.array_equal(cb, 1.0 - 2.0 * hamming74_bits())
        assert cb.dtype == np.float64 and not cb.flags.writeable
        assert baseline.hamming74_bpsk_codebook() is cb


class TestMldDecode:
    def test_noiseless_round_trip(self):
        y = baseline.hamming74_bpsk_codebook()
        assert np.array_equal(mld_decode(y), np.arange(16))

    def test_any_single_symbol_flip_is_corrected(self):
        cb = baseline.hamming74_bpsk_codebook()
        for msg in range(16):
            for pos in range(7):
                y = cb[msg : msg + 1].copy()
                y[0, pos] *= -1.0
                assert mld_decode(y)[0] == msg

    def test_matches_exhaustive_euclidean_search(self):
        rng = np.random.default_rng(2)
        messages = rng.integers(0, 16, 2000)
        ref = baseline.hamming74_bpsk_codebook()
        y = ref[messages] + rng.normal(0.0, 1.0, (2000, 7))
        # independent oracle: brute-force nearest codeword in Euclidean norm
        d2 = ((y[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(mld_decode(y), d2.argmin(axis=1))

    @pytest.mark.parametrize("batch", [1, 7, 1999, 2000, 2001, 4097, 6000])
    def test_row_blocks_decide_like_the_whole_batch(self, batch):
        # the BLER sweep decides DECIDE_ROWS rows at a time; the scores, and
        # so the decisions, must not depend on how many rows a call gets.
        # Half the rows sit a hair off a midpoint between two codewords,
        # where a last-bit change in a score would flip the decision
        rows = evaluate.DECIDE_ROWS
        rng = np.random.default_rng(batch)
        ref = baseline.hamming74_bpsk_codebook()
        pairs = rng.integers(0, 16, (batch, 2))
        y = np.where(rng.random((batch, 1)) < 0.5,
                     (ref[pairs[:, 0]] + ref[pairs[:, 1]]) / 2.0
                     + rng.normal(0.0, 1e-12, (batch, 7)),
                     ref[pairs[:, 0]] + rng.normal(0.0, 1.0, (batch, 7)))
        blocks = [mld_decode(y[start:start + rows])
                  for start in range(0, batch, rows)]
        assert np.array_equal(np.concatenate(blocks), mld_decode(y))

    def test_exact_tie_goes_to_lowest_index(self):
        ref = baseline.hamming74_bpsk_codebook()
        for other in (3, 8, 15):
            midpoint = (ref[0] + ref[other]) / 2.0
            assert mld_decode(midpoint[None, :])[0] == 0

    def test_soft_beats_hard_decisions(self):
        rng = np.random.default_rng(3)
        messages = rng.integers(0, 16, 100_000)
        clean = baseline.hamming74_bpsk_codebook()[messages]
        y = clean + rng.normal(0.0, 0.8, clean.shape)
        soft_errs = int(np.sum(mld_decode(y) != messages))
        hard_errs = int(np.sum(hamming74_hard_decode(y) != messages))
        assert soft_errs <= hard_errs
        assert soft_errs < hard_errs  # strictly better at this noise level

    def test_hard_decode_corrects_every_single_bit_error(self):
        cb = hamming74_bits()
        for msg in range(16):
            for pos in range(7):
                flipped = cb[msg].copy()
                flipped[pos] ^= 1
                y = 1.0 - 2.0 * flipped[None, :]
                assert hamming74_hard_decode(y)[0] == msg


class TestBitsMessages:
    def test_msb_first(self):
        assert np.array_equal(hamming74_bits()[9, :4], [1, 0, 0, 1])


class TestQam16:
    def test_unit_average_power(self):
        points = qam16_points()
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_codebook_is_the_constellation_as_read_only_blocks(self):
        cb = baseline.qam16_codebook()
        assert cb.shape == (16, 2) and cb.dtype == np.float64
        assert not cb.flags.writeable
        assert baseline.qam16_codebook() is cb

    def test_frozen_corner_points(self):
        scale = 1.0 / np.sqrt(10.0)
        points = qam16_points()
        # msg 0 = 0000: I bits 00 -> -3, Q bits 00 -> -3
        assert points[0] == pytest.approx(scale * (-3 - 3j), rel=1e-12)
        # msg 6 = 0110: I bits 01 -> -1, Q bits 10 -> +3
        assert points[6] == pytest.approx(scale * (-1 + 3j), rel=1e-12)
        # msg 15 = 1111: I bits 11 -> +1, Q bits 11 -> +1
        assert points[15] == pytest.approx(scale * (1 + 1j), rel=1e-12)

    def test_sixteen_distinct_grid_points(self):
        points = qam16_points()
        assert len(set(points.tolist())) == 16
        levels = np.unique(np.round(points.real * np.sqrt(10.0)).astype(int))
        assert levels.tolist() == [-3, -1, 1, 3]

    def test_gray_labels_differ_in_one_bit_between_neighbors(self):
        points = qam16_points()
        scale = 1.0 / np.sqrt(10.0)
        by_grid = {
            (round(p.real / scale), round(p.imag / scale)): idx
            for idx, p in enumerate(points)
        }
        for (i_lvl, q_lvl), idx in by_grid.items():
            for di, dq in ((2, 0), (0, 2)):
                neighbor = by_grid.get((i_lvl + di, q_lvl + dq))
                if neighbor is None:
                    continue
                assert bin(idx ^ neighbor).count("1") == 1

    def test_noiseless_round_trip(self):
        msgs = np.arange(16)
        x = qam16_points()[msgs]
        assert np.array_equal(qam16_decide(x, np.ones(16)), msgs)

    def test_equalizes_known_rotation(self):
        msgs = np.arange(16)
        h = 0.5 - 0.5j
        y = h * qam16_points()[msgs]
        assert np.array_equal(qam16_decide(y, np.full(16, h)), msgs)

    def test_matches_brute_force_nearest_point(self):
        rng = np.random.default_rng(4)
        msgs = rng.integers(0, 16, 5000)
        h = 1.2 + 0.3j
        y = h * qam16_points()[msgs] + 0.2 * (
            rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        )
        got = qam16_decide(y, np.full(5000, h))
        eq = y / h
        ref = np.abs(eq[:, None] - qam16_points()[None, :]).argmin(1)
        assert np.array_equal(got, ref)

    def test_zero_estimate_decides_minus_one(self):
        # an exactly-zero estimate cannot be equalized; its block decides -1,
        # which no message matches, and the other blocks decide as usual
        points = qam16_points()
        decided = qam16_decide(points[[3, 9, 12]], np.array([1.0, 0.0, 1.0]))
        assert decided.tolist() == [3, -1, 12]


class TestNearestCodeword:
    @pytest.mark.parametrize("ebn0_db", [-4.0, 0.0, 4.0, 8.0, 12.0])
    def test_matches_the_correlation_rule_on_hamming(self, ebn0_db):
        rng = np.random.default_rng(int(ebn0_db) + 100)
        cb = baseline.hamming74_bpsk_codebook()
        y = cb[rng.integers(0, 16, 50_000)] + rng.normal(
            0.0, channel.noise_std_from_snr(ebn0_db, 4, 7), (50_000, 7))
        assert np.array_equal(mld_decode(y), reference_correlation_decode(y))

    @pytest.mark.parametrize("ebn0_db", [-4.0, 0.0, 4.0, 8.0, 12.0])
    @pytest.mark.parametrize("estimate", ["true", "noisy"])
    def test_matches_the_distance_rule_on_equalized_qam16(self, ebn0_db, estimate):
        rng = np.random.default_rng(int(ebn0_db) + 200)
        size = 50_000
        std = channel.noise_std_from_snr(ebn0_db, 4, 1)
        h = channel.rayleigh_sample(rng, size)
        y = h * qam16_points()[rng.integers(0, 16, size)] + std * (
            rng.standard_normal(size) + 1j * rng.standard_normal(size))
        h_est = h if estimate == "true" else h + std * (
            rng.standard_normal(size) + 1j * rng.standard_normal(size))
        assert np.array_equal(qam16_decide(y, h_est), reference_qam16_demod(y, h_est))

    def test_exact_tie_goes_to_lowest_index(self):
        # rows 1, 2 and 3 lie at distance 1 from (0, 1), and row 3 repeats
        # row 1; the values are exact in binary, so the scores tie exactly
        cb = np.array([[3.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])
        y = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [3.0, 0.1]])
        assert baseline.nearest_codeword(y, cb, baseline.half_energy(cb)).tolist() == [
            1, 1, 2, 0]

    def test_four_way_tie_on_the_qam16_grid_goes_to_lowest_index(self):
        # the origin is equally far from the four inner points of the
        # unscaled grid, and (-2, 2) from the four around it
        grid = np.round(baseline.qam16_codebook() * np.sqrt(10.0))
        for y in ((0.0, 0.0), (-2.0, 2.0)):
            d2 = ((grid - y) ** 2).sum(axis=1)
            nearest = np.flatnonzero(d2 == d2.min())
            assert len(nearest) == 4
            decided = baseline.nearest_codeword(np.array([y]), grid,
                                                baseline.half_energy(grid))
            assert decided[0] == nearest.min()

    def test_rejects_observations_of_another_width(self):
        cb = baseline.hamming74_bpsk_codebook()
        for y in (np.ones(7), np.ones((3, 6)), np.ones((2, 3, 7))):
            with pytest.raises(nn.ShapeError):
                baseline.nearest_codeword(y, cb, baseline.half_energy(cb))


class TestLsEstimate:
    def test_noiseless_recovers_h_exactly(self):
        h = 0.7 - 1.1j
        y_p = np.full((1, 4), h)
        assert baseline.ls_estimate(y_p)[0] == pytest.approx(h, rel=1e-12)

    def test_is_the_pilot_mean(self):
        rng = np.random.default_rng(5)
        y_p = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        est = baseline.ls_estimate(y_p)
        assert np.allclose(est, y_p.mean(axis=1))

    def test_averaging_reduces_error(self):
        rng = np.random.default_rng(6)
        h = 1.0 + 0.5j
        noise = 0.5 * (rng.standard_normal((20_000, 8))
                       + 1j * rng.standard_normal((20_000, 8)))
        err_1 = np.abs(baseline.ls_estimate(h + noise[:, :1]) - h)
        err_8 = np.abs(baseline.ls_estimate(h + noise) - h)
        assert err_8.mean() < err_1.mean() / 2.0

    def test_takes_only_batched_pilots(self):
        for y_p in (np.ones(4), np.ones((2, 3, 1))):
            with pytest.raises(nn.ShapeError):
                baseline.ls_estimate(y_p)
