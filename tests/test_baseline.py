"""Classical baselines: Hamming(7,4) coding/decoding and 16-QAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gancomm import baseline, nn
from helpers import bits_to_message, hamming74_hard_decode


class TestHammingEncode:
    def test_zero_message_gives_zero_codeword(self):
        cw = baseline.hamming74_encode(np.zeros((1, 4), dtype=int))
        assert np.array_equal(cw, np.zeros((1, 7), dtype=int))

    def test_hand_computed_codewords(self):
        # u=1000: p = (u1+u3+u4, u1+u2+u3, u2+u3+u4) = (1,1,0)
        cw = baseline.hamming74_encode(np.array([[1, 0, 0, 0]]))
        assert np.array_equal(cw[0], [1, 0, 0, 0, 1, 1, 0])
        # all-ones data -> all-ones codeword
        cw = baseline.hamming74_encode(np.array([[1, 1, 1, 1]]))
        assert np.array_equal(cw[0], np.ones(7, dtype=int))

    def test_code_is_linear(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, (20, 4))
        b = rng.integers(0, 2, (20, 4))
        lhs = baseline.hamming74_encode((a + b) % 2)
        rhs = (baseline.hamming74_encode(a) + baseline.hamming74_encode(b)) % 2
        assert np.array_equal(lhs, rhs)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            baseline.hamming74_encode(np.array([[0, 1, 2, 0]]))


class TestCodebook:
    def test_sixteen_distinct_codewords(self):
        cb = baseline.hamming74_codebook()
        assert cb.shape == (16, 7)
        assert len({tuple(row) for row in cb}) == 16

    def test_minimum_distance_is_three(self):
        cb = baseline.hamming74_codebook()
        dist = (cb[:, None, :] != cb[None, :, :]).sum(axis=2)
        np.fill_diagonal(dist, 99)
        assert dist.min() == 3

    def test_weight_enumerator(self):
        # Hamming(7,4): 1 + 7 z^3 + 7 z^4 + z^7
        weights = baseline.hamming74_codebook().sum(axis=1)
        counts = np.bincount(weights, minlength=8)
        assert counts.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]

    def test_row_order_matches_message_index(self):
        cb = baseline.hamming74_codebook()
        for msg in (0, 5, 9, 15):
            bits = baseline.message_to_bits(np.array([msg]), 4)
            assert np.array_equal(cb[msg], baseline.hamming74_encode(bits)[0])

    def test_bpsk_codebook_is_the_modulated_codebook(self):
        cb = baseline.hamming74_bpsk_codebook()
        assert np.array_equal(cb, baseline.bpsk_modulate(baseline.hamming74_codebook()))
        assert cb.dtype == np.float64 and not cb.flags.writeable


class TestMldDecode:
    def test_noiseless_round_trip(self):
        cb = baseline.hamming74_codebook()
        y = baseline.bpsk_modulate(cb)
        assert np.array_equal(baseline.hamming74_mld_decode(y), np.arange(16))

    def test_any_single_symbol_flip_is_corrected(self):
        cb = baseline.hamming74_codebook()
        for msg in range(16):
            for pos in range(7):
                y = baseline.bpsk_modulate(cb[msg : msg + 1]).copy()
                y[0, pos] *= -1.0
                assert baseline.hamming74_mld_decode(y)[0] == msg

    def test_matches_exhaustive_euclidean_search(self):
        rng = np.random.default_rng(2)
        messages = rng.integers(0, 16, 2000)
        clean = baseline.bpsk_modulate(baseline.hamming74_codebook()[messages])
        y = clean + rng.normal(0.0, 1.0, clean.shape)
        # independent oracle: brute-force nearest codeword in Euclidean norm
        ref = baseline.bpsk_modulate(baseline.hamming74_codebook())
        d2 = ((y[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(baseline.hamming74_mld_decode(y), d2.argmin(axis=1))

    def test_exact_tie_goes_to_lowest_index(self):
        ref = baseline.bpsk_modulate(baseline.hamming74_codebook())
        for other in (3, 8, 15):
            midpoint = (ref[0] + ref[other]) / 2.0
            assert baseline.hamming74_mld_decode(midpoint[None, :])[0] == 0

    def test_soft_beats_hard_decisions(self):
        rng = np.random.default_rng(3)
        messages = rng.integers(0, 16, 100_000)
        clean = baseline.bpsk_modulate(baseline.hamming74_codebook()[messages])
        y = clean + rng.normal(0.0, 0.8, clean.shape)
        soft_errs = int(np.sum(baseline.hamming74_mld_decode(y) != messages))
        hard_errs = int(np.sum(hamming74_hard_decode(y) != messages))
        assert soft_errs <= hard_errs
        assert soft_errs < hard_errs  # strictly better at this noise level

    def test_hard_decode_corrects_every_single_bit_error(self):
        cb = baseline.hamming74_codebook()
        for msg in range(16):
            for pos in range(7):
                flipped = cb[msg].copy()
                flipped[pos] ^= 1
                y = baseline.bpsk_modulate(flipped[None, :])
                assert hamming74_hard_decode(y)[0] == msg


class TestBitsMessages:
    @given(st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_round_trip(self, k):
        msgs = np.arange(2**k)
        bits = baseline.message_to_bits(msgs, k)
        assert np.array_equal(bits_to_message(bits), msgs)

    def test_msb_first(self):
        bits = baseline.message_to_bits(np.array([9]), 4)
        assert np.array_equal(bits[0], [1, 0, 0, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            baseline.message_to_bits(np.array([16]), 4)


class TestQam16:
    def test_unit_average_power(self):
        points = baseline.qam16_constellation()
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_codebook_is_the_constellation_as_read_only_blocks(self):
        cb = baseline.qam16_codebook()
        points = baseline.qam16_constellation()
        assert cb.shape == (16, 2) and not cb.flags.writeable
        assert np.array_equal(cb[:, 0], points.real)
        assert np.array_equal(cb[:, 1], points.imag)
        assert baseline.qam16_codebook() is cb

    def test_frozen_corner_points(self):
        scale = 1.0 / np.sqrt(10.0)
        points = baseline.qam16_constellation()
        # msg 0 = 0000: I bits 00 -> -3, Q bits 00 -> -3
        assert points[0] == pytest.approx(scale * (-3 - 3j), rel=1e-12)
        # msg 6 = 0110: I bits 01 -> -1, Q bits 10 -> +3
        assert points[6] == pytest.approx(scale * (-1 + 3j), rel=1e-12)
        # msg 15 = 1111: I bits 11 -> +1, Q bits 11 -> +1
        assert points[15] == pytest.approx(scale * (1 + 1j), rel=1e-12)

    def test_sixteen_distinct_grid_points(self):
        points = baseline.qam16_constellation()
        assert len(set(points.tolist())) == 16
        levels = np.unique(np.round(points.real * np.sqrt(10.0)).astype(int))
        assert levels.tolist() == [-3, -1, 1, 3]

    def test_gray_labels_differ_in_one_bit_between_neighbors(self):
        points = baseline.qam16_constellation()
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
        x = baseline.qam16_constellation()[msgs]
        assert np.array_equal(baseline.qam16_demod_coherent(x, np.ones(16)), msgs)

    def test_equalizes_known_rotation(self):
        msgs = np.arange(16)
        h = 0.5 - 0.5j
        y = h * baseline.qam16_constellation()[msgs]
        assert np.array_equal(
            baseline.qam16_demod_coherent(y, np.full(16, h)), msgs
        )

    def test_matches_brute_force_nearest_point(self):
        rng = np.random.default_rng(4)
        msgs = rng.integers(0, 16, 5000)
        h = 1.2 + 0.3j
        y = h * baseline.qam16_constellation()[msgs] + 0.2 * (
            rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        )
        got = baseline.qam16_demod_coherent(y, np.full(5000, h))
        eq = y / h
        ref = np.abs(eq[:, None] - baseline.qam16_constellation()[None, :]).argmin(1)
        assert np.array_equal(got, ref)

    def test_zero_estimate_raises(self):
        with pytest.raises(FloatingPointError):
            baseline.qam16_demod_coherent(np.array([1.0 + 0j]), np.array([0.0 + 0j]))

    def test_takes_only_one_estimate_per_symbol(self):
        for y, h_est in ((1.0 + 0j, 1.0 + 0j), (np.ones(3), 1.0 + 0j),
                         (np.ones(3), np.ones(2)), (np.ones((3, 1)), np.ones((3, 1)))):
            with pytest.raises(nn.ShapeError):
                baseline.qam16_demod_coherent(y, h_est)


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
