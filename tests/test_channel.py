"""Channel simulators: SNR conversion, AWGN, Rayleigh fading, pilots, and
the channel objects built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gancomm import channel
from gancomm.config import TrainConfig
from helpers import reference_complex_to_iq


class TestIqLayout:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(5, 8))
        assert np.array_equal(
            reference_complex_to_iq(channel.iq_to_complex(blocks)), blocks
        )

    def test_interleaving_order(self):
        block = np.array([[1.0, 2.0, 3.0, 4.0]])
        symbols = channel.iq_to_complex(block)
        assert symbols[0, 0] == 1.0 + 2.0j
        assert symbols[0, 1] == 3.0 + 4.0j

    @given(st.integers(1, 6), st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_any_shape(self, n, batch):
        rng = np.random.default_rng(n * 100 + batch)
        sym = rng.normal(size=(batch, n)) + 1j * rng.normal(size=(batch, n))
        back = channel.iq_to_complex(reference_complex_to_iq(sym))
        assert np.array_equal(back, sym)


class TestNoiseStd:
    def test_rate_four_sevenths_at_zero_db(self):
        # N0 = 1/(4/7) = 1.75, per-dim variance 0.875
        std = channel.noise_std_from_snr(0.0, 4, 7)
        assert std == pytest.approx(0.9354143466934853, rel=1e-12)

    def test_rate_four_sevenths_at_four_db(self):
        std = channel.noise_std_from_snr(4.0, 4, 7)
        assert std == pytest.approx(0.5902065521783963, rel=1e-12)

    def test_uncoded_qam_point(self):
        # 4 bits in one use at 10 dB: N0 = 1/40
        std = channel.noise_std_from_snr(10.0, 4, 1)
        assert std == pytest.approx(0.11180339887498948, rel=1e-12)

    def test_bpsk_unit_rate_zero_db(self):
        std = channel.noise_std_from_snr(0.0, 1, 1)
        assert std == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_monotone_in_snr(self):
        stds = [
            channel.noise_std_from_snr(db, 4, 7)
            for db in (-2.0, 0.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(stds, stds[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="k and n"):
            channel.noise_std_from_snr(0.0, 0, 7)
        with pytest.raises(ValueError, match="k and n"):
            channel.noise_std_from_snr(0.0, 4, 0)
        for db in (float("nan"), channel.EBN0_DB_LIMIT + 1.0):
            with pytest.raises(ValueError, match="ebn0_db"):
                channel.noise_std_from_snr(db, 4, 7)


class TestAwgn:
    def test_zero_noise_returns_equal_copy(self):
        x = np.ones((3, 4))
        y = channel.awgn_apply(x, 0.0, np.random.default_rng(0))
        assert np.array_equal(x, y)
        assert y is not x

    def test_noise_statistics_within_two_percent(self):
        rng = np.random.default_rng(7)
        std = 0.8
        x = np.zeros((200_000, 4))
        y = channel.awgn_apply(x, std, rng)
        assert abs(y.mean()) < 0.01
        assert y.var() == pytest.approx(std**2, rel=0.02)

    def test_same_stream_reproduces(self):
        x = np.ones((10, 6))
        a = channel.awgn_apply(x, 0.5, np.random.default_rng(42))
        b = channel.awgn_apply(x, 0.5, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_noise_chunks_draw_like_one_normal_draw(self):
        # a wide block gets the noise one rng.normal call over the whole
        # block would give
        x = np.random.default_rng(6).normal(size=(3, 16_385))
        y = channel.awgn_apply(x, 0.7, np.random.default_rng(7))
        ref = np.random.default_rng(7)
        assert y.tobytes() == (x + ref.normal(0.0, 0.7, size=x.shape)).tobytes()

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            channel.awgn_apply(np.zeros((1, 2)), -0.1, np.random.default_rng(0))


@pytest.mark.parametrize("noise_std", [-0.5, float("nan")])
@pytest.mark.parametrize("simulate", [
    lambda std, rng: channel.awgn_apply(np.ones((2, 4)), std, rng),
    lambda std, rng: channel.fading_apply(np.ones((2, 4)), np.ones(2, dtype=complex),
                                          std, rng),
    lambda std, rng: channel.pilot_receive(np.ones(2, dtype=complex), std, 1, rng),
], ids=["awgn_apply", "fading_apply", "pilot_receive"])
def test_simulators_refuse_a_negative_or_nan_noise_std(simulate, noise_std):
    with pytest.raises(ValueError, match="noise std"):
        simulate(noise_std, np.random.default_rng(0))


@pytest.mark.parametrize("noise_std", [0.0, 0.7])
@pytest.mark.parametrize("simulate", [
    channel.awgn_apply,
    lambda x, std, rng: channel.fading_apply(x, np.ones(len(x), dtype=complex), std, rng),
], ids=["awgn_apply", "fading_apply"])
def test_simulators_add_the_noise_onto_their_own_copy(simulate, noise_std):
    # the noise is added in place onto the simulator's own array; adding it
    # onto the caller's blocks would corrupt the codebook rows they hold
    x = np.random.default_rng(3).normal(size=(4, 6))
    before = x.tobytes()
    y = simulate(x, noise_std, np.random.default_rng(0))
    assert x.tobytes() == before
    assert y is not x and not np.shares_memory(x, y)
    assert np.array_equal(y, x) == (noise_std == 0)


class TestRayleigh:
    def test_unit_average_power(self):
        h = channel.rayleigh_sample(np.random.default_rng(2), 200_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)
        assert h.real.var() == pytest.approx(0.5, rel=0.02)
        assert h.imag.var() == pytest.approx(0.5, rel=0.02)

    def test_quadratures_uncorrelated(self):
        h = channel.rayleigh_sample(np.random.default_rng(3), 200_000)
        assert abs(np.mean(h.real * h.imag)) < 0.01

    @pytest.mark.parametrize("size", [0, 1, 20_000])
    def test_draws_the_two_normal_calls_bit_for_bit(self, size):
        # all real parts, then all imaginary parts, at std sqrt(0.5); the
        # stream must end where the two calls leave it
        rng, ref = np.random.default_rng(size + 4), np.random.default_rng(size + 4)
        h = channel.rayleigh_sample(rng, size)
        re = ref.normal(0.0, np.sqrt(0.5), size=size)
        im = ref.normal(0.0, np.sqrt(0.5), size=size)
        assert h.dtype == np.complex128 and h.shape == (size,)
        assert h.tobytes() == (re + 1j * im).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestFading:
    def test_noiseless_is_exact_complex_multiplication(self):
        x = np.array([[1.0, 0.0, 0.0, 1.0]])  # 1, j
        y = channel.fading_apply(x, np.array([2.0 - 1.0j]), 0.0, np.random.default_rng(0))
        sym = channel.iq_to_complex(y)
        assert sym[0, 0] == pytest.approx(2.0 - 1.0j)
        assert sym[0, 1] == pytest.approx(1.0 + 2.0j)  # (2-j)*j

    def test_one_h_per_block(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 10))
        h = channel.rayleigh_sample(rng, 6)
        y = channel.fading_apply(x, h, 0.0, rng)
        ratio = channel.iq_to_complex(y) / channel.iq_to_complex(x)
        # every use of block b sees the same coefficient
        assert np.allclose(ratio, h[:, None])

    def test_batch_h_must_match_batch(self):
        with pytest.raises(ValueError):
            channel.fading_apply(np.zeros((4, 2)), np.ones(3, dtype=complex), 0.0,
                                 np.random.default_rng(0))

    def test_scalar_h_rejected(self):
        for h in (1.0 + 0.0j, np.array(1.0 + 0.0j)):
            with pytest.raises(ValueError, match="one coefficient per block"):
                channel.fading_apply(np.zeros((1, 2)), h, 0.0, np.random.default_rng(0))
            with pytest.raises(ValueError, match="one coefficient per block"):
                channel.pilot_receive(h, 0.0, 1, np.random.default_rng(0))

    def test_noise_variance_on_top_of_fading(self):
        rng = np.random.default_rng(5)
        x = np.zeros((100_000, 2))
        y = channel.fading_apply(x, np.ones(len(x), dtype=complex), 0.7, rng)
        assert y.var() == pytest.approx(0.49, rel=0.02)


    def test_complex_views_multiply_like_the_complex_copies(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 16_386))
        h = channel.rayleigh_sample(rng, 3)
        y = channel.fading_apply(x, h, 0.4, np.random.default_rng(9))
        ref = np.random.default_rng(9)
        faded = reference_complex_to_iq(channel.iq_to_complex(x) * h[:, None])
        assert y.tobytes() == (faded + ref.normal(0.0, 0.4, size=x.shape)).tobytes()


class TestPilots:
    def test_noiseless_pilot_reveals_h(self):
        y_p = channel.pilot_receive(np.array([0.3 + 1.2j]), 0.0, 2,
                                    np.random.default_rng(0))
        assert np.array_equal(y_p, [[0.3, 1.2, 0.3, 1.2]])

    def test_batched_shape(self):
        h = channel.rayleigh_sample(np.random.default_rng(1), 5)
        y_p = channel.pilot_receive(h, 0.1, 3, np.random.default_rng(2))
        assert y_p.shape == (5, 6)

    def test_noisy_pilot_centers_on_h(self):
        # one draw says little; average many through the same h
        h_arr = np.full(50_000, -0.5 + 0.25j)
        y_b = channel.pilot_receive(h_arr, 0.5, 1, np.random.default_rng(4))
        est = channel.iq_to_complex(y_b).mean()
        assert abs(est - (-0.5 + 0.25j)) < 0.01

    def test_rejects_zero_pilots(self):
        with pytest.raises(ValueError):
            channel.pilot_receive(np.ones(1, dtype=complex), 0.1, 0,
                                  np.random.default_rng(0))


class TestChannelObject:
    @staticmethod
    def same(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None
            and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        )

    def test_pilot_count_and_conditioning_width_at_defaults(self):
        awgn = TrainConfig().make_channel()
        fading = TrainConfig(channel="rayleigh").make_channel()
        assert isinstance(awgn, channel.AwgnChannel)
        assert isinstance(fading, channel.RayleighChannel)
        assert (awgn.n_pilot, awgn.cond_dim(7)) == (0, 14)
        assert (fading.n_pilot, fading.cond_dim(7)) == (1, 16)
        assert channel.make_channel("rayleigh", n_pilot=3).cond_dim(1) == 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            channel.make_channel("rician")

    def test_awgn_draws_no_state(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert channel.make_channel("awgn").draw_state(rng, 5) is None
        assert rng.bit_generator.state == before

    def test_awgn_matches_the_primitive_draws(self):
        x = np.random.default_rng(1).normal(size=(6, 4))
        model = channel.make_channel("awgn")
        rng = np.random.default_rng(2)
        y, y_p = model.observe(x, model.draw_state(rng, 6), 0.3, rng)
        ref = np.random.default_rng(2)
        assert y_p is None
        assert self.same(y, channel.awgn_apply(x, 0.3, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert model.pilots(None, 0.3, rng) is None
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fading_matches_the_primitive_draws(self):
        # state, then block noise, then pilot noise, from the streams given
        x = np.random.default_rng(3).normal(size=(6, 4))
        model = channel.make_channel("rayleigh", n_pilot=2)
        rng = np.random.default_rng(4)
        h = model.draw_state(rng, 6)
        y, y_p = model.observe(x, h, 0.3, rng)
        y_p2 = model.pilots(h, 0.3, rng)

        ref = np.random.default_rng(4)
        h_ref = channel.rayleigh_sample(ref, 6)
        assert np.shape(h) == (6,)
        assert self.same(h, h_ref)
        assert self.same(y, channel.fading_apply(x, h_ref, 0.3, ref))
        assert self.same(y_p, channel.pilot_receive(h_ref, 0.3, 2, ref))
        assert self.same(y_p2, channel.pilot_receive(h_ref, 0.3, 2, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fading_without_pilots_draws_h_and_block_noise_only(self):
        x = np.random.default_rng(5).normal(size=(6, 4))
        model = channel.make_channel("rayleigh", n_pilot=0)
        rng = np.random.default_rng(6)
        h = model.draw_state(rng, 6)
        y, y_p = model.observe(x, h, 0.3, rng)

        ref = np.random.default_rng(6)
        h_ref = channel.rayleigh_sample(ref, 6)
        assert y_p is None
        assert self.same(h, h_ref)
        assert self.same(y, channel.fading_apply(x, h_ref, 0.3, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert model.cond_dim(2) == 4

    def test_noiseless_pilot_draws_nothing(self):
        model = channel.make_channel("rayleigh", n_pilot=2)
        pilot = model.pilots(np.array([0.6 - 0.8j]), 0.0, None)
        assert np.array_equal(pilot, [[0.6, -0.8, 0.6, -0.8]])
