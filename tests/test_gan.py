"""Conditional GAN pieces: generator, discriminator, both loss heads."""

import numpy as np
import pytest

from gancomm import gan, nn
from gancomm.config import ConfigError
from helpers import central_difference, float64_copy, relative_error

LN2 = float(np.log(2.0))


def d_loss(d, real, fake, m):
    """gan.d_loss on the rows of a real and a fake batch under m."""
    return gan.d_loss(d, gan.real_fake_rows(d, real, fake, m))


def g_loss(g, d, z, m, real=None):
    """gan.g_loss on a generator pass from z under m, beside a real batch
    (zeros unless given)."""
    fake, g_tape = gan.generate(g, z, m)
    real = np.zeros_like(fake) if real is None else real
    return gan.g_loss(g, d, gan.real_fake_rows(d, real, fake, m), g_tape)


def small_gan(seed=0, n=2, cond_dim=4, z_dim=3, float64=False):
    """A small generator and discriminator; with float64, their nets are
    float64 copies, for checks finer than float32 rounding."""
    rng = np.random.default_rng(seed)
    g = gan.Generator(nn.DenseNet.create((z_dim + cond_dim, 8, 8, 2 * n), rng), z_dim)
    d = gan.Discriminator(nn.DenseNet.create((2 * n + cond_dim, 8, 1), rng))
    if float64:
        g.net, d.net = float64_copy(g.net), float64_copy(d.net)
    return g, d


class TestConstruction:
    def test_create_shapes(self):
        g, d = small_gan()
        assert g.net.input_dim == 3 + 4
        assert g.net.output_dim == 4
        assert d.net.input_dim == 4 + 4
        assert d.net.output_dim == 1

    def test_generator_rejects_wrong_input_width(self):
        # the input must hold at least one noise and one conditioning value
        net = nn.DenseNet.create((6, 8, 4), np.random.default_rng(0))
        for z_dim in (0, 6, 7):
            with pytest.raises(ConfigError, match="z_dim"):
                gan.Generator(net, z_dim)
        assert gan.Generator(net, 5).z_dim == 5

    def test_discriminator_must_emit_one_logit(self):
        net = nn.DenseNet.create((8, 8, 2), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            gan.Discriminator(net)


class TestSampling:
    def test_sample_z_shape_and_moments(self):
        z = gan.sample_z(np.random.default_rng(1), 20000, 6)
        assert z.shape == (20000, 6)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_generate_shape(self):
        g, _ = small_gan()
        rng = np.random.default_rng(2)
        fake, _ = gan.generate(g, gan.sample_z(rng, 5, 3), rng.normal(size=(5, 4)))
        assert fake.shape == (5, 4)

    def test_conditioning_concatenates_pilots(self):
        x = np.ones((3, 4))
        y_p = np.zeros((3, 2))
        assert gan.conditioning(x, None) is x
        assert np.array_equal(gan.conditioning(x, y_p), np.hstack([x, y_p]))

    def test_generate_checks_conditioning_shape(self):
        g, _ = small_gan()
        rng = np.random.default_rng(3)
        with pytest.raises(nn.ShapeError):
            gan.generate(g, gan.sample_z(rng, 5, 3), rng.normal(size=(5, 3)))

    def test_noise_actually_moves_the_output(self):
        g, _ = small_gan(seed=4)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 4))
        a, _ = gan.generate(g, gan.sample_z(rng, 6, 3), m)
        b, _ = gan.generate(g, gan.sample_z(rng, 6, 3), m)
        assert np.abs(a - b).max() > 1e-4

    def test_discriminator_scores_one_logit_per_row(self):
        _, d = small_gan()
        rng = np.random.default_rng(6)
        real, fake, m = rng.normal(size=(3, 5, 4))
        logits, _ = nn.forward(d.net, gan.real_fake_rows(d, real, fake, m))
        assert logits.shape == (10, 1)


class TestDiscriminatorLoss:
    def test_zero_logits_give_two_ln_two(self):
        # all-zero weights force logit 0 on both batches, so each BCE term
        # is exactly ln 2 and the classifier is at chance
        _, d = small_gan(seed=7, float64=True)
        for layer in d.net.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        rng = np.random.default_rng(8)
        loss, _, acc = d_loss(
            d, rng.normal(size=(9, 4)), rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        )
        assert loss == pytest.approx(2.0 * LN2, rel=1e-15)
        assert acc == 0.5

    def test_perfectly_separated_batches_score_full_accuracy(self):
        _, d = small_gan(seed=9)
        rng = np.random.default_rng(10)
        m = np.zeros((8, 4))
        real = np.full((8, 4), 8.0)
        fake = np.full((8, 4), -8.0)
        # train a few plain gradient steps until the sign is right
        for _ in range(200):
            _, grads, acc = d_loss(d, real, fake, m)
            if acc == 1.0:
                break
            flat = d.net.params - 0.5 * grads.flat
            d.net.set_flat_params(flat)
        assert acc == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_accuracy_is_the_mean_of_the_right_calls(self, seed):
        # the accuracy counts the right calls; it equals the mean of the
        # boolean arrays bit for bit, ties at logit 0 included
        g, d = small_gan(seed=seed)
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 400))
        if seed == 0:
            for layer in d.net.layers:  # every logit exactly 0
                layer.w[...] = 0.0
                layer.b[...] = 0.0
        m = rng.normal(size=(batch, 4))
        real = rng.normal(size=(batch, 4))
        fake, _ = gan.generate(g, gan.sample_z(rng, batch, 3), m)
        logits, _ = nn.forward(d.net, gan.real_fake_rows(d, real, fake, m))
        want = float(0.5 * (np.mean(logits[:batch] > 0.0)
                            + np.mean(logits[batch:] <= 0.0)))
        _, _, acc = d_loss(d, real, fake, m)
        assert repr(acc) == repr(want)

    def test_parameter_gradients_match_finite_differences(self):
        g, d = small_gan(seed=11, float64=True)
        rng = np.random.default_rng(12)
        m = rng.normal(size=(6, 4))
        real = rng.normal(size=(6, 4))
        fake, _ = gan.generate(g, gan.sample_z(rng, 6, 3), m)

        _, grads, _ = d_loss(d, real, fake, m)
        flat = d.net.params.copy()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            d.net.set_flat_params(params)
            loss, _, _ = d_loss(d, real, fake, m)
            return loss

        fd = central_difference(at, flat, idx)
        d.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_pair_pass_gradient_is_that_of_the_two_mean_bces(self):
        # one pass over [real; fake] must differentiate mean BCE(real, 'real')
        # + mean BCE(fake, 'fake'), computed here from two separate passes
        g, d = small_gan(seed=13, float64=True)
        rng = np.random.default_rng(14)
        m = rng.normal(size=(7, 4))
        real = rng.normal(size=(7, 4))
        fake, _ = gan.generate(g, gan.sample_z(rng, 7, 3), m)

        def two_bces(params):
            d.net.set_flat_params(params)
            logits_r, _ = nn.forward(d.net, np.hstack([real, m]))
            logits_f, _ = nn.forward(d.net, np.hstack([fake, m]))
            return float(np.mean(np.logaddexp(0.0, -logits_r))
                         + np.mean(np.logaddexp(0.0, logits_f)))

        flat = d.net.params.copy()
        loss, grads, _ = d_loss(d, real, fake, m)
        assert loss == pytest.approx(two_bces(flat), rel=1e-12)
        fd = central_difference(two_bces, flat, np.arange(flat.size))
        d.net.set_flat_params(flat)
        # every parameter, small gradients too, so an absolute bound: the
        # differences round at about 1e-10 here
        assert np.abs(grads.flat - fd).max() < 1e-8


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRealFakeRows:
    @pytest.mark.parametrize("float64", [False, True])
    def test_are_the_concatenated_batches(self, float64):
        # float64 real blocks and conditioning, generator-dtype fakes: the
        # fill has the bits of concatenating them and casting once
        g, d = small_gan(seed=25, float64=float64)
        rng = np.random.default_rng(26)
        m = rng.normal(size=(9, 4))
        real = rng.normal(size=(9, 4))
        fake, _ = gan.generate(g, gan.sample_z(rng, 9, 3), m)
        want = np.concatenate([np.concatenate([real, fake]), np.concatenate([m, m])],
                              axis=1, dtype=d.net.dtype)
        assert same_bytes(gan.real_fake_rows(d, real, fake, m), want)

    def test_refuse_batches_of_other_sizes(self):
        _, d = small_gan()
        rng = np.random.default_rng(27)
        real, m = rng.normal(size=(2, 5, 4))
        for fake, cond in ((real[:1], m), (real, m[:1]), (real[:, :3], m), (real, m[0])):
            with pytest.raises(nn.ShapeError):
                gan.real_fake_rows(d, real, fake, cond)


class TestGeneratorLoss:
    def test_parameter_gradients_match_finite_differences(self):
        # the path runs through the discriminator's input gradient, which
        # is exactly the bridge the transmitter update relies on
        g, d = small_gan(seed=17, float64=True)
        rng = np.random.default_rng(18)
        z = gan.sample_z(rng, 6, 3)
        m = rng.normal(size=(6, 4))

        _, grads = g_loss(g, d, z, m)
        flat = g.net.params.copy()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            g.net.set_flat_params(params)
            loss, _ = g_loss(g, d, z, m)
            return loss

        fd = central_difference(at, flat, idx)
        g.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_scores_the_fake_half_of_the_rows_in_place(self, monkeypatch):
        # the discriminator's pass reads a view of rows[B:], and the real
        # half leaves loss and gradients as they are
        g, d = small_gan(seed=29)
        rng = np.random.default_rng(30)
        z, m = gan.sample_z(rng, 6, 3), rng.normal(size=(6, 4))
        fake, g_tape = gan.generate(g, z, m)
        rows = gan.real_fake_rows(d, rng.normal(size=(6, 4)), fake, m)
        inputs, forward = [], nn.forward

        def recording_forward(net, x, *args, **kwargs):
            inputs.append(x)
            return forward(net, x, *args, **kwargs)

        monkeypatch.setattr(nn, "forward", recording_forward)
        loss, grads = gan.g_loss(g, d, rows, g_tape)
        (x,) = inputs
        assert np.shares_memory(x, rows) and same_bytes(x, rows[6:])
        monkeypatch.undo()
        for real in (None, 100.0 * rng.normal(size=(6, 4))):
            other_loss, other_grads = g_loss(g, d, z, m, real)
            assert repr(other_loss) == repr(loss)
            assert same_bytes(other_grads.flat, grads.flat)

    def test_refuses_the_row_counts_d_loss_refuses(self):
        g, d = small_gan()
        rng = np.random.default_rng(31)
        z, m = gan.sample_z(rng, 4, 3), rng.normal(size=(4, 4))
        _, g_tape = gan.generate(g, z, m)
        for rows in (np.zeros((7, 8), np.float32), np.zeros(8, np.float32)):
            for loss in (lambda: gan.d_loss(d, rows), lambda: gan.g_loss(g, d, rows, g_tape)):
                with pytest.raises(nn.ShapeError, match="2B"):
                    loss()

    def test_discriminator_parameters_are_left_alone(self):
        g, d = small_gan(seed=19)
        rng = np.random.default_rng(20)
        before = d.net.params.copy()
        z, m = gan.sample_z(rng, 4, 3), rng.normal(size=(4, 4))
        g_loss(g, d, z, m)
        assert np.array_equal(d.net.params, before)

    def test_loss_falls_when_fakes_start_fooling(self):
        g, d = small_gan(seed=21)
        rng = np.random.default_rng(22)
        z = gan.sample_z(rng, 16, 3)
        m = rng.normal(size=(16, 4))
        first, _ = g_loss(g, d, z, m)
        for _ in range(100):
            _, grads = g_loss(g, d, z, m)
            g.net.set_flat_params(g.net.params - 0.1 * grads.flat)
        last, _ = g_loss(g, d, z, m)
        assert last < first

    def test_conditioning_input_gradient_matches_finite_differences(self):
        # perturbing the conditioning columns must match the slice of the
        # generator's input gradient behind z; this is how transmitter
        # gradients cross the surrogate
        g, _ = small_gan(seed=23, float64=True)
        rng = np.random.default_rng(24)
        z = gan.sample_z(rng, 5, 3)
        m = rng.normal(size=(5, 4))

        fake, tape = gan.generate(g, z, m)
        _, input_grad = nn.backward(g.net, tape, fake)
        analytic = input_grad[:, g.z_dim :]

        def at(m_flat):
            out, _ = gan.generate(g, z, m_flat.reshape(5, 4))
            return 0.5 * float((out**2).sum())

        idx = np.arange(20)
        fd = central_difference(at, m.ravel().copy(), idx)
        assert relative_error(analytic.ravel()[idx], fd).max() < 1e-6
