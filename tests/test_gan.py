"""Conditional GAN pieces: generator, discriminator, both loss heads."""

import numpy as np
import pytest

from gancomm import gan, nn
from gancomm.config import ConfigError
from helpers import central_difference, float64_copy, relative_error

LN2 = float(np.log(2.0))


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

    def test_discriminate_shape(self):
        _, d = small_gan()
        rng = np.random.default_rng(6)
        logits, _ = gan.discriminate(d, rng.normal(size=(5, 4)),
                                     rng.normal(size=(5, 4)))
        assert logits.shape == (5, 1)


class TestDiscriminatorLoss:
    def test_zero_logits_give_two_ln_two(self):
        # all-zero weights force logit 0 on both batches, so each BCE term
        # is exactly ln 2 and the classifier is at chance
        _, d = small_gan(seed=7, float64=True)
        for layer in d.net.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        rng = np.random.default_rng(8)
        loss, _, acc = gan.d_loss(
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
            _, grads, acc = gan.d_loss(d, real, fake, m)
            if acc == 1.0:
                break
            flat = d.net.flat_params() - 0.5 * grads.flat
            d.net.set_flat_params(flat)
        assert acc == 1.0

    def test_parameter_gradients_match_finite_differences(self):
        g, d = small_gan(seed=11, float64=True)
        rng = np.random.default_rng(12)
        m = rng.normal(size=(6, 4))
        real = rng.normal(size=(6, 4))
        fake, _ = gan.generate(g, gan.sample_z(rng, 6, 3), m)

        _, grads, _ = gan.d_loss(d, real, fake, m)
        flat = d.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            d.net.set_flat_params(params)
            loss, _, _ = gan.d_loss(d, real, fake, m)
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
            logits_r, _ = gan.discriminate(d, real, m)
            logits_f, _ = gan.discriminate(d, fake, m)
            return float(np.mean(np.logaddexp(0.0, -logits_r))
                         + np.mean(np.logaddexp(0.0, logits_f)))

        flat = d.net.flat_params()
        loss, grads, _ = gan.d_loss(d, real, fake, m)
        assert loss == pytest.approx(two_bces(flat), rel=1e-12)
        fd = central_difference(two_bces, flat, np.arange(flat.size))
        d.net.set_flat_params(flat)
        # every parameter, small gradients too, so an absolute bound: the
        # differences round at about 1e-10 here
        assert np.abs(grads.flat - fd).max() < 1e-8


class TestGeneratorLoss:
    def test_parameter_gradients_match_finite_differences(self):
        # the path runs through the discriminator's input gradient, which
        # is exactly the bridge the transmitter update relies on
        g, d = small_gan(seed=17, float64=True)
        rng = np.random.default_rng(18)
        z = gan.sample_z(rng, 6, 3)
        m = rng.normal(size=(6, 4))

        _, grads = gan.g_loss(g, d, *gan.generate(g, z, m), m)
        flat = g.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 30).astype(int)

        def at(params):
            g.net.set_flat_params(params)
            loss, _ = gan.g_loss(g, d, *gan.generate(g, z, m), m)
            return loss

        fd = central_difference(at, flat, idx)
        g.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_discriminator_parameters_are_left_alone(self):
        g, d = small_gan(seed=19)
        rng = np.random.default_rng(20)
        before = d.net.flat_params().copy()
        z, m = gan.sample_z(rng, 4, 3), rng.normal(size=(4, 4))
        gan.g_loss(g, d, *gan.generate(g, z, m), m)
        assert np.array_equal(d.net.flat_params(), before)

    def test_loss_falls_when_fakes_start_fooling(self):
        g, d = small_gan(seed=21)
        rng = np.random.default_rng(22)
        z = gan.sample_z(rng, 16, 3)
        m = rng.normal(size=(16, 4))
        first, _ = gan.g_loss(g, d, *gan.generate(g, z, m), m)
        for _ in range(100):
            _, grads = gan.g_loss(g, d, *gan.generate(g, z, m), m)
            g.net.set_flat_params(g.net.flat_params() - 0.1 * grads.flat)
        last, _ = gan.g_loss(g, d, *gan.generate(g, z, m), m)
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
