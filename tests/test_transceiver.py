"""Learned transmitter/receiver wrappers and power normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gancomm import nn, transceiver
from gancomm.config import ConfigError
from helpers import central_difference, float64_copy, relative_error


class TestOnehot:
    def test_positions(self):
        out = transceiver.to_onehot(np.array([2, 0]), 4)
        assert np.array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            transceiver.to_onehot(np.array([4]), 4)
        with pytest.raises(ValueError):
            transceiver.to_onehot(np.array([-1]), 4)

    def test_rejects_float_messages(self):
        with pytest.raises(ValueError):
            transceiver.to_onehot(np.array([1.0, 2.0]), 4)

    @given(st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_rows_are_exactly_one_hot(self, k, batch):
        rng = np.random.default_rng(batch)
        msgs = rng.integers(0, 2**k, batch)
        out = transceiver.to_onehot(msgs, 2**k)
        assert np.all(out.sum(axis=1) == 1.0)
        assert np.array_equal(out.argmax(axis=1), msgs)


def identity_receiver(m_count=4):
    # one linear layer with identity weights: the logits are the received
    # block itself (n = m_count / 2 complex uses)
    layer = nn.Layer(w=np.eye(m_count), b=np.zeros(m_count), activation="linear")
    return transceiver.Receiver(nn.DenseNet([layer]))


class TestHardDecision:
    def test_picks_argmax(self):
        logits = np.array([[0.1, 0.7, 0.2, -1.0], [0.5, 0.3, 0.2, -1.0]])
        assert np.array_equal(identity_receiver().decode(logits), [1, 0])

    def test_tie_goes_to_lowest_index(self):
        logits = np.array([[0.4, -0.2, 0.4, 0.2], [-3.0, -3.0, -3.0, -3.0]])
        assert np.array_equal(identity_receiver().decode(logits), [0, 0])


def make_tx(seed=0, m_count=8, n=3):
    rng = np.random.default_rng(seed)
    return transceiver.Transmitter(nn.DenseNet.create((m_count, 12, 2 * n), rng))


class TestTransmitter:
    def test_every_block_has_exactly_unit_power_per_use(self):
        tx = make_tx()
        x, _ = tx.encode(np.arange(8))
        power = (x**2).sum(axis=1)
        assert np.allclose(power, tx.n, rtol=1e-12)

    def test_distinct_messages_map_to_distinct_blocks(self):
        tx = make_tx(seed=1)
        x = tx.encode_messages(np.arange(8))
        dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 1e-3

    def test_normalization_gradient_is_orthogonal_to_prenorm(self):
        # the block norm is pinned, so no gradient component may move it
        tx = make_tx(seed=2)
        x, tape = tx.encode(np.arange(8))
        rng = np.random.default_rng(3)
        upstream = rng.normal(size=x.shape)
        # recompute the prenorm gradient the same way backward does
        dot = np.einsum("ij,ij->i", tape.prenorm, upstream)
        g_prenorm = tape.scale[:, None] * (
            upstream - tape.prenorm * (dot / tape.norm_sq)[:, None]
        )
        radial = np.einsum("ij,ij->i", g_prenorm, tape.prenorm)
        assert np.abs(radial).max() < 1e-10

    def test_backward_matches_finite_differences(self):
        tx = make_tx(seed=4)
        tx.net = float64_copy(tx.net)
        messages = np.array([0, 3, 5])
        target = np.random.default_rng(5).normal(size=(3, 6))

        def loss_value():
            x, _ = tx.encode(messages)
            return 0.5 * float(((x - target) ** 2).sum())

        x, tape = tx.encode(messages)
        grads = tx.backward(tape, x - target)

        flat = tx.net.flat_params()
        idx = np.linspace(0, flat.size - 1, 40).astype(int)

        def at(params):
            tx.net.set_flat_params(params)
            return loss_value()

        fd = central_difference(at, flat, idx)
        tx.net.set_flat_params(flat)
        assert relative_error(grads.flat[idx], fd).max() < 1e-6

    def test_collapsed_output_raises(self):
        tx = make_tx(seed=6)
        for layer in tx.net.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        with pytest.raises(FloatingPointError, match="power"):
            tx.encode(np.array([0]))

    def test_encode_checks_the_message_indices(self):
        tx = make_tx()
        for bad in (np.array([8]), np.array([-1]), np.array([1.0])):
            with pytest.raises(ValueError):
                tx.encode(bad)
        with pytest.raises(nn.ShapeError):
            tx.encode(np.array([[0, 1]]))

    def test_odd_output_width_is_refused(self):
        # a block of n complex uses is 2n reals
        net = nn.DenseNet.create((8, 12, 5), np.random.default_rng(0))
        with pytest.raises(ConfigError, match="even"):
            transceiver.Transmitter(net)


class TestReceiver:
    def test_decode_returns_the_most_likely_message_per_row(self):
        rng = np.random.default_rng(7)
        rx = transceiver.Receiver(nn.DenseNet.create((6, 10, 8), rng))
        y = rng.normal(size=(5, 6))
        decided = rx.decode(y)
        assert decided.shape == (5,)
        assert np.issubdtype(decided.dtype, np.integer)
        logits, _ = rx.forward_logits(y)
        assert np.array_equal(decided, logits.argmax(axis=1))

    def test_pilot_required_when_configured(self):
        rng = np.random.default_rng(8)
        rx = transceiver.Receiver(nn.DenseNet.create((8, 10, 8), rng))
        with pytest.raises(nn.ShapeError, match="input dim 8, got 6"):
            rx.decode(rng.normal(size=(2, 6)))

    def test_pilot_rejected_when_not_configured(self):
        rng = np.random.default_rng(9)
        rx = transceiver.Receiver(nn.DenseNet.create((6, 10, 8), rng))
        with pytest.raises(nn.ShapeError, match="input dim 6, got 8"):
            rx.decode(rng.normal(size=(2, 6)), rng.normal(size=(2, 2)))

    def test_pilot_widens_input(self):
        rng = np.random.default_rng(10)
        rx = transceiver.Receiver(nn.DenseNet.create((10, 10, 8), rng))
        decided = rx.decode(rng.normal(size=(4, 6)), rng.normal(size=(4, 4)))
        assert decided.shape == (4,)

    def test_wrong_block_width_raises(self):
        rng = np.random.default_rng(11)
        rx = transceiver.Receiver(nn.DenseNet.create((6, 10, 8), rng))
        with pytest.raises(nn.ShapeError):
            rx.decode(rng.normal(size=(2, 7)))
