"""Conditional GAN that stands in for the channel.

The generator maps [z, m] -> fake received block, where z is standard
normal and m is the conditioning: the transmitted block x on AWGN, or
[x, received pilots] on fading channels. ``conditioning`` builds m, for
training and for the surrogate diagnostics alike. The discriminator maps
[y, m] -> one real/fake logit. Because the generator is an explicit dense
net, gradients can flow from a receiver loss through the fake block back
into the transmitter, which the real channel cannot offer.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .config import ConfigError


class Generator:
    """Dense net over [z, conditioning] producing a fake received block."""

    def __init__(self, net: nn.DenseNet, n: int, z_dim: int, cond_dim: int):
        if z_dim < 1 or cond_dim < 1:
            raise ValueError("z_dim and cond_dim must be >= 1")
        if net.input_dim != z_dim + cond_dim:
            raise ConfigError(
                f"generator net takes {net.input_dim} inputs, expected "
                f"z_dim + cond_dim = {z_dim + cond_dim}"
            )
        if net.output_dim != 2 * n:
            raise ConfigError(
                f"generator net emits {net.output_dim} values, expected 2n = {2 * n}"
            )
        self.net = net
        self.n = n
        self.z_dim = z_dim
        self.cond_dim = cond_dim



class Discriminator:
    """Dense net over [y, conditioning] producing one real/fake logit."""

    def __init__(self, net: nn.DenseNet, n: int, cond_dim: int):
        if net.input_dim != 2 * n + cond_dim:
            raise ConfigError(
                f"discriminator net takes {net.input_dim} inputs, expected "
                f"2n + cond_dim = {2 * n + cond_dim}"
            )
        if net.output_dim != 1:
            raise ConfigError(
                f"discriminator net emits {net.output_dim} values, expected 1 logit"
            )
        self.net = net
        self.n = n
        self.cond_dim = cond_dim



def sample_z(rng: np.random.Generator, batch: int, z_dim: int) -> np.ndarray:
    """Standard normal noise input, (batch, z_dim), drawn in float64 like
    every other random draw; it is cast where it enters the generator."""
    return rng.standard_normal((batch, z_dim))


def conditioning(x: np.ndarray, y_pilot: np.ndarray | None) -> np.ndarray:
    """The conditioning m of a batch: the transmitted blocks, with the
    received pilots appended on a channel that has them."""
    if y_pilot is None:
        return x
    return np.concatenate([x, y_pilot], axis=1)


def _stack(a: np.ndarray, m: np.ndarray, cond_dim: int, net: nn.DenseNet) -> np.ndarray:
    """[a, m] as one array in the net's dtype, after checking m's shape."""
    m = np.asarray(m)
    if m.shape != (a.shape[0], cond_dim):
        raise nn.ShapeError(
            f"conditioning must be ({a.shape[0]}, {cond_dim}), got {m.shape}"
        )
    return np.concatenate([a, m], axis=1, dtype=net.dtype)


def generate(
    g: Generator, z: np.ndarray, m: np.ndarray, tape: nn.Tape | None = None
) -> tuple[np.ndarray, nn.Tape]:
    """Fake received blocks for noise z under conditioning m, and the
    generator's tape (see ``nn.forward``)."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != g.z_dim:
        raise nn.ShapeError(f"z must be (batch, {g.z_dim}), got {z.shape}")
    return nn.forward(g.net, _stack(z, m, g.cond_dim, g.net), tape)


def discriminate(
    d: Discriminator, y: np.ndarray, m: np.ndarray, tape: nn.Tape | None = None
) -> tuple[np.ndarray, nn.Tape]:
    """Real/fake logits, (batch, 1), positive favoring 'real', and the
    discriminator's tape (see ``nn.forward``)."""
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] != 2 * d.n:
        raise nn.ShapeError(f"y must be (batch, {2 * d.n}), got {y.shape}")
    return nn.forward(d.net, _stack(y, m, d.cond_dim, d.net), tape)


def d_loss(
    d: Discriminator,
    real_y: np.ndarray,
    fake_y: np.ndarray,
    m: np.ndarray,
    tapes: tuple[nn.Tape | None, nn.Tape | None] = (None, None),
) -> tuple[float, nn.Gradients, float]:
    """Discriminator BCE on a real and a fake batch under conditioning m.

    Returns (loss, parameter gradients, classification accuracy). The fake
    batch is treated as a constant: no gradient flows to the generator
    here. ``tapes`` are the real and the fake pass's tapes; None makes a new one.
    """
    logits_r, tape_r = discriminate(d, real_y, m, tapes[0])
    logits_f, tape_f = discriminate(d, fake_y, m, tapes[1])
    loss_r, grad_r = nn.sigmoid_bce(logits_r, real=True)
    loss_f, grad_f = nn.sigmoid_bce(logits_f, real=False)
    loss = float(loss_r + loss_f)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("discriminator loss is not finite")
    # before backward, which overwrites the logits
    accuracy = float(0.5 * (np.mean(logits_r > 0.0) + np.mean(logits_f <= 0.0)))
    grads_r, _ = nn.backward(d.net, tape_r, grad_r, inputs=False)
    grads_f, _ = nn.backward(d.net, tape_f, grad_f, inputs=False)
    return loss, grads_r.accumulate(grads_f), accuracy


def g_loss(
    g: Generator,
    d: Discriminator,
    z: np.ndarray,
    m: np.ndarray,
    tapes: tuple[nn.Tape | None, nn.Tape | None] = (None, None),
) -> tuple[float, nn.Gradients]:
    """Non-saturating generator loss: BCE of D(fake) against target 'real'.

    The discriminator is read but not updated; only its input gradient is
    used to reach the generator parameters. ``tapes`` are the generator's
    and the discriminator's tapes; None makes a new one.
    """
    fake_y, g_tape = generate(g, z, m, tapes[0])
    logits, d_tape = discriminate(d, fake_y, m, tapes[1])
    loss, grad_logits = nn.sigmoid_bce(logits, real=True)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("generator loss is not finite")
    _, d_input_grad = nn.backward(d.net, d_tape, grad_logits, params=False)
    upstream_fake = d_input_grad[:, : 2 * d.n]
    g_grads, _ = nn.backward(g.net, g_tape, upstream_fake, inputs=False)
    return float(loss), g_grads
