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
    """Dense net over [z, conditioning] producing a fake received block;
    the first z_dim inputs are the noise."""

    def __init__(self, net: nn.DenseNet, z_dim: int):
        if not 1 <= z_dim < net.input_dim:
            raise ConfigError(
                f"z_dim must lie in [1, {net.input_dim}), the generator net's "
                f"input width, got {z_dim}"
            )
        self.net = net
        self.z_dim = z_dim


class Discriminator:
    """Dense net over [y, conditioning] producing one real/fake logit."""

    def __init__(self, net: nn.DenseNet):
        if net.output_dim != 1:
            raise ConfigError(
                f"discriminator net emits {net.output_dim} values, expected 1 logit"
            )
        self.net = net


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


def _stack(a: np.ndarray, m: np.ndarray, net: nn.DenseNet) -> np.ndarray:
    """[a, m] as one array in the net's dtype; ``nn.forward`` checks its width."""
    return np.concatenate([a, m], axis=1, dtype=net.dtype)


def generate(
    g: Generator, z: np.ndarray, m: np.ndarray, tape: nn.Tape | None = None
) -> tuple[np.ndarray, nn.Tape]:
    """Fake received blocks for noise z under conditioning m, and the
    generator's tape (see ``nn.forward``)."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != g.z_dim:
        raise nn.ShapeError(f"z must be (batch, {g.z_dim}), got {z.shape}")
    return nn.forward(g.net, _stack(z, m, g.net), tape)


def discriminate(
    d: Discriminator, y: np.ndarray, m: np.ndarray, tape: nn.Tape | None = None
) -> tuple[np.ndarray, nn.Tape]:
    """Real/fake logits, (batch, 1), positive favoring 'real', and the
    discriminator's tape (see ``nn.forward``)."""
    return nn.forward(d.net, _stack(y, m, d.net), tape)


def d_loss(
    d: Discriminator,
    real_y: np.ndarray,
    fake_y: np.ndarray,
    m: np.ndarray,
    tape: nn.Tape | None = None,
) -> tuple[float, nn.Gradients, float]:
    """Discriminator BCE on a real and a fake batch under conditioning m:
    mean BCE of the real rows against 'real' plus that of the fake rows
    against 'fake'.

    Returns (loss, parameter gradients, classification accuracy). The two
    batches are scored as the 2B rows [real; fake] in one pass, ``tape``
    (None makes a new one), and the two halves' BCE gradients, stacked the
    same way, go back through it in one backward. The fake batch is treated
    as a constant: no gradient flows to the generator here.
    """
    batch = real_y.shape[0]
    logits, tape = discriminate(
        d, np.concatenate([real_y, fake_y]), np.concatenate([m, m]), tape
    )
    loss_r, grad_r = nn.sigmoid_bce(logits[:batch], real=True)
    loss_f, grad_f = nn.sigmoid_bce(logits[batch:], real=False)
    loss = float(loss_r + loss_f)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("discriminator loss is not finite")
    # before backward, which overwrites the logits
    accuracy = float(0.5 * (np.count_nonzero(logits[:batch] > 0.0) / batch
                            + np.count_nonzero(logits[batch:] <= 0.0) / batch))
    grads, _ = nn.backward(d.net, tape, np.concatenate([grad_r, grad_f]),
                           inputs=False)
    return loss, grads, accuracy


def g_loss(
    g: Generator,
    d: Discriminator,
    fake_y: np.ndarray,
    g_tape: nn.Tape,
    m: np.ndarray,
    tape: nn.Tape | None = None,
) -> tuple[float, nn.Gradients]:
    """Non-saturating generator loss: BCE of D(fake) against target 'real'.

    ``fake_y`` and ``g_tape`` are a generator pass under conditioning m, as
    ``generate`` returns them; the generator must not have moved since, and
    the tape is consumed. The discriminator is read but not updated: its
    pass runs on ``tape`` (None makes a new one), and only its input
    gradient is used to reach the generator parameters.
    """
    logits, d_tape = discriminate(d, fake_y, m, tape)
    loss, grad_logits = nn.sigmoid_bce(logits, real=True)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("generator loss is not finite")
    _, d_input_grad = nn.backward(d.net, d_tape, grad_logits, params=False)
    upstream_fake = d_input_grad[:, : fake_y.shape[1]]
    g_grads, _ = nn.backward(g.net, g_tape, upstream_fake, inputs=False)
    return float(loss), g_grads
