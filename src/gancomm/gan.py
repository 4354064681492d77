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


def _stack(blocks: list[np.ndarray], m: np.ndarray, net: nn.DenseNet) -> np.ndarray:
    """[b, m] for each b of blocks, the rows of one under those of the
    other, filled into one array in the net's dtype; ``nn.forward`` checks
    its width."""
    shape = blocks[0].shape
    if (len(shape) != 2 or m.ndim != 2 or len(m) != shape[0]
            or any(b.shape != shape for b in blocks)):
        raise nn.ShapeError(
            f"blocks {[b.shape for b in blocks]} and conditioning {m.shape} "
            f"must be 2-D, with one row each per batch row")
    out = np.empty((len(blocks), shape[0], shape[1] + m.shape[1]), dtype=net.dtype)
    for i, b in enumerate(blocks):
        out[i, :, : shape[1]] = b
    out[:, :, shape[1] :] = m
    return out.reshape(-1, out.shape[2])


def generate(
    g: Generator, z: np.ndarray, m: np.ndarray, tape: nn.Tape | None = None
) -> tuple[np.ndarray, nn.Tape]:
    """Fake received blocks for noise z under conditioning m, and the
    generator's tape (see ``nn.forward``)."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != g.z_dim:
        raise nn.ShapeError(f"z must be (batch, {g.z_dim}), got {z.shape}")
    return nn.forward(g.net, _stack([z], m, g.net), tape)


def real_fake_rows(
    d: Discriminator, real_y: np.ndarray, fake_y: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """The discriminator's input for ``d_loss`` and ``g_loss``: the 2B rows
    [real_y, m; fake_y, m] of a real and a fake batch under one
    conditioning m, in one array of the net's dtype."""
    return _stack([real_y, fake_y], m, d.net)


def _half(rows: np.ndarray) -> int:
    """B, for the 2B rows of a ``real_fake_rows`` array."""
    if rows.ndim != 2 or rows.shape[0] % 2:
        raise nn.ShapeError(f"expected [real; fake] rows, 2B of them, got {rows.shape}")
    return rows.shape[0] // 2


def d_loss(
    d: Discriminator, rows: np.ndarray, tape: nn.Tape | None = None
) -> tuple[float, nn.Gradients, float]:
    """Discriminator BCE on a real and a fake batch under one conditioning,
    given as ``real_fake_rows``: mean BCE of the real rows against 'real'
    plus that of the fake rows against 'fake'.

    Returns (loss, parameter gradients, classification accuracy). The 2B
    rows are scored in one pass, ``tape`` (None makes a new one), and the
    two halves' BCE gradients, stacked the same way, go back through it in
    one backward. The rows are only read, so one array may be scored again.
    The fake batch is treated as a constant: no gradient flows to the
    generator here.
    """
    batch = _half(rows)
    logits, tape = nn.forward(d.net, rows, tape)
    loss_r, loss_f, grad = nn.sigmoid_bce(logits, batch)
    loss = float(loss_r + loss_f)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("discriminator loss is not finite")
    # before backward, which overwrites the logits
    accuracy = float(0.5 * (np.count_nonzero(logits[:batch] > 0.0) / batch
                            + np.count_nonzero(logits[batch:] <= 0.0) / batch))
    grads, _ = nn.backward(d.net, tape, grad, inputs=False)
    return loss, grads, accuracy


def g_loss(
    g: Generator,
    d: Discriminator,
    rows: np.ndarray,
    g_tape: nn.Tape,
    tape: nn.Tape | None = None,
) -> tuple[float, nn.Gradients]:
    """Non-saturating generator loss: BCE of D(fake) against target 'real'.

    ``rows`` is ``real_fake_rows`` of a real batch and a generator pass's
    fakes, and ``g_tape`` that pass's tape; the generator must not have
    moved since, and the tape is consumed. Only the fake half is scored, as
    a view of ``rows``. The discriminator is read but not updated: its pass
    runs on ``tape`` (None makes a new one), and only its input gradient is
    used to reach the generator parameters.
    """
    batch = _half(rows)
    logits, d_tape = nn.forward(d.net, rows[batch:], tape)
    loss, _, grad_logits = nn.sigmoid_bce(logits, batch)
    if not np.isfinite(loss):
        raise nn.NonFiniteError("generator loss is not finite")
    _, d_input_grad = nn.backward(d.net, d_tape, grad_logits, params=False)
    upstream_fake = d_input_grad[:, : g.net.output_dim]
    g_grads, _ = nn.backward(g.net, g_tape, upstream_fake, inputs=False)
    return loss, g_grads
