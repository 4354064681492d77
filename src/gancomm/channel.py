"""Ground-truth channel simulators: AWGN and Rayleigh block fading.

Blocks of n complex channel uses travel as (batch, 2n) float64 arrays with
interleaved (re, im) pairs, matching the network input/output layout. One
fading coefficient h applies to a whole block (and to its pilot), drawn
fresh per block.

These simulators generate the data the channel GAN trains on and carry all
final evaluation traffic. They are observation-only: the channel has no
backward pass, and transmitter gradients flow through the generator
instead. ``make_channel`` wraps them in one object per channel kind, which
is where the rest of the package learns whether there is a fading state
and a pilot.

Each simulator returns a new array: it writes the noiseless block into it
(fading multiplies h onto zero-copy complex views of the interleaved
blocks), then adds the noise in place, one ``standard_normal`` draw of the
block's shape, in row-major order, scaled by its std. The caller's blocks
are never written.
"""

from __future__ import annotations

import numpy as np


def iq_to_complex(blocks: np.ndarray) -> np.ndarray:
    """(batch, 2n) interleaved reals -> (batch, n) complex."""
    blocks = np.asarray(blocks, dtype=np.float64)
    return blocks[..., 0::2] + 1j * blocks[..., 1::2]


# The widest Eb/N0, in dB either side of 0, that configs and sweeps accept.
# 10^(300/10) = 1e30 keeps N0 and the noise std far inside the float64
# range for any rate k/n; a few thousand dB overflows 10^(ebn0/10) or
# rounds it to 0.
EBN0_DB_LIMIT = 300.0


def noise_std_from_snr(ebn0_db: float, k: int, n: int) -> float:
    """Per-real-dimension noise standard deviation at Eb/N0 ebn0_db for a
    block code of k information bits over n complex channel uses.

    With unit average power per complex use and rate R = k/n bits per use,
    N0 = 1 / (R * 10^(ebn0_db/10)); the noise is CN(0, N0), i.e. variance
    N0/2 per real dimension.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if not abs(ebn0_db) <= EBN0_DB_LIMIT:
        raise ValueError(f"ebn0_db must lie within +-{EBN0_DB_LIMIT:g} dB")
    rate = k / n
    n0 = 1.0 / (rate * 10.0 ** (ebn0_db / 10.0))
    return float(np.sqrt(n0 / 2.0))


def _receive(y: np.ndarray, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Add w onto the simulator's own noiseless y in place and return it:
    w is i.i.d. Gaussian(0, noise_std^2) per real dimension, drawn in
    row-major order. A noise_std of 0 draws nothing; a negative or NaN one
    raises."""
    if not noise_std >= 0:
        raise ValueError(f"noise std must be >= 0, got {noise_std}")
    if noise_std > 0:
        noise = rng.standard_normal(y.shape)
        noise *= noise_std
        y += noise
    return y


def awgn_apply(x: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """y = x + w with w i.i.d. Gaussian(0, std^2) per real dimension."""
    return _receive(np.array(x, dtype=np.float64), std, rng)


def rayleigh_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size coefficients h ~ CN(0, 1): independent Gaussian re/im,
    E[|h|^2] = 1. All real parts are drawn, then all imaginary parts, each
    through one draw buffer straight into h, so h holds the values
    ``normal(0, sqrt(0.5))`` would give from the same stream positions."""
    h = np.empty(size, dtype=np.complex128)
    draw = np.empty(size)
    for part in (h.real, h.imag):
        np.multiply(rng.standard_normal(out=draw), np.sqrt(0.5), out=part)
    return h


def fading_apply(
    x: np.ndarray, h: np.ndarray, noise_std: float, rng: np.random.Generator,
) -> np.ndarray:
    """y_i = h * x_i + w_i; one h multiplies every complex use of a block.

    ``h`` holds one coefficient per block of the (batch, 2n) ``x``, shape
    (batch,); ``noise_std`` is per real dimension.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.complex128)
    if x.ndim != 2 or h.shape != x.shape[:1]:
        raise ValueError(f"h {h.shape} must hold one coefficient per block of {x.shape}")
    # the interleaved (re, im) pairs of a C-contiguous float64 block are a
    # complex128 array in memory, so h multiplies views, not copies
    y = np.multiply(x.view(np.complex128), h[:, None]).view(np.float64)
    return _receive(y, noise_std, rng)


def pilot_receive(
    h: np.ndarray, noise_std: float, n_pilot: int, rng: np.random.Generator,
) -> np.ndarray:
    """Receive the known all-ones pilot: y_p = h * 1 + w, per pilot use.

    ``h`` holds one coefficient per block, shape (batch,); the pilots come
    back (batch, 2*n_pilot).
    """
    if n_pilot < 1:
        raise ValueError("n_pilot must be >= 1")
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ValueError(f"h must hold one coefficient per block, got shape {h.shape}")
    # h * 1 is h exactly, so every pilot use receives h before the noise
    y = np.repeat(h[:, None], n_pilot, axis=1).view(np.float64)
    return _receive(y, noise_std, rng)


class Channel:
    """One channel kind as training and evaluation see it.

    A channel knows its pilot count (0 without pilots), the GAN
    conditioning width that follows from it, how to draw the per-block
    state of a batch, and what a receiver observes. Every draw comes from
    the stream passed in; the methods call the simulators above.
    """

    n_pilot: int

    def cond_dim(self, n: int) -> int:
        """GAN conditioning width for n-use blocks: block plus pilots."""
        return 2 * n + 2 * self.n_pilot

    def draw_state(self, rng: np.random.Generator, batch: int):
        """Per-block channel state of a batch, or None if there is none."""
        raise NotImplementedError

    def apply(self, x: np.ndarray, state, noise_std: float,
              rng: np.random.Generator) -> np.ndarray:
        """Received blocks for transmitted blocks x under state."""
        raise NotImplementedError

    def pilots(self, state, noise_std: float,
               rng: np.random.Generator) -> np.ndarray | None:
        """Received pilots under state, or None without pilots."""
        if self.n_pilot == 0:
            return None
        return pilot_receive(state, noise_std, self.n_pilot, rng)

    def observe(self, x: np.ndarray, state, noise_std: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        """What the receiver sees: the received blocks, then the received
        pilots (or None). Block noise is drawn before pilot noise."""
        return (self.apply(x, state, noise_std, rng),
                self.pilots(state, noise_std, rng))


class AwgnChannel(Channel):
    """Additive white Gaussian noise: no state and no pilots."""

    n_pilot = 0

    def draw_state(self, rng, batch):
        return None

    def apply(self, x, state, noise_std, rng):
        return awgn_apply(x, noise_std, rng)


class RayleighChannel(Channel):
    """Rayleigh block fading: one h ~ CN(0, 1) per block, shared by the
    block and its n_pilot all-ones pilot uses (none when n_pilot is 0).
    The state is h, one coefficient per block."""

    def __init__(self, n_pilot: int = 1):
        self.n_pilot = n_pilot

    def draw_state(self, rng, batch):
        return rayleigh_sample(rng, batch)

    def apply(self, x, state, noise_std, rng):
        return fading_apply(x, state, noise_std, rng)


def make_channel(kind: str, n_pilot: int = 1) -> Channel:
    """The channel object of a kind; n_pilot counts only where there are pilots."""
    if kind == "awgn":
        return AwgnChannel()
    if kind == "rayleigh":
        return RayleighChannel(n_pilot)
    raise ValueError(f"unknown channel kind {kind!r}")
