"""Ground-truth channel simulators: AWGN and Rayleigh block fading.

Blocks of n complex channel uses travel as (batch, 2n) float64 arrays with
interleaved (re, im) pairs, matching the network input/output layout. One
fading coefficient h applies to a whole block (and to its pilot), drawn
fresh per block.

These simulators generate the data the channel GAN trains on and carry all
final evaluation traffic. They are observation-only: there is deliberately
no gradient path through this module (see ``backward``). ``make_channel``
wraps them in one object per channel kind, which is where the rest of the
package learns whether there is a fading state and a pilot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def iq_to_complex(blocks: np.ndarray) -> np.ndarray:
    """(batch, 2n) interleaved reals -> (batch, n) complex."""
    blocks = np.asarray(blocks, dtype=np.float64)
    return blocks[..., 0::2] + 1j * blocks[..., 1::2]


def complex_to_iq(symbols: np.ndarray) -> np.ndarray:
    """(batch, n) complex -> (batch, 2n) interleaved reals."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.float64)
    out[..., 0::2] = symbols.real
    out[..., 1::2] = symbols.imag
    return out


@dataclass(frozen=True)
class SnrSpec:
    """An Eb/N0 operating point for a rate k/n block code."""

    ebn0_db: float
    k: int  # information bits per block
    n: int  # complex channel uses per block

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be >= 1")
        if not np.isfinite(self.ebn0_db):
            raise ValueError("ebn0_db must be finite")


def noise_std_from_snr(spec: SnrSpec) -> float:
    """Per-real-dimension noise standard deviation for an Eb/N0 point.

    With unit average power per complex use and rate R = k/n bits per use,
    N0 = 1 / (R * 10^(ebn0_db/10)); the noise is CN(0, N0), i.e. variance
    N0/2 per real dimension.
    """
    rate = spec.k / spec.n
    n0 = 1.0 / (rate * 10.0 ** (spec.ebn0_db / 10.0))
    return float(np.sqrt(n0 / 2.0))


def awgn_apply(x: np.ndarray, std: float, rng: np.random.Generator) -> np.ndarray:
    """y = x + w with w i.i.d. Gaussian(0, std^2) per real dimension."""
    x = np.asarray(x, dtype=np.float64)
    if std < 0:
        raise ValueError("std must be >= 0")
    if std == 0:
        return x.copy()
    return x + rng.normal(0.0, std, size=x.shape)


def rayleigh_sample(rng: np.random.Generator, size: int | None = None):
    """Draw h ~ CN(0, 1): independent Gaussian re/im, E[|h|^2] = 1."""
    shape = () if size is None else (size,)
    re = rng.normal(0.0, np.sqrt(0.5), size=shape)
    im = rng.normal(0.0, np.sqrt(0.5), size=shape)
    h = re + 1j * im
    return complex(h) if size is None else h


def fading_apply(
    x: np.ndarray, h: complex | np.ndarray, noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """y_i = h * x_i + w_i; one h multiplies every complex use of a block.

    ``h`` is a scalar for a single block or a (batch,) array for a batch of
    independently faded blocks; ``noise_std`` is per real dimension.
    """
    x = np.asarray(x, dtype=np.float64)
    symbols = iq_to_complex(x)
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        if x.ndim != 2 or h.shape[0] != x.shape[0]:
            raise ValueError(f"h batch {h.shape} does not match blocks {x.shape}")
        faded = symbols * h[:, None]
    else:
        faded = symbols * h
    out = complex_to_iq(faded)
    if noise_std > 0:
        out = out + rng.normal(0.0, noise_std, size=out.shape)
    return out


def pilot_receive(
    h: complex | np.ndarray, noise_std: float, n_pilot: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Receive the known all-ones pilot: y_p = h * 1 + w, per pilot use.

    Shape (2*n_pilot,) for a scalar h, (batch, 2*n_pilot) for a batched one.
    """
    if n_pilot < 1:
        raise ValueError("n_pilot must be >= 1")
    h = np.asarray(h, dtype=np.complex128)
    x = complex_to_iq(np.ones(h.shape + (n_pilot,), dtype=np.complex128))
    return fading_apply(x, h, noise_std, rng)


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
        raise NotImplementedError

    def observe(self, x: np.ndarray, state, noise_std: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        """What the receiver sees: the received blocks, then the received
        pilots (or None). Block noise is drawn before pilot noise."""
        return self.apply(x, state, noise_std, rng), self.pilots(state, noise_std, rng)


class AwgnChannel(Channel):
    """Additive white Gaussian noise: no state and no pilots."""

    n_pilot = 0

    def draw_state(self, rng, batch):
        return None

    def apply(self, x, state, noise_std, rng):
        return awgn_apply(x, noise_std, rng)

    def pilots(self, state, noise_std, rng):
        return None


class RayleighChannel(Channel):
    """Rayleigh block fading: one h ~ CN(0, 1) per block, shared by the
    block and its n_pilot all-ones pilot uses. The state is h, a scalar or
    one coefficient per block."""

    def __init__(self, n_pilot: int = 1):
        self.n_pilot = n_pilot

    def draw_state(self, rng, batch):
        return rayleigh_sample(rng, batch)

    def apply(self, x, state, noise_std, rng):
        return fading_apply(x, state, noise_std, rng)

    def pilots(self, state, noise_std, rng):
        return pilot_receive(state, noise_std, self.n_pilot, rng)


def make_channel(kind: str, n_pilot: int = 1) -> Channel:
    """The channel object of a kind; n_pilot counts only where there are pilots."""
    if kind == "awgn":
        return AwgnChannel()
    if kind == "rayleigh":
        return RayleighChannel(n_pilot)
    raise ValueError(f"unknown channel kind {kind!r}")


def backward(*_args, **_kwargs):
    """Deliberately unimplemented: the physical channel is not differentiable.

    Transmitter gradients must flow through the generator surrogate; asking
    the real channel for a gradient is a programming error.
    """
    raise RuntimeError(
        "the real channel has no backward path; route transmitter gradients "
        "through the GAN surrogate"
    )
