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

Each simulator, and each channel object method that observes, takes an
optional ``out`` array for what it receives. It allocates one when none is
given and then takes its one path: it writes the noiseless block into
``out`` (fading multiplies h onto zero-copy complex views of the
interleaved blocks) and adds the noise, drawn through a scratch of at most
``NOISE_CHUNK`` values and scaled by its std. So no draw allocates a
block-sized temporary, and a caller that hands the same arrays back, as
the BLER sweep does, draws the same values as one that does not, from the
same stream positions.
"""

from __future__ import annotations

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


# Noise values per draw: the noise reaches a block through a scratch of at
# most this many float64 values, whatever the block's size.
NOISE_CHUNK = 1 << 15


def _output(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """out, checked against the shape the simulator writes, or a new array."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


def _receive(noiseless: np.ndarray, noise_std: float, rng: np.random.Generator,
             out: np.ndarray) -> np.ndarray:
    """Write noiseless + w into out (noiseless may be out itself): w is
    i.i.d. Gaussian(0, noise_std^2) per real dimension, drawn in row-major
    order NOISE_CHUNK values at a time and scaled in a scratch of that
    size. A noise_std of 0 draws nothing; a negative or NaN one raises."""
    if not noise_std >= 0:
        raise ValueError(f"noise std must be >= 0, got {noise_std}")
    if noise_std > 0:
        src, dst = noiseless.reshape(-1), out.reshape(-1)
        scratch = np.empty(min(dst.size, NOISE_CHUNK))
        for start in range(0, dst.size, NOISE_CHUNK):
            stop = min(start + NOISE_CHUNK, dst.size)
            noise = rng.standard_normal(out=scratch[: stop - start])
            noise *= noise_std
            np.add(src[start:stop], noise, out=dst[start:stop])
    else:
        np.copyto(out, noiseless)
    return out


def awgn_apply(x: np.ndarray, std: float, rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """y = x + w with w i.i.d. Gaussian(0, std^2) per real dimension,
    written into ``out`` if given."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return _receive(x, std, rng, _output(out, x.shape))


def rayleigh_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size coefficients h ~ CN(0, 1): independent Gaussian re/im,
    E[|h|^2] = 1."""
    re = rng.normal(0.0, np.sqrt(0.5), size=size)
    im = rng.normal(0.0, np.sqrt(0.5), size=size)
    return re + 1j * im


def fading_apply(
    x: np.ndarray, h: np.ndarray, noise_std: float,
    rng: np.random.Generator, out: np.ndarray | None = None,
) -> np.ndarray:
    """y_i = h * x_i + w_i; one h multiplies every complex use of a block.

    ``h`` holds one coefficient per block of the (batch, 2n) ``x``, shape
    (batch,); ``noise_std`` is per real dimension. y is written into
    ``out`` if given, which must not overlap x: numpy's complex multiply
    rounds differently in place for some shapes.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.complex128)
    if x.ndim != 2 or h.shape != x.shape[:1]:
        raise ValueError(f"h {h.shape} must hold one coefficient per block of {x.shape}")
    out = _output(out, x.shape)
    if np.may_share_memory(x, out):
        raise ValueError("out must not overlap x")
    # the interleaved (re, im) pairs of a C-contiguous float64 block are a
    # complex128 array in memory, so h multiplies views, not copies
    np.multiply(x.view(np.complex128), h[:, None], out=out.view(np.complex128))
    return _receive(out, noise_std, rng, out)


def pilot_receive(
    h: np.ndarray, noise_std: float, n_pilot: int,
    rng: np.random.Generator, out: np.ndarray | None = None,
) -> np.ndarray:
    """Receive the known all-ones pilot: y_p = h * 1 + w, per pilot use.

    ``h`` holds one coefficient per block, shape (batch,); the pilots come
    back (batch, 2*n_pilot), written into ``out`` if given.
    """
    if n_pilot < 1:
        raise ValueError("n_pilot must be >= 1")
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ValueError(f"h must hold one coefficient per block, got shape {h.shape}")
    out = _output(out, (h.shape[0], 2 * n_pilot))
    # h * 1 is h exactly, so every pilot use receives h before the noise
    out.view(np.complex128)[...] = h[:, None]
    return _receive(out, noise_std, rng, out)


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
              rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        """Received blocks for transmitted blocks x under state, written
        into ``out`` if given."""
        raise NotImplementedError

    def pilots(self, state, noise_std: float, rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray | None:
        """Received pilots under state, written into ``out`` if given, or
        None without pilots (``out`` is then left alone)."""
        if self.n_pilot == 0:
            return None
        return pilot_receive(state, noise_std, self.n_pilot, rng, out)

    def observe(self, x: np.ndarray, state, noise_std: float,
                rng: np.random.Generator,
                out: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
                ) -> tuple[np.ndarray, np.ndarray | None]:
        """What the receiver sees: the received blocks, then the received
        pilots (or None), written into the arrays of ``out`` that are given.
        Block noise is drawn before pilot noise."""
        y_out, pilot_out = out
        return (self.apply(x, state, noise_std, rng, y_out),
                self.pilots(state, noise_std, rng, pilot_out))


class AwgnChannel(Channel):
    """Additive white Gaussian noise: no state and no pilots."""

    n_pilot = 0

    def draw_state(self, rng, batch):
        return None

    def apply(self, x, state, noise_std, rng, out=None):
        return awgn_apply(x, noise_std, rng, out)


class RayleighChannel(Channel):
    """Rayleigh block fading: one h ~ CN(0, 1) per block, shared by the
    block and its n_pilot all-ones pilot uses (none when n_pilot is 0).
    The state is h, one coefficient per block."""

    def __init__(self, n_pilot: int = 1):
        self.n_pilot = n_pilot

    def draw_state(self, rng, batch):
        return rayleigh_sample(rng, batch)

    def apply(self, x, state, noise_std, rng, out=None):
        return fading_apply(x, state, noise_std, rng, out)


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
