"""Classical reference systems: Hamming(7,4) with MLD, and 16-QAM.

These give the learned system something honest to be measured against:
coded BPSK with maximum-likelihood decoding on AWGN, and uncoded 16-QAM
with least-squares channel estimation on Rayleigh fading. Both decide by
``nearest_codeword`` on their codebook, 16-QAM after equalization.
"""

from __future__ import annotations

import functools

import numpy as np

from . import nn

# Systematic Hamming(7,4): codeword = [u1 u2 u3 u4 p1 p2 p3] with
#   p1 = u1 + u3 + u4,  p2 = u1 + u2 + u3,  p3 = u2 + u3 + u4  (mod 2).
_PARITY = np.array(
    [
        [1, 1, 0],
        [0, 1, 1],
        [1, 1, 1],
        [1, 0, 1],
    ],
    dtype=np.int64,
)


@functools.lru_cache(maxsize=1)
def hamming74_bpsk_codebook() -> np.ndarray:
    """All 16 codewords as BPSK symbols (bit 0 -> +1, bit 1 -> -1), (16, 7),
    row i for message i, whose bits are taken most significant first.
    Read-only."""
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    word = np.concatenate([bits, bits @ _PARITY % 2], axis=1)
    cb = 1.0 - 2.0 * word
    cb.setflags(write=False)
    return cb


def half_energy(codebook: np.ndarray) -> np.ndarray:
    """|c|^2 / 2 of each codebook row, the term ``nearest_codeword``
    subtracts: (M,)."""
    return np.square(codebook).sum(axis=1) / 2.0


def nearest_codeword(
    y: np.ndarray, codebook: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """The index of each row of y's nearest codebook row in Euclidean
    distance, lowest index on ties: maximum-likelihood decoding on AWGN.

    y is (B, width) real, codebook (M, width). |y - c|^2 = |y|^2 - 2 (y.c -
    |c|^2 / 2), so this takes the argmax of y.c - |c|^2 / 2 over the rows c.
    ``energy`` is the codebook's ``half_energy``, which a caller deciding
    many blocks against one codebook computes once. Returns (B,) indices.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != codebook.shape[1]:
        raise nn.ShapeError(f"observations {y.shape} must be (batch, {codebook.shape[1]})")
    scores = y @ codebook.T
    scores -= energy
    return np.argmax(scores, axis=1)


# 16-QAM with per-axis Gray labeling. Bits (b0 b1 b2 b3), MSB first:
# (b0, b1) pick the I level and (b2, b3) the Q level via
#   00 -> -3, 01 -> -1, 10 -> +3, 11 -> +1,
# then the grid is scaled by 1/sqrt(10) for unit average power.
QAM16_SCALE = 1.0 / np.sqrt(10.0)


@functools.lru_cache(maxsize=1)
def qam16_codebook() -> np.ndarray:
    """The 16 points as one-use blocks, (16, 2) interleaved I/Q reals, row i
    for message i. Read-only."""
    m = np.arange(16)
    levels = QAM16_SCALE * np.array([-3.0, -1.0, 3.0, 1.0])
    cb = np.stack([levels[m >> 2], levels[m & 3]], axis=1)
    cb.setflags(write=False)
    return cb


def ls_estimate(y_pilot: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from all-ones pilots.

    With pilot symbol 1, the LS solution is the mean of the received
    pilot uses. y_pilot is (B, n_pilot) complex; returns the (B,) estimates.
    """
    y_pilot = np.asarray(y_pilot, dtype=np.complex128)
    if y_pilot.ndim != 2:
        raise nn.ShapeError(f"pilots must be (batch, n_pilot), got {y_pilot.shape}")
    return y_pilot.mean(axis=1)
