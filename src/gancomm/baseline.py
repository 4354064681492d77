"""Classical reference systems: Hamming(7,4) with MLD, and 16-QAM.

These give the learned system something honest to be measured against:
coded BPSK with maximum-likelihood decoding on AWGN, and uncoded 16-QAM
with least-squares channel estimation on Rayleigh fading. Both decide by
``nearest_codeword`` on their codebook, 16-QAM after equalization.
"""

from __future__ import annotations

import functools

import numpy as np

from . import channel, nn

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


def message_to_bits(messages: np.ndarray, k: int) -> np.ndarray:
    """(B,) indices -> (B, k) bits, most significant bit first."""
    messages = np.asarray(messages, dtype=np.int64)
    if messages.ndim != 1:
        raise nn.ShapeError(f"messages must be 1-D, got shape {messages.shape}")
    if messages.size and (messages.min() < 0 or messages.max() >= 2**k):
        raise ValueError(f"message index out of range [0, {2**k})")
    shifts = np.arange(k - 1, -1, -1)
    return (messages[:, None] >> shifts) & 1


def hamming74_encode(bits: np.ndarray) -> np.ndarray:
    """(B, 4) data bits -> (B, 7) codewords, systematic bits first."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 2 or bits.shape[1] != 4:
        raise nn.ShapeError(f"data bits must be (batch, 4), got {bits.shape}")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("data bits must be 0 or 1")
    parity = (bits @ _PARITY) % 2
    return np.concatenate([bits, parity], axis=1)


@functools.lru_cache(maxsize=1)
def hamming74_codebook() -> np.ndarray:
    """All 16 codewords, row i encoding message index i. Read-only."""
    messages = np.arange(16)
    cb = hamming74_encode(message_to_bits(messages, 4))
    cb.setflags(write=False)
    return cb


def bpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Bits -> unit-power real symbols, 0 -> +1 and 1 -> -1."""
    bits = np.asarray(bits)
    return 1.0 - 2.0 * bits.astype(np.float64)


@functools.lru_cache(maxsize=1)
def hamming74_bpsk_codebook() -> np.ndarray:
    """All 16 codewords as BPSK symbols, (16, 7), row i for message i.
    Read-only."""
    cb = bpsk_modulate(hamming74_codebook())
    cb.setflags(write=False)
    return cb


def nearest_codeword(y: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """The index of each row of y's nearest codebook row in Euclidean
    distance, lowest index on ties: maximum-likelihood decoding on AWGN.

    y is (B, width) real, codebook (M, width). |y - c|^2 = |y|^2 - 2 (y.c -
    |c|^2 / 2), so this takes the argmax of y.c - |c|^2 / 2 over the rows c.
    Returns (B,) indices.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != codebook.shape[1]:
        raise nn.ShapeError(f"observations {y.shape} must be (batch, {codebook.shape[1]})")
    scores = y @ codebook.T
    scores -= np.square(codebook).sum(axis=1) / 2.0
    return np.argmax(scores, axis=1)


# 16-QAM with per-axis Gray labeling. Bits (b0 b1 b2 b3), MSB first:
# (b0, b1) pick the I level and (b2, b3) the Q level via
#   00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3,
# then the grid is scaled by 1/sqrt(10) for unit average power.
_GRAY_TO_LEVEL = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}
QAM16_SCALE = 1.0 / np.sqrt(10.0)


@functools.lru_cache(maxsize=1)
def qam16_constellation() -> np.ndarray:
    """(16,) complex points, index i for message/bit-pattern i. Read-only."""
    points = np.empty(16, dtype=np.complex128)
    for idx in range(16):
        b = [(idx >> s) & 1 for s in (3, 2, 1, 0)]
        i_level = _GRAY_TO_LEVEL[(b[0], b[1])]
        q_level = _GRAY_TO_LEVEL[(b[2], b[3])]
        points[idx] = QAM16_SCALE * complex(i_level, q_level)
    points.setflags(write=False)
    return points


@functools.lru_cache(maxsize=1)
def qam16_codebook() -> np.ndarray:
    """The 16 points as one-use blocks, (16, 2) interleaved I/Q reals, row i
    for message i. Read-only."""
    cb = channel.complex_to_iq(qam16_constellation()[:, None])
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
