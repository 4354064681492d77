"""Classical reference systems: Hamming(7,4) with MLD, and 16-QAM.

These give the learned system something honest to be measured against:
coded BPSK with maximum-likelihood decoding on AWGN, and uncoded 16-QAM
with least-squares channel estimation on Rayleigh fading.
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


def hamming74_mld_decode(y: np.ndarray) -> np.ndarray:
    """Soft-decision MLD of noisy BPSK codeword observations.

    y is (B, 7) real (the in-phase part of the received symbols). Under
    equal-power BPSK, minimizing Euclidean distance to a codeword equals
    maximizing correlation, so this scores y against all 16 candidates.
    Ties resolve to the lowest message index. Returns (B,) indices.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 7:
        raise nn.ShapeError(f"observations must be (batch, 7), got {y.shape}")
    scores = y @ hamming74_bpsk_codebook().T
    return np.argmax(scores, axis=1)


# 16-QAM with per-axis Gray labeling. Bits (b0 b1 b2 b3), MSB first:
# (b0, b1) pick the I level and (b2, b3) the Q level via
#   00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3,
# then the grid is scaled by 1/sqrt(10) for unit average power.
_GRAY_TO_LEVEL = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}
QAM16_SCALE = 1.0 / np.sqrt(10.0)
QAM16_DEMOD_CHUNK = 4096


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


def qam16_modulate(messages: np.ndarray) -> np.ndarray:
    """(B,) 4-bit message indices -> (B,) complex symbols."""
    messages = np.asarray(messages, dtype=np.int64)
    if messages.ndim != 1:
        raise nn.ShapeError(f"messages must be 1-D, got shape {messages.shape}")
    if messages.size and (messages.min() < 0 or messages.max() > 15):
        raise ValueError("message index out of range [0, 16)")
    return qam16_constellation()[messages]


def qam16_demod_coherent(y: np.ndarray, h_est: np.ndarray) -> np.ndarray:
    """Equalize by h_est, then nearest constellation point (lowest index
    on ties). A zero channel estimate cannot be equalized and raises."""
    y = np.asarray(y, dtype=np.complex128)
    h_est = np.broadcast_to(np.asarray(h_est, dtype=np.complex128), y.shape)
    if np.any(h_est == 0):
        raise FloatingPointError("channel estimate is exactly zero; cannot equalize")
    eq = y / h_est
    decided = np.empty(eq.shape, dtype=np.intp)
    # the distances to the 16 points, QAM16_DEMOD_CHUNK symbols at a time,
    # so the (symbols, 16) scratch stays small whatever the batch
    flat_eq, flat_decided = eq.reshape(-1), decided.reshape(-1)
    for start in range(0, flat_eq.size, QAM16_DEMOD_CHUNK):
        part = slice(start, start + QAM16_DEMOD_CHUNK)
        dist = np.abs(flat_eq[part, None] - qam16_constellation())
        np.argmin(dist, axis=1, out=flat_decided[part])
    return decided[()]  # a scalar for a scalar y, as argmin gives


def ls_estimate(y_pilot: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from all-ones pilots.

    With pilot symbol 1, the LS solution is the mean of the received
    pilot uses. y_pilot is (n_pilot,) complex or (B, n_pilot) complex;
    returns a scalar or (B,) complex estimate.
    """
    y_pilot = np.asarray(y_pilot, dtype=np.complex128)
    if y_pilot.ndim not in (1, 2):
        raise nn.ShapeError(f"pilots must be 1-D or 2-D, got shape {y_pilot.shape}")
    return y_pilot.mean(axis=-1)
