"""Learned transmitter and receiver.

The transmitter maps a one-hot message to n complex channel uses
(interleaved as 2n reals) and rescales every block to exactly n total
power, i.e. unit average power per complex use. The receiver maps a
received block (plus received pilots on fading channels) to logits over
the M messages and decides on the largest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ConfigError

# Pre-normalization blocks with mean power below this are treated as a
# collapsed transmitter rather than divided by ~0.
POWER_EPSILON = 1e-12


def to_onehot(messages: np.ndarray, m_count: int) -> np.ndarray:
    """(B,) integer message indices -> (B, M) one-hot float64 rows."""
    messages = np.asarray(messages)
    if messages.ndim != 1:
        raise nn.ShapeError(f"messages must be 1-D, got shape {messages.shape}")
    if not np.issubdtype(messages.dtype, np.integer):
        raise ValueError(f"messages must be integers, got dtype {messages.dtype}")
    if messages.size and (messages.min() < 0 or messages.max() >= m_count):
        raise ValueError(f"message index out of range [0, {m_count})")
    out = np.zeros((messages.size, m_count), dtype=np.float64)
    out[np.arange(messages.size), messages] = 1.0
    return out


@dataclass
class TxTape:
    """Intermediates needed to backpropagate through encode()."""

    dense: nn.Tape
    prenorm: np.ndarray  # (B, 2n) dense output before power scaling, float64
    norm_sq: np.ndarray  # (B,) squared norms of prenorm rows
    scale: np.ndarray  # (B,) sqrt(n) / ||prenorm row||


class Transmitter:
    """Dense net plus exact per-block power normalization."""

    def __init__(self, net: nn.DenseNet, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if net.output_dim != 2 * n:
            raise ConfigError(
                f"transmitter net emits {net.output_dim} values, expected 2n = {2 * n}"
            )
        self.net = net
        self.n = n

    @property
    def m_count(self) -> int:
        return self.net.input_dim

    def encode(
        self, onehot: np.ndarray, tape: nn.Tape | None = None
    ) -> tuple[np.ndarray, TxTape]:
        """One-hot rows -> power-normalized blocks, with tape for backward.

        Every output row x satisfies sum(x**2) == n exactly up to float64
        rounding, i.e. unit average power per complex channel use: the dense
        output is lifted to float64 before it is normalized, whatever the
        net's dtype. The dense net's pass is written into ``tape``, a new
        one if none is given (see ``nn.forward``).
        """
        out, dense_tape = nn.forward(self.net, onehot, tape)
        prenorm = out.astype(np.float64)
        norm_sq = np.einsum("ij,ij->i", prenorm, prenorm)
        if np.any(norm_sq / self.n < POWER_EPSILON):
            raise FloatingPointError(
                "transmitter output collapsed to (near) zero power; "
                "cannot normalize the block"
            )
        scale = np.sqrt(self.n / norm_sq)
        x = prenorm * scale[:, None]
        return x, TxTape(dense=dense_tape, prenorm=prenorm, norm_sq=norm_sq, scale=scale)

    def encode_messages(self, messages: np.ndarray) -> np.ndarray:
        """Convenience for evaluation: message indices -> blocks, no tape."""
        x, _ = self.encode(to_onehot(messages, self.m_count))
        return x

    def backward(self, tape: TxTape, upstream_grad: np.ndarray) -> nn.Gradients:
        """Gradients of a scalar loss w.r.t. the parameters (the one-hot
        input has no use for one, so none is computed).

        The normalization x = sqrt(n) * u / ||u|| has the row-wise Jacobian
        action  du = s * (dx - u (u . dx) / ||u||^2)  with s = sqrt(n)/||u||,
        taken in float64 and cast to the net's dtype by ``nn.backward``.
        """
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != tape.prenorm.shape:
            raise nn.ShapeError(
                f"upstream grad shape {g.shape} != block shape {tape.prenorm.shape}"
            )
        dot = np.einsum("ij,ij->i", tape.prenorm, g)
        g_prenorm = tape.scale[:, None] * (
            g - tape.prenorm * (dot / tape.norm_sq)[:, None]
        )
        grads, _ = nn.backward(self.net, tape.dense, g_prenorm, inputs=False)
        return grads


class Receiver:
    """Dense net mapping received blocks (and pilots, if any) to messages."""

    def __init__(self, net: nn.DenseNet, m_count: int, n: int, n_pilot: int = 0):
        if n < 1 or n_pilot < 0:
            raise ValueError("n must be >= 1 and n_pilot >= 0")
        expected_in = 2 * n + 2 * n_pilot
        if net.input_dim != expected_in:
            raise ConfigError(
                f"receiver net takes {net.input_dim} inputs, expected {expected_in} "
                f"(2n + 2*n_pilot)"
            )
        if net.output_dim != m_count:
            raise ConfigError(
                f"receiver net emits {net.output_dim} logits, expected M = {m_count}"
            )
        self.net = net
        self.m_count = m_count
        self.n = n
        self.n_pilot = n_pilot

    @property
    def expects_pilot(self) -> bool:
        return self.n_pilot > 0

    def _stack_input(self, y: np.ndarray, y_pilot: np.ndarray | None) -> np.ndarray:
        """The net input in the net's dtype: y, with the pilots appended."""
        y = np.asarray(y)
        if y.ndim != 2 or y.shape[1] != 2 * self.n:
            raise nn.ShapeError(
                f"received block must be (batch, {2 * self.n}), got {y.shape}"
            )
        if self.expects_pilot:
            if y_pilot is None:
                raise ConfigError(
                    "receiver was built with pilots but none were supplied"
                )
            y_pilot = np.asarray(y_pilot)
            if y_pilot.shape != (y.shape[0], 2 * self.n_pilot):
                raise nn.ShapeError(
                    f"pilot block must be ({y.shape[0]}, {2 * self.n_pilot}), "
                    f"got {y_pilot.shape}"
                )
            return np.concatenate([y, y_pilot], axis=1, dtype=self.net.dtype)
        if y_pilot is not None:
            raise ConfigError("receiver was built without pilots but got some")
        return np.asarray(y, dtype=self.net.dtype)

    def forward_logits(
        self,
        y: np.ndarray,
        y_pilot: np.ndarray | None = None,
        tape: nn.Tape | None = None,
    ) -> tuple[np.ndarray, nn.Tape]:
        return nn.forward(self.net, self._stack_input(y, y_pilot), tape)

    def decode(
        self,
        y: np.ndarray,
        y_pilot: np.ndarray | None = None,
        tape: nn.Tape | None = None,
    ) -> np.ndarray:
        """Received blocks -> (B,) decided messages: the largest logit, i.e.
        the most likely message under the softmax; ties go to the lowest index.
        The net's pass is written into ``tape``, a new one if none is given."""
        logits, _ = self.forward_logits(y, y_pilot, tape)
        return np.argmax(logits, axis=1)
