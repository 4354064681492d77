"""Learned transmitter and receiver.

The transmitter maps a message index to n complex channel uses
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

    def __init__(self, net: nn.DenseNet):
        if net.output_dim % 2:
            raise ConfigError(
                f"transmitter net emits {net.output_dim} values; a block of n "
                f"complex uses takes an even 2n"
            )
        self.net = net

    @property
    def n(self) -> int:
        return self.net.output_dim // 2

    @property
    def m_count(self) -> int:
        return self.net.input_dim

    def encode(
        self, messages: np.ndarray, tape: nn.Tape | None = None
    ) -> tuple[np.ndarray, TxTape]:
        """(B,) message indices -> power-normalized blocks, with tape for
        backward. The net reads each message as a one-hot row.

        Every output row x satisfies sum(x**2) == n exactly up to float64
        rounding, i.e. unit average power per complex channel use: the dense
        output is lifted to float64 before it is normalized, whatever the
        net's dtype. The dense net's pass is written into ``tape``, a new
        one if none is given (see ``nn.forward``).
        """
        out, dense_tape = nn.forward(self.net, to_onehot(messages, self.m_count), tape)
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
        return self.encode(messages)[0]

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

    def __init__(self, net: nn.DenseNet):
        self.net = net

    @property
    def m_count(self) -> int:
        return self.net.output_dim

    def forward_logits(
        self,
        y: np.ndarray,
        y_pilot: np.ndarray | None = None,
        tape: nn.Tape | None = None,
    ) -> tuple[np.ndarray, nn.Tape]:
        """The net's logits for received blocks, with the pilots appended
        when given; ``nn.forward`` checks the input width."""
        if y_pilot is not None:
            y = np.concatenate([y, y_pilot], axis=1, dtype=self.net.dtype)
        return nn.forward(self.net, y, tape)

    def decode(
        self,
        y: np.ndarray,
        y_pilot: np.ndarray | None = None,
        tape: nn.Tape | None = None,
    ) -> np.ndarray:
        """Received blocks -> (B,) decided messages: the largest logit, i.e.
        the most likely message under the softmax; ties go to the lowest
        index. The net's pass runs on ``tape`` (None makes a new one)."""
        logits, _ = self.forward_logits(y, y_pilot, tape)
        return np.argmax(logits, axis=1)
