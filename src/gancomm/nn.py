"""Dense networks with hand-written forward/backward passes and Adam.

Everything runs in float64 and batch-major layout: activations are
(batch, dim) arrays. ``backward`` returns exact analytic gradients of a
scalar loss -- whose gradient with respect to the network output the caller
supplies -- for every parameter and for the network input. The input
gradient is what lets a loss computed behind one network keep propagating
into the network that feeds it.

Losses average over the batch, so the gradients they return already carry
the 1/batch factor and learning rates stay batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")


class ShapeError(ValueError):
    """An array does not match the layer or tape it is used with."""


class NonFiniteError(FloatingPointError):
    """A loss, gradient, or parameter came out NaN or Inf."""


def _activate_in_place(z: np.ndarray, name: str) -> None:
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)


def _activation_grad(a: np.ndarray, name: str) -> np.ndarray | None:
    # From the layer output a: relu's mask a > 0 equals z > 0, tanh' = 1 - a^2.
    # None means identity (saves a multiply for linear layers).
    if name == "relu":
        return a > 0.0
    if name == "tanh":
        return 1.0 - a * a
    return None


@dataclass
class Layer:
    """One dense layer: out = activation(in @ w + b)."""

    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ShapeError(
                f"layer weights {self.w.shape} and bias {self.b.shape} do not agree"
            )


class DenseNet:
    """A fixed-topology stack of dense layers."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].w.shape[1] != layers[i + 1].w.shape[0]:
                raise ShapeError(
                    f"layer {i} outputs {layers[i].w.shape[1]} features but "
                    f"layer {i + 1} expects {layers[i + 1].w.shape[0]}"
                )
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    @property
    def n_params(self) -> int:
        return sum(layer.w.size + layer.b.size for layer in self.layers)

    @classmethod
    def create(
        cls,
        dims: list[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
    ) -> "DenseNet":
        """Build a net with Glorot-uniform weights and zero biases.

        ``dims`` lists layer widths input-first, e.g. [16, 32, 32, 14].
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = np.zeros(fan_out)
            act = output_activation if i == len(dims) - 2 else hidden_activation
            layers.append(Layer(w=w, b=b, activation=act))
        return cls(layers)

    def copy(self) -> "DenseNet":
        return DenseNet(
            [Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers]
        )

    def flat_params(self) -> np.ndarray:
        """All parameters concatenated (row-major weights, then bias) per layer."""
        return np.concatenate(
            [np.concatenate([l.w.ravel(), l.b]) for l in self.layers]
        )

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for layer in self.layers:
            layer.w[...] = flat[pos : pos + layer.w.size].reshape(layer.w.shape)
            pos += layer.w.size
            layer.b[...] = flat[pos : pos + layer.b.size]
            pos += layer.b.size


@dataclass
class Tape:
    """Cached activations from one forward pass, consumed by ``backward``."""

    # the net input, then each layer's output: acts[i] feeds layer i and
    # acts[i + 1] is what it emitted, (batch, width)
    acts: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.acts[0].shape[0]


@dataclass
class Gradients:
    """Per-layer gradients mirroring a DenseNet's parameter shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add(self, other: "Gradients") -> "Gradients":
        return Gradients(
            weights=[a + b for a, b in zip(self.weights, other.weights)],
            biases=[a + b for a, b in zip(self.biases, other.biases)],
        )

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )


def forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run a batch through the net; the tape holds everything backward needs.

    The returned output is also the tape's last activation, so it must not
    be modified in place before ``backward`` runs on the tape.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"expected a (batch, {net.input_dim}) input, got {x.shape}")
    if x.shape[1] != net.input_dim:
        raise ShapeError(
            f"layer 0 expects input dim {net.input_dim}, got {x.shape[1]}"
        )
    # one new array per layer: the activation overwrites its pre-activation
    acts = [x]
    for layer in net.layers:
        z = acts[-1] @ layer.w
        z += layer.b
        _activate_in_place(z, layer.activation)
        acts.append(z)
    return acts[-1], Tape(acts=acts)


def backward(
    net: DenseNet, tape: Tape, upstream_grad: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Backpropagate ``upstream_grad`` (dLoss/dOutput) through the net.

    Returns the parameter gradients and the gradient with respect to the
    network input. Parameters are left untouched.
    """
    g = np.asarray(upstream_grad, dtype=np.float64)
    n_layers = len(net.layers)
    if len(tape.acts) != n_layers + 1:
        raise ShapeError("tape does not belong to this network")
    if g.shape != tape.acts[-1].shape:
        raise ShapeError(
            f"upstream gradient {g.shape} does not match the forward batch "
            f"{tape.acts[-1].shape}"
        )
    weight_grads: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    for i in range(n_layers - 1, -1, -1):
        layer = net.layers[i]
        act_grad = _activation_grad(tape.acts[i + 1], layer.activation)
        dz = g if act_grad is None else g * act_grad
        weight_grads[i] = tape.acts[i].T @ dz
        bias_grads[i] = dz.sum(axis=0)
        g = dz @ layer.w.T
    return Gradients(weights=weight_grads, biases=bias_grads), g


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability; rows sum to 1."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, onehot: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between softmax(logits) and one-hot targets.

    The softmax is fused into the loss, so the returned gradient is with
    respect to the logits: (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if logits.shape != onehot.shape or logits.ndim != 2:
        raise ShapeError(f"logits {logits.shape} vs targets {onehot.shape}")
    is_onehot = np.all((onehot == 0.0) | (onehot == 1.0)) and np.all(
        onehot.sum(axis=1) == 1.0
    )
    if not is_onehot:
        raise ValueError("targets must be exactly one-hot rows")
    z = logits - logits.max(axis=1, keepdims=True)
    log_normalizer = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_normalizer - z[onehot == 1.0]))
    grad = (softmax(logits) - onehot) / logits.shape[0]
    return loss, grad


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_bce(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on logits, stable log-sum-exp form.

    loss_i = max(z,0) - z*t + log(1 + exp(-|z|)); grad = (sigmoid(z) - t) / N.
    Targets may be soft (label smoothing), in [0, 1].
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise ShapeError(f"logits {z.shape} vs targets {t.shape}")
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("targets must lie in [0, 1]")
    per_sample = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    loss = float(per_sample.mean())
    grad = (sigmoid(z) - t) / z.size
    return loss, grad


@dataclass
class AdamState:
    """Adam moment buffers paired with one DenseNet."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate: float, **kwargs) -> "AdamState":
        state = cls(learning_rate=learning_rate, **kwargs)
        state.m_w = [np.zeros_like(l.w) for l in net.layers]
        state.v_w = [np.zeros_like(l.w) for l in net.layers]
        state.m_b = [np.zeros_like(l.b) for l in net.layers]
        state.v_b = [np.zeros_like(l.b) for l in net.layers]
        return state

    def reset_moments(self) -> None:
        """Zero the moment buffers (divergence recovery); keeps hyperparameters."""
        for buf in (*self.m_w, *self.v_w, *self.m_b, *self.v_b):
            buf[...] = 0.0
        self.step_count = 0


def adam_step(net: DenseNet, grads: Gradients, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, on net and state."""
    if len(grads.weights) != len(net.layers):
        raise ShapeError("gradients do not mirror the network's layers")
    for i, layer in enumerate(net.layers):
        if grads.weights[i].shape != layer.w.shape or grads.biases[i].shape != layer.b.shape:
            raise ShapeError(f"layer {i}: gradient shape mismatch")
        if not (np.isfinite(grads.weights[i]).all() and np.isfinite(grads.biases[i]).all()):
            raise NonFiniteError(f"layer {i}: non-finite gradient")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for i, layer in enumerate(net.layers):
        for param, grad, m, v in (
            (layer.w, grads.weights[i], state.m_w[i], state.v_w[i]),
            (layer.b, grads.biases[i], state.m_b[i], state.v_b[i]),
        ):
            m *= state.beta1
            m += (1.0 - state.beta1) * grad
            v *= state.beta2
            v += (1.0 - state.beta2) * grad * grad
            param -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
        if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
            raise NonFiniteError(f"layer {i}: parameters became non-finite")


class EmaTracker:
    """Exponential moving average of a net's parameters.

    Adversarial updates orbit their equilibrium rather than settling on
    it; the time-averaged parameters sit much closer to the fixed point
    than any single snapshot, so the averaged net is the one worth
    keeping.
    """

    def __init__(self, net: DenseNet, decay: float):
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must lie in [0, 1)")
        self.decay = decay
        self._avg = net.flat_params()

    def update(self, net: DenseNet) -> None:
        self._avg += (1.0 - self.decay) * (net.flat_params() - self._avg)

    def averaged_net(self, net: DenseNet) -> DenseNet:
        """Copy of net carrying the averaged parameters."""
        out = net.copy()
        out.set_flat_params(self._avg)
        return out


def param_checksum(net: DenseNet) -> bytes:
    """Stable digest of all parameters; equal iff parameters are bit-identical."""
    import hashlib

    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.w).tobytes())
        digest.update(np.ascontiguousarray(layer.b).tobytes())
    return digest.digest()
