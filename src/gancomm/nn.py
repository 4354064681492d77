"""Dense networks with hand-written forward/backward passes and Adam.

Everything runs in float64 and batch-major layout: activations are
(batch, dim) arrays. ``backward`` returns exact analytic gradients of a
scalar loss -- whose gradient with respect to the network output the caller
supplies -- for every parameter and for the network input. The input
gradient is what lets a loss computed behind one network keep propagating
into the network that feeds it.

Losses average over the batch, so the gradients they return already carry
the 1/batch factor and learning rates stay batch-size independent.

A training loop can hand a tape back to ``forward`` to have the next pass
written into the same arrays; ``backward`` on such a tape then overwrites
the activations with gradients and keeps its results in buffers the tape
owns, so a steady-state step allocates almost nothing.
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


def _preact_grad(
    g: np.ndarray, a: np.ndarray, name: str, out: np.ndarray | None
) -> np.ndarray:
    # dLoss/dz from dLoss/da and the layer output a: relu's mask a > 0
    # equals z > 0, tanh' = 1 - a^2. Written into out when given, else into
    # a new array (or, for a linear layer, g itself).
    if name == "relu":
        return np.multiply(g, a > 0.0, out=out)
    if name == "tanh":
        d = np.multiply(a, a, out=out)
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=d)
    if out is None:
        return g
    out[...] = g
    return out


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
        return np.concatenate([p.ravel() for p in self._param_arrays()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {flat.shape}")
        for param, view in zip(self._param_arrays(), _unflatten(flat, self)):
            param[...] = view

    def _param_arrays(self) -> list[np.ndarray]:
        """Weights then bias of each layer, in ``flat_params`` order."""
        return [p for layer in self.layers for p in (layer.w, layer.b)]


def _unflatten(flat: np.ndarray, net: DenseNet) -> list[np.ndarray]:
    """Views of a flat parameter vector shaped like the net's arrays."""
    views, pos = [], 0
    for param in net._param_arrays():
        views.append(flat[pos : pos + param.size].reshape(param.shape))
        pos += param.size
    return views


@dataclass
class Tape:
    """Cached activations from one forward pass, consumed by ``backward``.

    A tape passed to ``forward`` is reused: the pass is written into its
    arrays (allocated on first use, or when the batch size changes), and
    ``backward`` on it overwrites each activation with its pre-activation
    gradient and returns arrays the tape owns, valid until the tape's next
    forward. A tape made by ``forward`` itself is fresh and ``backward``
    returns new arrays, leaving the tape as it was.
    """

    # the net input, then each layer's output: acts[i] feeds layer i and
    # acts[i + 1] is what it emitted, (batch, width)
    acts: list[np.ndarray] = field(default_factory=list)
    reused: bool = False
    # owned by a reused tape: parameter gradients, and one input-gradient
    # array per layer input width
    grads: Gradients | None = None
    input_grads: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return self.acts[0].shape[0]

    def _input_grad(self, width: int) -> np.ndarray | None:
        if not self.reused:
            return None
        buf = self.input_grads.get(width)
        if buf is None:
            buf = self.input_grads[width] = np.empty((self.batch_size, width))
        return buf


@dataclass
class Gradients:
    """Per-layer gradients mirroring a DenseNet's parameter shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def accumulate(self, other: "Gradients") -> "Gradients":
        """Add other's gradients into these, in place; returns self."""
        for mine, theirs in zip(self.weights + self.biases, other.weights + other.biases):
            mine += theirs
        return self

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )


def forward(
    net: DenseNet, x: np.ndarray, tape: Tape | None = None
) -> tuple[np.ndarray, Tape]:
    """Run a batch through the net; the tape holds everything backward needs.

    The returned output is also the tape's last activation, so it must not
    be modified in place before ``backward`` runs on the tape. Given a tape,
    the pass is written into that tape's arrays and the tape is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"expected a (batch, {net.input_dim}) input, got {x.shape}")
    if x.shape[1] != net.input_dim:
        raise ShapeError(
            f"layer 0 expects input dim {net.input_dim}, got {x.shape[1]}"
        )
    if tape is None:
        tape = Tape(acts=[x] + [None] * len(net.layers))
    else:
        shapes = [(x.shape[0], layer.w.shape[1]) for layer in net.layers]
        if [a.shape for a in tape.acts[1:]] != shapes:
            # first use, or another batch size: start the tape afresh
            tape.acts = [x] + [np.empty(shape) for shape in shapes]
            tape.grads = None
            tape.input_grads = {}
        tape.reused = True
        tape.acts[0] = x
    # one array per layer (new, or the tape's): the activation overwrites
    # its pre-activation
    acts = tape.acts
    for i, layer in enumerate(net.layers):
        z = acts[i + 1] = np.matmul(acts[i], layer.w, out=acts[i + 1])
        z += layer.b
        _activate_in_place(z, layer.activation)
    return acts[-1], tape


def backward(
    net: DenseNet, tape: Tape, upstream_grad: np.ndarray, *, params: bool = True
) -> tuple[Gradients | None, np.ndarray]:
    """Backpropagate ``upstream_grad`` (dLoss/dOutput) through the net.

    Returns the parameter gradients and the gradient with respect to the
    network input. Parameters are left untouched. With ``params=False`` the
    net is only read: just the input gradient is computed, and None comes
    back in place of the parameter gradients.
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
    grads = None
    if params and tape.reused:
        if tape.grads is None:
            tape.grads = Gradients(
                weights=[np.empty_like(l.w) for l in net.layers],
                biases=[np.empty_like(l.b) for l in net.layers],
            )
        grads = tape.grads
    elif params:
        grads = Gradients(weights=[None] * n_layers, biases=[None] * n_layers)
    for i in range(n_layers - 1, -1, -1):
        layer = net.layers[i]
        # a reused tape's activation is not read again: dz takes its array
        a = tape.acts[i + 1]
        dz = _preact_grad(g, a, layer.activation, a if tape.reused else None)
        if grads is not None:
            grads.weights[i] = np.matmul(tape.acts[i].T, dz, out=grads.weights[i])
            grads.biases[i] = np.sum(dz, axis=0, out=grads.biases[i])
        g = np.matmul(dz, layer.w.T, out=tape._input_grad(layer.w.shape[0]))
    return grads, g


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
    # two arrays per parameter array, in flat_params order: the step, and
    # the candidate parameters checked before any is committed
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, repr=False
    )

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate: float, **kwargs) -> "AdamState":
        state = cls(learning_rate=learning_rate, **kwargs)
        state.m_w = [np.zeros_like(l.w) for l in net.layers]
        state.v_w = [np.zeros_like(l.w) for l in net.layers]
        state.m_b = [np.zeros_like(l.b) for l in net.layers]
        state.v_b = [np.zeros_like(l.b) for l in net.layers]
        state.scratch = [
            (np.empty_like(p), np.empty_like(p)) for p in net._param_arrays()
        ]
        return state

    def reset_moments(self) -> None:
        """Zero the moment buffers (divergence recovery); keeps hyperparameters."""
        for buf in (*self.m_w, *self.v_w, *self.m_b, *self.v_b):
            buf[...] = 0.0
        self.step_count = 0


def adam_step(net: DenseNet, grads: Gradients, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, on net and state.

    All or nothing for the net: the new parameters are built in the state's
    scratch and committed only once every one of them is finite. A
    ``NonFiniteError`` leaves the net as it was (the moments and the step
    count have moved on).
    """
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
    rows = zip(
        net._param_arrays(),
        (g for pair in zip(grads.weights, grads.biases) for g in pair),
        (m for pair in zip(state.m_w, state.m_b) for m in pair),
        (v for pair in zip(state.v_w, state.v_b) for v in pair),
        state.scratch,
    )
    candidates = []
    for k, (param, grad, m, v, (step, candidate)) in enumerate(rows):
        # the operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # param - lr * (m / bias1) / (sqrt(v / bias2) + eps) in their
        # evaluation order, so the result is that expression's to the bit
        m *= state.beta1
        np.multiply(1.0 - state.beta1, grad, out=step)
        m += step
        v *= state.beta2
        np.multiply(1.0 - state.beta2, grad, out=step)
        step *= grad
        v += step
        np.divide(m, bias1, out=step)
        step *= state.learning_rate
        np.divide(v, bias2, out=candidate)
        np.sqrt(candidate, out=candidate)
        candidate += state.epsilon
        step /= candidate
        np.subtract(param, step, out=candidate)
        if not np.isfinite(candidate).all():
            raise NonFiniteError(f"layer {k // 2}: parameters became non-finite")
        candidates.append((param, candidate))
    for param, candidate in candidates:
        param[...] = candidate


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
        self._diff = np.empty_like(self._avg)
        # per parameter array: its views into the average and the scratch
        self._views = list(zip(_unflatten(self._avg, net), _unflatten(self._diff, net)))

    def update(self, net: DenseNet) -> None:
        """avg += (1 - decay) * (params - avg), in place."""
        keep = 1.0 - self.decay
        for param, (avg, diff) in zip(net._param_arrays(), self._views):
            np.subtract(param, avg, out=diff)
            diff *= keep
            avg += diff

    def averaged_net(self, net: DenseNet) -> DenseNet:
        """Copy of net carrying the averaged parameters."""
        out = net.copy()
        out.set_flat_params(self._avg)
        return out
