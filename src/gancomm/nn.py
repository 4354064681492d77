"""Dense networks with hand-written forward/backward passes and Adam.

Everything runs in the parameters' dtype and batch-major layout:
activations are (batch, dim) arrays. Product nets are float32
(``PARAM_DTYPE``); a float64 net runs the same functions in float64, which
is how the finite-difference tests check them.

``backward`` returns exact analytic gradients of a scalar loss -- whose
gradient with respect to the network output the caller supplies -- for
every parameter and for the network input, skipping either on request. The
input gradient is what lets a loss computed behind one network keep
propagating into the network that feeds it.

Losses average over the batch, so the gradients they return already carry
the 1/batch factor and learning rates stay batch-size independent.

A net's parameters are one contiguous vector, ``DenseNet.params``: each
layer's row-major weights, then its bias, layer by layer. Every layer's
``w`` and ``b`` are views of it, and ``DenseNet.views`` is the one place
that knows the layout. Gradients, Adam's moments and the EMA average are
vectors of the same layout, so the optimizer and the EMA update each take
one numpy call per operation for a whole net.

Every pass writes into a ``Tape``: a new one unless the caller hands one
back. ``forward`` allocates a tape's arrays when the pass does not fit them
(first use, another batch size, another net) and otherwise writes over
them; ``backward`` overwrites the activations with gradients and returns
buffers the tape owns. So a training loop that keeps one tape per net
allocates almost nothing per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "linear")

# The dtype nets are created and loaded in. Everything else follows a net's
# own dtype, so this is the one place the precision is decided.
PARAM_DTYPE = np.float32


class ShapeError(ValueError):
    """An array does not match the layer or tape it is used with."""


class NonFiniteError(FloatingPointError):
    """A loss, gradient, or parameter came out NaN or Inf."""


def _preact_grad(g: np.ndarray, a: np.ndarray, name: str) -> np.ndarray:
    # dLoss/dz from dLoss/da and the layer output a, written over a: relu's
    # mask a > 0 equals z > 0. The mask is written into a as 1.0 or 0.0,
    # which is what g * (a > 0) casts the bools to, so the product keeps
    # those bits without a bool temporary
    if name == "relu":
        np.greater(a, 0.0, out=a)
        return np.multiply(g, a, out=a)
    a[...] = g
    return a


@dataclass
class Layer:
    """One dense layer: out = activation(in @ w + b)."""

    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.w.dtype not in (np.float32, np.float64) or self.b.dtype != self.w.dtype:
            raise TypeError(
                f"layer weights ({self.w.dtype}) and bias ({self.b.dtype}) must "
                f"share one dtype, float32 or float64"
            )
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ShapeError(
                f"layer weights {self.w.shape} and bias {self.b.shape} do not agree"
            )


class DenseNet:
    """A fixed-topology stack of dense layers over copies of the given arrays."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].w.shape[1] != layers[i + 1].w.shape[0]:
                raise ShapeError(
                    f"layer {i} outputs {layers[i].w.shape[1]} features but "
                    f"layer {i + 1} expects {layers[i + 1].w.shape[0]}"
                )
        if len({layer.w.dtype for layer in layers}) != 1:
            raise TypeError("all layers of a network must share one dtype")
        self.layers = layers  # lends its shapes to views until replaced
        self.params = np.empty(self.n_params, dtype=self.dtype)
        self.layers = [
            Layer(w, b, layer.activation)
            for (w, b), layer in zip(self.views(self.params), layers)
        ]
        for mine, given in zip(self.layers, layers):
            mine.w[...] = given.w
            mine.b[...] = given.b

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, and of all the net's arithmetic."""
        return self.layers[0].w.dtype

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths, input first, as ``create`` takes them."""
        return (self.input_dim, *(layer.w.shape[1] for layer in self.layers))

    @property
    def n_params(self) -> int:
        return sum(layer.w.size + layer.b.size for layer in self.layers)

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's (w, b) as views of a flat vector laid out like
        ``params``: row-major weights, then bias, layer by layer."""
        out, pos = [], 0
        for layer in self.layers:
            fan_in, fan_out = layer.w.shape
            w = flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += w.size
            out.append((w, flat[pos : pos + fan_out]))
            pos += fan_out
        return out

    @classmethod
    def create(cls, dims: list[int], rng: np.random.Generator) -> "DenseNet":
        """Build a net with Glorot-uniform weights and zero biases: relu
        hidden layers and a linear output layer.

        ``dims`` lists layer widths input-first, e.g. [16, 32, 32, 14]. The
        weights are drawn in float64, then stored as ``PARAM_DTYPE``.
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(PARAM_DTYPE)
            b = np.zeros(fan_out, dtype=PARAM_DTYPE)
            act = "linear" if i == len(dims) - 2 else "relu"
            layers.append(Layer(w=w, b=b, activation=act))
        return cls(layers)

    def copy(self) -> "DenseNet":
        return DenseNet(self.layers)

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild the net from its layers, so the
        # copy's layer arrays are views of the copy's own params again
        return (DenseNet, (self.layers,))

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=self.dtype)
        if flat.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.params[...] = flat


def _non_finite_layer(net: DenseNet, flat: np.ndarray) -> int:
    """The first layer whose part of a params-shaped vector is not all finite."""
    return next(
        i for i, (w, b) in enumerate(net.views(flat))
        if not (np.isfinite(w).all() and np.isfinite(b).all())
    )


@dataclass
class Tape:
    """The arrays of one forward pass, consumed by ``backward``.

    ``forward`` writes each pass into its tape's arrays, allocated again
    whenever the pass does not fit them: on first use, for another batch
    size, or for a net of other shapes or dtype. ``backward`` overwrites each
    activation with its pre-activation gradient and returns arrays the tape
    owns, valid until the tape's next forward. So a tape serves one backward
    per forward. The input is kept as given (in the net's dtype) and never
    written, so one input array may feed several passes.

    A tape also keeps one zeros array per relu width, the second operand of
    relu's maximum: numpy takes a slower loop for a scalar 0.0 than for an
    operand of the same shape, and the bits are the same.
    """

    # the net input, then each layer's output: acts[i] feeds layer i and
    # acts[i + 1] is what it emitted, (batch, width)
    acts: list[np.ndarray] = field(default_factory=list)
    # parameter gradients, and one input-gradient array per layer input width
    grads: Gradients | None = None
    input_grads: dict[int, np.ndarray] = field(default_factory=dict)
    # (batch, width) zeros for relu, one per width
    zeros: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return self.acts[0].shape[0]

    def _input_grad(self, width: int) -> np.ndarray:
        buf = self.input_grads.get(width)
        if buf is None:
            buf = self.input_grads[width] = np.empty(
                (self.batch_size, width), dtype=self.acts[0].dtype
            )
        return buf

    def _zeros(self, width: int) -> np.ndarray:
        buf = self.zeros.get(width)
        if buf is None:
            buf = self.zeros[width] = np.zeros(
                (self.batch_size, width), dtype=self.acts[0].dtype
            )
        return buf


class Gradients:
    """Parameter gradients laid out like a net's ``params``: one flat vector,
    with per-layer views ``weights`` and ``biases``."""

    def __init__(self, net: DenseNet):
        self.flat = np.empty_like(net.params)
        views = net.views(self.flat)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]


def forward(
    net: DenseNet, x: np.ndarray, tape: Tape | None = None
) -> tuple[np.ndarray, Tape]:
    """Run a batch through the net, writing the pass into ``tape`` (a new
    one if none is given); returns the output and the tape.

    The output is the tape's last activation, so it must not be modified in
    place before ``backward`` runs on the tape, and the tape's next forward
    writes over it. The input is cast to the net's dtype, and so is
    everything the pass makes.
    """
    x = np.asarray(x, dtype=net.dtype)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"expected a (batch, {net.input_dim}) input, got {x.shape}")
    if x.shape[1] != net.input_dim:
        raise ShapeError(
            f"layer 0 expects input dim {net.input_dim}, got {x.shape[1]}"
        )
    if tape is None:
        tape = Tape()
    shapes = [x.shape] + [(x.shape[0], layer.w.shape[1]) for layer in net.layers]
    if [a.shape for a in tape.acts] != shapes or tape.acts[0].dtype != x.dtype:
        # first use, another batch size, or a net of other shapes or dtype:
        # start the tape afresh
        tape.acts = [x] + [np.empty(shape, dtype=x.dtype) for shape in shapes[1:]]
        tape.grads = None
        tape.input_grads = {}
        tape.zeros = {}
    tape.acts[0] = x
    # the activation overwrites its pre-activation
    acts = tape.acts
    for i, layer in enumerate(net.layers):
        z = np.matmul(acts[i], layer.w, out=acts[i + 1])
        z += layer.b
        if layer.activation == "relu":
            np.maximum(z, tape._zeros(z.shape[1]), out=z)
    return acts[-1], tape


def backward(
    net: DenseNet,
    tape: Tape,
    upstream_grad: np.ndarray,
    *,
    params: bool = True,
    inputs: bool = True,
) -> tuple[Gradients | None, np.ndarray | None]:
    """Backpropagate ``upstream_grad`` (dLoss/dOutput) through the net.

    Returns the parameter gradients and the gradient with respect to the
    network input, in the net's dtype (the upstream gradient is cast to it).
    Both are arrays the tape owns (``tape.grads`` and one of
    ``tape.input_grads``), valid until the tape's next forward; the
    activations on the tape are overwritten. Parameters are left untouched.
    With ``params=False`` the net is only read: just the input gradient is
    computed, and None comes back in place of the parameter gradients. With
    ``inputs=False`` the input gradient is skipped and None comes back in
    its place.
    """
    if not (params or inputs):
        raise ValueError("backward with params=False and inputs=False computes nothing")
    g = np.asarray(upstream_grad, dtype=net.dtype)
    n_layers = len(net.layers)
    if len(tape.acts) != n_layers + 1:
        raise ShapeError("tape does not belong to this network")
    if g.shape != tape.acts[-1].shape:
        raise ShapeError(
            f"upstream gradient {g.shape} does not match the forward batch "
            f"{tape.acts[-1].shape}"
        )
    grads = None
    if params:
        if tape.grads is None:
            tape.grads = Gradients(net)
        grads = tape.grads
    for i in range(n_layers - 1, -1, -1):
        layer = net.layers[i]
        # the activation is not read again: dz takes its array
        dz = _preact_grad(g, tape.acts[i + 1], layer.activation)
        if grads is not None:
            np.matmul(tape.acts[i].T, dz, out=grads.weights[i])
            # einsum sums the rows in np.sum's order, with less overhead;
            # on one column np.sum sums pairwise, so it stays
            if dz.shape[1] > 1:
                np.einsum("ij->j", dz, out=grads.biases[i])
            else:
                np.sum(dz, axis=0, out=grads.biases[i])
        if i == 0 and not inputs:
            return grads, None
        g = tape._input_grad(layer.w.shape[0])
        if dz.shape[1] == 1:
            # a one-term product: matmul's bits, but matmul adds to +0.0, so
            # a -0.0 product comes out +0.0, and so it does after += 0.0
            np.multiply(dz, layer.w.T, out=g)
            g += 0.0
        else:
            np.matmul(dz, layer.w.T, out=g)
    return grads, g


def softmax_cross_entropy(
    logits: np.ndarray, messages: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between softmax(logits) and the (B,) messages.

    The softmax is fused into the loss, so the returned gradient is with
    respect to the logits: (softmax - one-hot of messages) / batch, in the
    logits' dtype.
    """
    logits = np.asarray(logits)
    messages = np.asarray(messages)
    if logits.ndim != 2 or messages.shape != logits.shape[:1]:
        raise ShapeError(f"logits {logits.shape} vs messages {messages.shape}")
    if messages.size and (messages.min() < 0 or messages.max() >= logits.shape[1]):
        raise ValueError(f"message index out of range [0, {logits.shape[1]})")
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - z[rows, messages]))
    grad = e / total[:, None]
    grad[rows, messages] -= 1
    grad /= logits.shape[0]
    return loss, grad


def sigmoid_bce(logits: np.ndarray, batch: int) -> tuple[float, float, np.ndarray]:
    """Binary cross-entropy of logits labelled t = 1 (real) on rows
    [:batch] and t = 0 (fake) on any rows after them, in the stable
    log-sum-exp form; each label's sum is averaged over ``batch``.

    loss_i = max(z,0) - z*t + log(1 + exp(-|z|)); grad = (sigmoid(z) - t) / batch.
    Returns (real loss, fake loss, grad), the gradient in the logits' dtype
    with its rows as the logits'.
    """
    z = np.asarray(logits)
    # the operations of that formula in its order, in place; z * t is z for
    # t = 1 and a zero for t = 0, which the positive log1p term absorbs
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    per_sample = np.maximum(z, 0.0)
    per_sample[:batch] -= z[:batch]
    scratch = np.log1p(e)
    per_sample += scratch
    loss_r = float(np.add.reduce(per_sample[:batch], axis=None) / batch)
    loss_f = float(np.add.reduce(per_sample[batch:], axis=None) / batch)
    # sigmoid(z) is 1 / (1 + e) for z >= 0 and e / (1 + e) below
    np.add(1.0, e, out=scratch)
    grad = np.where(z >= 0, 1.0, e)
    grad /= scratch
    grad[:batch] -= 1.0
    grad /= batch
    return loss_r, loss_f, grad


@dataclass
class AdamState:
    """Adam moment buffers paired with one DenseNet, laid out like its params."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(kw_only=True, repr=False)
    v: np.ndarray = field(kw_only=True, repr=False)
    # scratch: the step, and the candidate parameters checked before commit
    step: np.ndarray = field(kw_only=True, repr=False)
    candidate: np.ndarray = field(kw_only=True, repr=False)

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate: float, **kwargs) -> "AdamState":
        return cls(
            learning_rate=learning_rate, **kwargs,
            m=np.zeros_like(net.params), v=np.zeros_like(net.params),
            step=np.empty_like(net.params), candidate=np.empty_like(net.params),
        )


def adam_step(net: DenseNet, grads: Gradients, state: AdamState) -> None:
    """One bias-corrected Adam update, in place, on net and state.

    All or nothing for the net: the new parameters are built in the state's
    scratch and committed only once every one of them is finite. A
    ``NonFiniteError`` names the first offending layer and leaves the net as
    it was (the moments and the step count have moved on).
    """
    grad = grads.flat
    if grad.shape != net.params.shape:
        raise ShapeError("gradients do not mirror the network's parameters")
    if not np.isfinite(grad).all():
        raise NonFiniteError(
            f"layer {_non_finite_layer(net, grad)}: non-finite gradient"
        )
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    m, v, step, candidate = state.m, state.v, state.step, state.candidate
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
    np.subtract(net.params, step, out=candidate)
    if not np.isfinite(candidate).all():
        raise NonFiniteError(
            f"layer {_non_finite_layer(net, candidate)}: parameters became non-finite"
        )
    net.params[...] = candidate


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
        self._avg = net.params.copy()
        self._diff = np.empty_like(self._avg)

    def update(self, net: DenseNet) -> None:
        """avg += (1 - decay) * (params - avg), in place."""
        np.subtract(net.params, self._avg, out=self._diff)
        self._diff *= 1.0 - self.decay
        self._avg += self._diff

    def averaged_net(self, net: DenseNet) -> DenseNet:
        """Copy of net carrying the averaged parameters."""
        out = net.copy()
        out.set_flat_params(self._avg)
        return out
