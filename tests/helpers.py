"""Shared test utilities: finite-difference oracles for gradient checks
(run on float64 copies of the nets), reference copies of the in-place
optimizer updates, and helpers that only tests need."""

import hashlib
import json

import numpy as np

from gancomm import baseline, channel, nn, train
from gancomm.config import TrainConfig


def central_difference(loss_fn, params, indices, eps=1e-6):
    """Central finite differences of loss_fn at the given flat indices.

    loss_fn takes a flat parameter vector and returns a scalar; params is
    the evaluation point. Returns the FD gradient at those indices.
    """
    out = np.empty(len(indices))
    for row, i in enumerate(indices):
        bumped = params.copy()
        bumped[i] += eps
        up = loss_fn(bumped)
        bumped[i] -= 2 * eps
        down = loss_fn(bumped)
        out[row] = (up - down) / (2 * eps)
    return out


def relative_error(a, b, floor=1e-8):
    """Elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))


def spread_indices(size, count):
    """Up to `count` indices spread evenly over range(size)."""
    if size <= count:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, count).astype(int))


def check_net_gradients(net, loss_fn, analytic, count=40, eps=1e-6):
    """Max relative error between analytic grads and FD over sampled indices.

    loss_fn() recomputes the scalar loss from the net's current parameters;
    analytic is a Gradients for those parameters.
    """
    flat = net.params.copy()
    idx = spread_indices(flat.size, count)

    def at(params):
        net.set_flat_params(params)
        return loss_fn()

    try:
        fd = central_difference(at, flat, idx, eps)
    finally:
        net.set_flat_params(flat)
    return float(relative_error(analytic.flat[idx], fd).max())


def float64_copy(net):
    """The net with float64 copies of its parameters. nn runs it through the
    same functions in float64, where a 1e-6 finite-difference step resolves
    the gradient; float32 rounding would swamp it."""
    return nn.DenseNet(
        [nn.Layer(l.w.astype(np.float64), l.b.astype(np.float64), l.activation)
         for l in net.layers]
    )


def gradients_for(net, weights, biases):
    """An nn.Gradients for net holding copies of the given per-layer
    weight and bias gradients."""
    grads = nn.Gradients(net)
    for mine, given in zip(grads.weights + grads.biases, [*weights, *biases], strict=True):
        mine[...] = given
    return grads


def assert_params_layout(net):
    """Every layer's w and b are contiguous views of net.params, at the
    offsets of params order: row-major w, then b, layer by layer."""
    base, pos = net.params.ctypes.data, 0
    for layer in net.layers:
        for p in (layer.w, layer.b):
            assert np.shares_memory(p, net.params)
            assert p.flags.c_contiguous and p.dtype == net.params.dtype
            assert p.ctypes.data == base + pos * net.params.itemsize
            pos += p.size
    assert pos == net.params.size == net.n_params


def param_checksum(net):
    """Stable digest of all parameters; equal iff parameters are bit-identical."""
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.w).tobytes())
        digest.update(np.ascontiguousarray(layer.b).tobytes())
    return digest.digest()


def phase_losses(log, phase):
    """The losses a TrainLog recorded for one phase, in step order."""
    return np.array([r.loss for r in log.records if r.phase == phase])


def last_iteration_mean(log, phase):
    """Mean loss of one phase over the last outer iteration it ran in."""
    matching = [r for r in log.records if r.phase == phase]
    if not matching:
        raise ValueError(f"no records for phase {phase!r}")
    last_it = matching[-1].iteration
    return float(np.mean([r.loss for r in matching if r.iteration == last_it]))


def hamming74_bits():
    """The 16 Hamming(7,4) codewords as (16, 7) 0/1 bits, row i for message
    i: the BPSK codebook's negative symbols."""
    return (baseline.hamming74_bpsk_codebook() < 0).astype(np.int64)


def qam16_points():
    """The 16-QAM constellation as (16,) complex points, index i for
    message i: the codebook's one-use I/Q blocks."""
    return channel.iq_to_complex(baseline.qam16_codebook())[:, 0]


def reference_complex_to_iq(symbols):
    """(batch, n) complex -> (batch, 2n) interleaved reals, I then Q per
    use: the layout channel.iq_to_complex reads."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    return np.stack([symbols.real, symbols.imag], axis=-1).reshape(
        symbols.shape[:-1] + (2 * symbols.shape[-1],))


def hamming74_hard_decode(y):
    """Hard-decision decoding: slice bits, then nearest codeword in
    Hamming distance (equivalent to syndrome correction for this code)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 7:
        raise nn.ShapeError(f"observations must be (batch, 7), got {y.shape}")
    hard = (y < 0.0).astype(np.int64)
    dist = (hard[:, None, :] != hamming74_bits()[None, :, :]).sum(axis=2)
    return np.argmin(dist, axis=1)


def reference_correlation_decode(y):
    """Hamming(7,4) MLD as the argmax of y's correlation with each BPSK
    codeword, lowest index on ties: the rule baseline.nearest_codeword
    must match on this equal-energy codebook."""
    return np.argmax(np.asarray(y, dtype=np.float64) @ baseline.hamming74_bpsk_codebook().T,
                     axis=1)


def reference_qam16_demod(y, h_est):
    """16-QAM detection as the argmin of |y / h_est - point| over the
    complex constellation, lowest index on ties: (B,) complex y and
    estimates -> (B,) indices. baseline.nearest_codeword on the equalized
    I/Q rows must match it."""
    eq = np.asarray(y, dtype=np.complex128) / h_est
    return np.argmin(np.abs(eq[:, None] - qam16_points()), axis=1)


def reference_adam_step(net, grads, state):
    """Adam as plain array expressions, each making new arrays; the
    in-place nn.adam_step must match it bit for bit."""
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for layer, g_w, g_b, (m_w, m_b), (v_w, v_b) in zip(
        net.layers, grads.weights, grads.biases, net.views(state.m), net.views(state.v)
    ):
        for param, grad, m, v in ((layer.w, g_w, m_w, v_w), (layer.b, g_b, m_b, v_b)):
            m *= state.beta1
            m += (1.0 - state.beta1) * grad
            v *= state.beta2
            v += (1.0 - state.beta2) * grad * grad
            param -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)


def reference_forward_backward(net, x, upstream):
    """A forward and a backward pass as plain array expressions, each making
    new arrays, in the net's dtype: (output, weight gradients, bias
    gradients, input gradient). nn.forward and nn.backward, which write into
    a tape, must match it bit for bit."""
    acts = [np.asarray(x, dtype=net.dtype)]
    for layer in net.layers:
        z = acts[-1] @ layer.w + layer.b
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        acts.append(z)
    g = np.asarray(upstream, dtype=net.dtype)
    weights, biases = [], []
    for layer, a_in, a in reversed(list(zip(net.layers, acts[:-1], acts[1:]))):
        if layer.activation == "relu":
            dz = g * (a > 0.0)
        else:
            dz = g
        weights.insert(0, a_in.T @ dz)
        biases.insert(0, dz.sum(axis=0))
        g = dz @ layer.w.T
    return acts[-1], weights, biases, g


def reference_softmax_cross_entropy(logits, messages):
    """The cross-entropy through one-hot targets in the logits' dtype and a
    separately computed softmax, as plain array expressions: (loss,
    gradient w.r.t. the logits). nn.softmax_cross_entropy, which takes the
    message indices, must match it bit for bit."""
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(logits.shape[0]), messages] = 1.0
    z = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[onehot == 1.0]))
    e = np.exp(z)
    softmax = e / e.sum(axis=1, keepdims=True)
    return loss, (softmax - onehot) / logits.shape[0]


def reference_sigmoid(z):
    """The logistic function, branch by branch on the sign of z:
    1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, each
    form finite over its half. nn.sigmoid_bce's gradient, before it
    subtracts the labels and divides by the batch, must match it bit for
    bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_ema_update(avg, net, decay):
    """The EMA update on a flat average, as one array expression."""
    avg += (1.0 - decay) * (net.params - avg)


def save_config(cfg, path):
    """Write a config as the JSON file load_config reads."""
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def reference_energy_distance(a, b):
    """evaluate.energy_distance as one (256, n_b, width) difference cube per
    256-row chunk of the first 1024 rows of each set: the formula the
    row-block version must match bit for bit."""
    a = np.asarray(a, dtype=np.float64)[:1024]
    b = np.asarray(b, dtype=np.float64)[:1024]

    def mean_distance(p, q):
        total = 0.0
        for start in range(0, p.shape[0], 256):
            part = p[start:start + 256]
            d = np.sqrt(((part[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
            total += float(d.sum())
        return total / (p.shape[0] * q.shape[0])

    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


def train_channel_gan(channel_kind, ebn0_db, steps, seed, **overrides):
    """GAN-only training against a fixed 16-QAM alphabet (one channel use):
    (averaged generator, discriminator, TrainLog).

    This isolates the surrogate: no transmitter or receiver learning, just
    the generator chasing the channel's conditional output distribution
    around the alphabet (the GAN step jitters the points it sends).
    Eb/N0 is interpreted at 4 bits per channel use; overrides are further
    TrainConfig fields (batch size, GAN nets and optimizers). The returned
    generator carries the parameter average, not the last snapshot.
    """
    cfg = TrainConfig(k=4, n=1, channel=channel_kind, train_ebn0_db=ebn0_db,
                      seed=seed, **overrides)
    trainer = train.Trainer(cfg)
    # the GAN step gathers from the cached codebook; only the transmitter
    # step, never run here, would drop it
    trainer._codebook = baseline.qam16_codebook()
    for _ in range(steps):
        trainer.train_gan_step(0)
    return trainer.generator_averaged(), trainer.discriminator, trainer.log
