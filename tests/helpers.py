"""Shared test utilities: finite-difference oracles for gradient checks
(run on float64 copies of the nets), reference copies of the in-place
optimizer updates, and helpers that only tests need."""

import hashlib

import numpy as np

from gancomm import baseline, nn


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
    flat = net.flat_params()
    idx = spread_indices(flat.size, count)

    def at(params):
        net.set_flat_params(params)
        return loss_fn()

    try:
        fd = central_difference(at, flat, idx, eps)
    finally:
        net.set_flat_params(flat)
    return float(relative_error(analytic.flat()[idx], fd).max())


def float64_copy(net):
    """The net with float64 copies of its parameters. nn runs it through the
    same functions in float64, where a 1e-6 finite-difference step resolves
    the gradient; float32 rounding would swamp it."""
    return nn.DenseNet(
        [nn.Layer(l.w.astype(np.float64), l.b.astype(np.float64), l.activation)
         for l in net.layers]
    )


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


def hamming74_hard_decode(y):
    """Hard-decision decoding: slice bits, then nearest codeword in
    Hamming distance (equivalent to syndrome correction for this code)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 7:
        raise nn.ShapeError(f"observations must be (batch, 7), got {y.shape}")
    hard = (y < 0.0).astype(np.int64)
    dist = (hard[:, None, :] != baseline.hamming74_codebook()[None, :, :]).sum(axis=2)
    return np.argmin(dist, axis=1)


def reference_adam_step(net, grads, state):
    """Adam as plain array expressions, each making new arrays; the
    in-place nn.adam_step must match it bit for bit."""
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


def reference_ema_update(avg, net, decay):
    """The EMA update on a flat average, as one array expression."""
    avg += (1.0 - decay) * (net.flat_params() - avg)
