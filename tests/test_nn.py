"""Core dense-net machinery: forward, backward, losses, Adam."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gancomm import nn
from helpers import (
    assert_params_layout,
    central_difference,
    check_net_gradients,
    float64_copy,
    gradients_for,
    param_checksum,
    reference_adam_step,
    reference_ema_update,
    reference_forward_backward,
    reference_sigmoid,
    reference_softmax_cross_entropy,
    relative_error,
)


def tiny_net():
    # x=[1,2] -> z1 = [1.5, 2.5] (relu) -> out = 1.5 - 2.5 + 0.25 = -0.75
    l1 = nn.Layer(
        w=np.array([[1.0, -1.0], [0.0, 2.0]]),
        b=np.array([0.5, -0.5]),
        activation="relu",
    )
    l2 = nn.Layer(
        w=np.array([[1.0], [-1.0]]), b=np.array([0.25]), activation="linear"
    )
    return nn.DenseNet([l1, l2])


def net_of_layers(dims, activations, rng):
    """A float32 net built layer by layer, layer i applying activations[i]:
    normal weights scaled by 1/sqrt(fan_in) and normal biases, so relu
    layers have units on both sides of the kink."""
    return nn.DenseNet([
        nn.Layer(w=(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32),
                 b=rng.normal(size=fan_out).astype(np.float32), activation=act)
        for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations, strict=True)
    ])


class TestForward:
    def test_hand_computed_two_layer(self):
        out, tape = nn.forward(tiny_net(), np.array([[1.0, 2.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(-0.75, abs=1e-15)
        # both pre-activations are positive, so relu passes them through
        assert np.allclose(tape.acts[1], [[1.5, 2.5]])
        assert tape.acts[2] is out

    def test_relu_clamps_negative_preactivations(self):
        net = tiny_net()
        x = np.array([[-3.0, 0.0]])
        out, tape = nn.forward(net, x)
        # z1 = [-3+0.5, 3-0.5] = [-2.5, 2.5]; relu kills the first unit
        assert tape.acts[0] is x
        assert np.array_equal(tape.acts[1], [[0.0, 2.5]])
        assert out[0, 0] == pytest.approx(-2.5 + 0.25)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(nn.ShapeError):
            nn.forward(tiny_net(), np.zeros((4, 3)))

    def test_rejects_1d_input(self):
        with pytest.raises(nn.ShapeError):
            nn.forward(tiny_net(), np.array([1.0, 2.0]))

    def test_rows_are_independent(self):
        # BLAS may reassociate sums differently per batch shape, so equality
        # holds only to rounding
        rng = np.random.default_rng(3)
        net = nn.DenseNet.create((5, 11, 4), rng)
        x = rng.normal(size=(7, 5))
        full, _ = nn.forward(net, x)
        for i in range(7):
            single, _ = nn.forward(net, x[i : i + 1])
            assert np.allclose(full[i], single[0], rtol=1e-12, atol=1e-14)


class TestBackward:
    @pytest.mark.parametrize("hidden", nn.ACTIVATIONS)
    def test_parameter_gradients_match_finite_differences(self, hidden):
        rng = np.random.default_rng(11)
        net = float64_copy(net_of_layers((6, 9, 7, 3), (hidden, hidden, "linear"), rng))
        x = rng.normal(size=(5, 6))
        target = rng.normal(size=(5, 3))

        def loss():
            out, _ = nn.forward(net, x)
            return 0.5 * float(((out - target) ** 2).sum())

        out, tape = nn.forward(net, x)
        grads, _ = nn.backward(net, tape, out - target)
        assert check_net_gradients(net, loss, grads) < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = float64_copy(nn.DenseNet.create((4, 8, 2), rng))
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 2))
        out, tape = nn.forward(net, x)
        _, input_grad = nn.backward(net, tape, out - target)

        flat_x = x.reshape(-1)

        def loss_at(v):
            out2, _ = nn.forward(net, v.reshape(x.shape))
            return 0.5 * float(((out2 - target) ** 2).sum())

        fd = central_difference(loss_at, flat_x, np.arange(flat_x.size))
        assert relative_error(input_grad.reshape(-1), fd).max() < 1e-6

    def test_relu_gradient_is_zero_at_an_exactly_zero_preactivation(self):
        # x = [-0.5, 1] -> z1 = [-0.5 + 0.5, 0.5 + 2 - 0.5] = [0, 2]: the
        # first unit sits exactly at the kink, where the gradient taken is 0
        net = tiny_net()
        x = np.array([[-0.5, 1.0]])
        out, tape = nn.forward(net, x)
        grads, input_grad = nn.backward(net, tape, np.ones_like(out))
        # dLoss/da1 = w2.T = [1, -1]; the mask [0, 1] leaves dz1 = [0, -1]
        assert np.array_equal(grads.biases[0], [0.0, -1.0])
        assert np.array_equal(grads.weights[0], [[0.0, 0.5], [0.0, -1.0]])
        assert np.array_equal(input_grad, [[1.0, -2.0]])

    def test_backward_that_computes_nothing_is_refused(self):
        net = tiny_net()
        out, tape = nn.forward(net, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="computes nothing"):
            nn.backward(net, tape, np.ones_like(out), params=False, inputs=False)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(13)
        net = nn.DenseNet.create((4, 5, 2), rng)
        _, tape = nn.forward(net, rng.normal(size=(3, 4)))
        with pytest.raises(nn.ShapeError):
            nn.backward(net, tape, np.zeros((3, 5)))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_gradients(grads, weights, biases):
    return all(same_bytes(x, y) for x, y in
               zip(grads.weights + grads.biases, [*weights, *biases], strict=True))


net_shapes = st.lists(st.integers(1, 9), min_size=2, max_size=5)
# a net's layer widths, input first, and one activation per layer
layered_nets = net_shapes.flatmap(lambda dims: st.tuples(
    st.just(dims), st.lists(st.sampled_from(nn.ACTIVATIONS),
                            min_size=len(dims) - 1, max_size=len(dims) - 1)))


class TestTapeReuse:
    @given(layers=st.lists(layered_nets, min_size=2, max_size=2),
           passes=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12)),
                           min_size=2, max_size=4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_reused_tape_matches_fresh_arrays_bit_for_bit(self, layers, passes, seed):
        # one tape through a run of passes, each on either of two nets (one
        # float32, one float64) at its own batch size: every pass writes
        # over, or replaces, the last one's arrays
        rng = np.random.default_rng(seed)
        nets = [net_of_layers(dims, acts, rng) for dims, acts in layers]
        nets[1] = float64_copy(nets[1])
        tape = nn.Tape()
        for which, batch in passes:
            net = nets[which]
            x = rng.normal(size=(batch, net.input_dim))
            upstream = rng.normal(size=(batch, net.output_dim))
            want_out, want_w, want_b, want_input = reference_forward_backward(
                net, x, upstream)
            out, same = nn.forward(net, x, tape)
            assert same is tape and tape.batch_size == batch
            assert same_bytes(out, want_out)
            grads, input_grad = nn.backward(net, tape, upstream)
            assert grads is tape.grads and same_gradients(grads, want_w, want_b)
            assert input_grad is tape.input_grads[net.input_dim]
            assert same_bytes(input_grad, want_input)

    @given(layers=layered_nets, batch=st.integers(1, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_params_false_gives_the_same_input_gradient(self, layers, batch, seed):
        rng = np.random.default_rng(seed)
        net = net_of_layers(*layers, rng)
        x = rng.normal(size=(batch, net.input_dim))
        upstream = rng.normal(size=(batch, net.output_dim))
        *_, want = reference_forward_backward(net, x, upstream)
        tape = nn.Tape()
        for _ in range(2):
            nn.forward(net, x, tape)
            grads, input_grad = nn.backward(net, tape, upstream, params=False)
            assert grads is None and tape.grads is None
            assert same_bytes(input_grad, want)

    @given(layers=layered_nets, batch=st.integers(1, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_inputs_false_gives_the_same_parameter_gradients(self, layers, batch, seed):
        rng = np.random.default_rng(seed)
        net = net_of_layers(*layers, rng)
        x = rng.normal(size=(batch, net.input_dim))
        upstream = rng.normal(size=(batch, net.output_dim))
        _, want_w, want_b, _ = reference_forward_backward(net, x, upstream)
        tape = nn.Tape()
        for _ in range(2):
            nn.forward(net, x, tape)
            grads, no_input = nn.backward(net, tape, upstream, inputs=False)
            assert no_input is None and same_gradients(grads, want_w, want_b)

    def test_a_tape_made_by_forward_can_be_handed_back(self):
        rng = np.random.default_rng(15)
        net = nn.DenseNet.create((3, 5, 2), rng)
        x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        first, tape = nn.forward(net, x1)
        want, other = nn.forward(net, x2)
        # a pass given no tape shares no array with another pass
        assert other is not tape and not np.shares_memory(want, first)
        out, same = nn.forward(net, x2, tape)
        assert same is tape and out is first and same_bytes(out, want)

    def test_another_batch_size_reallocates_the_tape(self):
        rng = np.random.default_rng(17)
        net = nn.DenseNet.create((3, 5, 2), rng)
        tape = nn.Tape()
        nn.forward(net, rng.normal(size=(4, 3)), tape)
        x = rng.normal(size=(6, 3))
        out, _ = nn.forward(net, x, tape)
        assert tape.batch_size == 6
        assert same_bytes(out, nn.forward(net, x)[0])


class TestSoftmaxCrossEntropy:
    def test_frozen_single_row(self):
        # p = softmax([1,2,3]); loss = -log p[2]
        logits = np.array([[1.0, 2.0, 3.0]])
        loss, grad = nn.softmax_cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(0.4076059644443803, rel=1e-12)
        assert grad[0, 0] == pytest.approx(0.09003057317038046, rel=1e-12)
        assert grad[0, 2] == pytest.approx(0.6652409557748219 - 1.0, rel=1e-12)

    def test_frozen_two_rows_averages(self):
        logits = np.array([[0.5, -1.0], [2.0, 2.0]])
        loss, grad = nn.softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.44728022927134886, rel=1e-12)
        assert grad[0, 0] == pytest.approx(-0.09121276190317817, rel=1e-12)
        assert grad[1, 1] == pytest.approx(-0.25, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(4, 6))
        messages = rng.integers(0, 6, 4)
        _, grad = nn.softmax_cross_entropy(logits, messages)
        flat = logits.reshape(-1)

        def loss_at(v):
            return nn.softmax_cross_entropy(v.reshape(4, 6), messages)[0]

        fd = central_difference(loss_at, flat, np.arange(flat.size))
        assert relative_error(grad.reshape(-1), fd).max() < 1e-6

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        a, _ = nn.softmax_cross_entropy(logits, np.array([1]))
        b, _ = nn.softmax_cross_entropy(logits + 500.0, np.array([1]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0]])
        loss, grad = nn.softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert loss == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("logits, messages", [
        (np.zeros((2, 3)), np.array([0])),
        (np.zeros((2, 3)), np.array([[0], [1]])),
        (np.zeros((2, 3)), np.array(0)),
        (np.zeros(3), np.array([0])),
    ], ids=["short", "2d-messages", "scalar-message", "1d-logits"])
    def test_rejects_messages_of_the_wrong_shape(self, logits, messages):
        with pytest.raises(nn.ShapeError):
            nn.softmax_cross_entropy(logits, messages)

    @pytest.mark.parametrize("message", [-1, 3])
    def test_rejects_a_message_out_of_range(self, message):
        # a negative index would otherwise pick a logit from the row's end
        with pytest.raises(ValueError, match="out of range"):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, message]))

    @given(st.integers(0, 4), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_grad_rows_sum_to_zero(self, seed, batch):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(batch, 5)) * 3
        _, grad = nn.softmax_cross_entropy(logits, rng.integers(0, 5, batch))
        # softmax minus one-hot sums to zero along classes
        assert np.abs(grad.sum(axis=1)).max() < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.sampled_from([2, 4, 16, 64]),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_one_hot_reference_bit_for_bit(self, seed, batch, m_count,
                                                       dtype):
        rng = np.random.default_rng(seed)
        logits = (rng.normal(size=(batch, m_count)) * 4).astype(dtype)
        messages = rng.integers(0, m_count, batch)
        loss, grad = nn.softmax_cross_entropy(logits, messages)
        want_loss, want_grad = reference_softmax_cross_entropy(logits, messages)
        assert loss == want_loss
        assert grad.dtype == want_grad.dtype == dtype
        assert grad.tobytes() == want_grad.tobytes()


class TestSigmoidBce:
    def test_frozen_values(self):
        # z=0.8 real and z=-0.3 fake: the mean of -log(sigmoid(0.8)) and
        # -log(1 - sigmoid(-0.3)), and each gradient over a batch of two
        loss_r, grad_r = nn.sigmoid_bce(np.array([0.8]), real=True)
        loss_f, grad_f = nn.sigmoid_bce(np.array([-0.3]), real=False)
        assert (loss_r + loss_f) / 2 == pytest.approx(0.46272795520815246, rel=1e-12)
        assert grad_r[0] / 2 == pytest.approx(-0.15501275943619375, rel=1e-12)
        assert grad_f[0] / 2 == pytest.approx(0.2127787415941705, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(size=(8, 1)) * 2
        flat = logits.reshape(-1)
        for real in (True, False):
            _, grad = nn.sigmoid_bce(logits, real)

            def loss_at(v):
                return nn.sigmoid_bce(v.reshape(8, 1), real)[0]

            fd = central_difference(loss_at, flat, np.arange(flat.size))
            assert relative_error(grad.reshape(-1), fd).max() < 1e-6

    def test_extreme_logits_stay_finite(self):
        for logits, real in ((np.array([800.0]), False), (np.array([-800.0]), True)):
            loss, grad = nn.sigmoid_bce(logits, real)
            assert np.isfinite(loss) and np.isfinite(grad).all()
            assert loss == pytest.approx(800.0, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_label_matches_a_full_target_array(self, dtype):
        # the label enters as a scalar of the logits' dtype, so loss and
        # gradient keep the bits of the same formula over a target array
        z = (np.random.default_rng(23).normal(size=(16, 1)) * 3).astype(dtype)
        # both zeros sit on the sigmoid's branch point; exp(-88) is subnormal
        # in float32
        z[:3, 0] = (0.0, -0.0, 88.0)
        for real in (True, False):
            t = np.full_like(z, 1.0 if real else 0.0)
            loss, grad = nn.sigmoid_bce(z, real)
            ref = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
            assert loss == float(ref.mean())
            assert grad.dtype == z.dtype
            assert grad.tobytes() == ((reference_sigmoid(z) - t) / z.size).tobytes()


class TestAdam:
    def test_two_steps_single_parameter(self):
        # constant gradient 0.5 from p=1.0, lr=0.1: first step is nearly
        # lr * sign(g) after bias correction
        net = nn.DenseNet(
            [nn.Layer(w=np.array([[1.0]]), b=np.array([0.0]), activation="linear")]
        )
        state = nn.AdamState.for_net(net, 0.1)
        grads = gradients_for(
            net, weights=[np.array([[0.5]])], biases=[np.array([0.0])]
        )
        nn.adam_step(net, grads, state)
        assert net.layers[0].w[0, 0] == pytest.approx(0.900000002, rel=1e-12)
        nn.adam_step(net, grads, state)
        assert net.layers[0].w[0, 0] == pytest.approx(0.8000000040000006, rel=1e-12)

    def test_rejects_non_finite_gradient(self):
        rng = np.random.default_rng(31)
        net = nn.DenseNet.create((2, 3), rng)
        state = nn.AdamState.for_net(net, 0.01)
        grads = gradients_for(
            net, weights=[np.full((2, 3), np.nan)], biases=[np.zeros(3)]
        )
        with pytest.raises(nn.NonFiniteError):
            nn.adam_step(net, grads, state)

    @staticmethod
    def assert_overflow_commits_nothing(net, big, lr):
        # layer 0 alone would step to finite values; layer 1 overflows, so
        # nothing may be committed
        net.layers[1].w[0, 0] = big
        before = param_checksum(net)
        state = nn.AdamState.for_net(net, lr)
        grads = gradients_for(
            net,
            weights=[np.full_like(l.w, -1.0) for l in net.layers],
            biases=[np.full_like(l.b, -1.0) for l in net.layers],
        )
        with pytest.raises(nn.NonFiniteError, match="layer 1"), np.errstate(over="ignore"):
            nn.adam_step(net, grads, state)
        assert param_checksum(net) == before

    @staticmethod
    def ones_for(net):
        return gradients_for(net, [np.ones_like(l.w) for l in net.layers],
                             [np.ones_like(l.b) for l in net.layers])

    # a NaN as the first value of a later layer's w, and as the last bias of
    # the last layer
    nan_spots = pytest.mark.parametrize(
        "layer, array, index", [(2, "w", (0, 0)), (3, "b", (-1,))]
    )

    @nan_spots
    def test_non_finite_gradient_names_its_layer(self, layer, array, index):
        net = nn.DenseNet.create((3, 4, 5, 2, 3), np.random.default_rng(34))
        grads = self.ones_for(net)
        (grads.weights if array == "w" else grads.biases)[layer][index] = np.nan
        before = param_checksum(net)
        with pytest.raises(nn.NonFiniteError, match=f"^layer {layer}: non-finite gradient"):
            nn.adam_step(net, grads, nn.AdamState.for_net(net, 0.01))
        assert param_checksum(net) == before

    @nan_spots
    def test_non_finite_parameter_names_its_layer(self, layer, array, index):
        net = nn.DenseNet.create((3, 4, 5, 2, 3), np.random.default_rng(35))
        getattr(net.layers[layer], array)[index] = np.nan
        before = param_checksum(net)
        with pytest.raises(nn.NonFiniteError, match=f"^layer {layer}: parameters became"):
            nn.adam_step(net, self.ones_for(net), nn.AdamState.for_net(net, 0.01))
        assert param_checksum(net) == before

    def test_non_finite_update_leaves_every_parameter_untouched(self):
        net = float64_copy(nn.DenseNet.create((2, 3, 2), np.random.default_rng(33)))
        self.assert_overflow_commits_nothing(net, 1.7e308, 1e308)

    def test_non_finite_float32_update_leaves_every_parameter_untouched(self):
        net = nn.DenseNet.create((2, 3, 2), np.random.default_rng(33))
        assert net.dtype == np.float32
        self.assert_overflow_commits_nothing(net, 3.4e38, 3.4e38)

    @given(dims=net_shapes, lr=st.sampled_from([1e-4, 1e-3, 0.05]),
           beta1=st.sampled_from([0.5, 0.9]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_array_expression_bit_for_bit(self, dims, lr, beta1, seed):
        rng = np.random.default_rng(seed)
        net = nn.DenseNet.create(dims, rng)
        ref_net = net.copy()
        state = nn.AdamState.for_net(net, lr, beta1=beta1)
        ref_state = nn.AdamState.for_net(ref_net, lr, beta1=beta1)
        for _ in range(5):
            # gradients come in the net's dtype, as backward returns them
            grads = gradients_for(
                net,
                weights=[rng.normal(size=l.w.shape).astype(net.dtype) for l in net.layers],
                biases=[rng.normal(size=l.b.shape).astype(net.dtype) for l in net.layers],
            )
            nn.adam_step(net, grads, state)
            reference_adam_step(ref_net, grads, ref_state)
            assert same_bytes(net.flat_params(), ref_net.flat_params())
            assert same_bytes(state.m, ref_state.m) and same_bytes(state.v, ref_state.v)

    def test_descends_a_quadratic(self):
        net = nn.DenseNet(
            [nn.Layer(w=np.array([[3.0]]), b=np.array([0.0]), activation="linear")]
        )
        state = nn.AdamState.for_net(net, 0.05)
        for _ in range(400):
            w = net.layers[0].w[0, 0]
            grads = gradients_for(
                net, weights=[np.array([[2.0 * w]])], biases=[np.array([0.0])]
            )
            nn.adam_step(net, grads, state)
        assert abs(net.layers[0].w[0, 0]) < 1e-3


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(41)
        net = nn.DenseNet.create((100, 50, 10), rng)
        for layer in net.layers:
            fan_in, fan_out = layer.w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.w).max() <= bound
            assert np.all(layer.b == 0.0)

    def test_same_seed_same_net(self):
        a = nn.DenseNet.create((4, 8, 2), np.random.default_rng(7))
        b = nn.DenseNet.create((4, 8, 2), np.random.default_rng(7))
        assert param_checksum(a) == param_checksum(b)

    def test_rejects_short_dims(self):
        with pytest.raises(ValueError):
            nn.DenseNet.create((4,), np.random.default_rng(0))

    def test_rejects_mismatched_layer_chain(self):
        l1 = nn.Layer(w=np.zeros((2, 3)), b=np.zeros(3), activation="relu")
        l2 = nn.Layer(w=np.zeros((4, 1)), b=np.zeros(1), activation="linear")
        with pytest.raises(nn.ShapeError):
            nn.DenseNet([l1, l2])

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            nn.Layer(w=np.zeros((2, 2)), b=np.zeros(2), activation="gelu")


class TestFlatParams:
    def test_round_trip(self):
        rng = np.random.default_rng(51)
        net = nn.DenseNet.create((3, 5, 2), rng)
        flat = net.flat_params()
        assert flat.size == net.n_params
        other = nn.DenseNet.create((3, 5, 2), np.random.default_rng(52))
        other.set_flat_params(flat)
        assert param_checksum(other) == param_checksum(net)

    def test_every_layer_array_is_a_view_of_params(self):
        net = nn.DenseNet.create((3, 5, 4, 2), np.random.default_rng(54))
        clone, wide = net.copy(), float64_copy(net)
        for built in (net, clone, wide):
            assert_params_layout(built)
        assert not np.shares_memory(clone.params, net.params)
        assert wide.params.dtype == np.float64

    def test_a_net_copies_the_arrays_it_is_given(self):
        layers = [
            nn.Layer(w=np.ones((2, 3)), b=np.zeros(3), activation="relu"),
            nn.Layer(w=np.ones((3, 1)), b=np.zeros(1), activation="linear"),
        ]
        net = nn.DenseNet(layers)
        assert_params_layout(net)
        for given in layers:
            assert not np.shares_memory(given.w, net.params)
            assert not np.shares_memory(given.b, net.params)
        layers[0].w += 1.0
        assert np.all(net.layers[0].w == 1.0)

    def test_copy_is_deep(self):
        rng = np.random.default_rng(53)
        net = nn.DenseNet.create((2, 3), rng)
        clone = net.copy()
        clone.layers[0].w += 1.0
        assert param_checksum(clone) != param_checksum(net)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_deepcopy_and_pickle_rebuild_the_views(self, how):
        net = nn.DenseNet.create((3, 5, 2), np.random.default_rng(55))
        clone = (copy.deepcopy(net) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(net)))
        assert_params_layout(clone)
        assert param_checksum(clone) == param_checksum(net)
        x = np.random.default_rng(56).normal(size=(4, 3)).astype(net.dtype)
        before = nn.forward(net, x)[0].copy()
        clone.params[...] = 0.0
        assert np.all(nn.forward(clone, x)[0] == 0.0)
        assert np.array_equal(nn.forward(net, x)[0], before)


class TestEmaTracker:
    def test_decay_zero_tracks_exactly(self):
        rng = np.random.default_rng(61)
        net = nn.DenseNet.create((2, 3), rng)
        tracker = nn.EmaTracker(net, 0.0)
        net.layers[0].w += 0.5
        tracker.update(net)
        avg = tracker.averaged_net(net)
        assert param_checksum(avg) == param_checksum(net)

    def test_convex_combination(self):
        net = nn.DenseNet(
            [nn.Layer(w=np.array([[0.0]]), b=np.array([0.0]), activation="linear")]
        )
        tracker = nn.EmaTracker(net, 0.9)
        net.layers[0].w[0, 0] = 1.0
        tracker.update(net)
        avg = tracker.averaged_net(net)
        assert avg.layers[0].w[0, 0] == pytest.approx(0.1, rel=1e-12)

    @given(dims=net_shapes, decay=st.sampled_from([0.0, 0.5, 0.99, 0.999]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_array_expression_bit_for_bit(self, dims, decay, seed):
        rng = np.random.default_rng(seed)
        net = nn.DenseNet.create(dims, rng)
        tracker = nn.EmaTracker(net, decay)
        avg = net.flat_params()
        for _ in range(5):
            net.set_flat_params(net.flat_params() + rng.normal(size=net.n_params))
            tracker.update(net)
            reference_ema_update(avg, net, decay)
        assert same_bytes(tracker.averaged_net(net).flat_params(), avg)

    def test_rejects_bad_decay(self):
        net = nn.DenseNet.create((2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.EmaTracker(net, 1.0)


class TestDtype:
    def test_create_stores_the_float64_draws_as_float32(self):
        net = nn.DenseNet.create((4, 6, 3), np.random.default_rng(71))
        rng = np.random.default_rng(71)
        for layer, (fan_in, fan_out) in zip(net.layers, ((4, 6), (6, 3))):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            drawn = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            assert layer.w.dtype == layer.b.dtype == nn.PARAM_DTYPE == np.float32
            assert same_bytes(layer.w, drawn.astype(np.float32))
        assert net.dtype == np.float32

    def test_a_net_holds_one_float_dtype(self):
        with pytest.raises(TypeError):
            nn.Layer(w=np.zeros((2, 2), np.float32), b=np.zeros(2), activation="relu")
        with pytest.raises(TypeError):
            nn.Layer(w=np.zeros((2, 2), int), b=np.zeros(2, int), activation="relu")
        mixed = [
            nn.Layer(w=np.zeros((2, 2), np.float32), b=np.zeros(2, np.float32),
                     activation="relu"),
            nn.Layer(w=np.zeros((2, 1)), b=np.zeros(1), activation="linear"),
        ]
        with pytest.raises(TypeError):
            nn.DenseNet(mixed)

    @pytest.mark.parametrize("activations", itertools.product(nn.ACTIVATIONS, repeat=2),
                             ids="-".join)
    def test_float32_net_keeps_every_array_float32(self, activations):
        # inputs and upstream gradients arrive in float64, as the channel
        # and the losses' callers give them; neither may upcast the net
        rng = np.random.default_rng(72)
        net = net_of_layers((5, 7, 4), activations, rng)
        state = nn.AdamState.for_net(net, 1e-3)
        ema = nn.EmaTracker(net, 0.9)
        tape = nn.Tape()
        for _ in range(2):
            out, _ = nn.forward(net, rng.normal(size=(3, 5)), tape)
            _, upstream = nn.softmax_cross_entropy(out, np.array([0, 2, 3]))
            _, bce_grad = nn.sigmoid_bce(out, real=True)
            grads, input_grad = nn.backward(net, tape, upstream.astype(np.float64))
            nn.adam_step(net, grads, state)
            ema.update(net)
            arrays = [
                out, upstream, bce_grad, input_grad, *tape.acts, grads.flat,
                state.m, state.v, state.step, state.candidate, net.params,
                ema.averaged_net(net).flat_params(),
            ]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
