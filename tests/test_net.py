import tracemalloc

import numpy as np
import pytest

import luml1.net

from luml1.checkpoint import checkpoint_bytes, parse_checkpoint
from luml1.errors import InvalidInputError, NumericalError
from luml1.gradcheck import adjoint_error, check_conv_gradients, check_net_gradients
from luml1.losses import l2_loss
from luml1.net import (
    ConvLayer,
    TinyNet,
    Workspace,
    build_tinynet,
    conv_backward,
    conv_forward,
    net_backward,
    net_forward,
    relu,
)
from luml1.rng import stream

from conftest import rand_array
from oracles import loop_conv2d, loop_conv2d_input_grad, straight_line_net, straight_line_net_grads


class TestConvForward:
    def test_identity_kernel(self):
        kernels = np.zeros((2, 2, 3, 3))
        kernels[0, 0, 1, 1] = 1.0
        kernels[1, 1, 1, 1] = 1.0
        layer = ConvLayer(kernels, np.zeros(2))
        x = stream(1, 20).random((2, 2, 6, 6))
        out, _ = conv_forward(x, layer)
        assert np.array_equal(out, x)

    def test_zero_kernels_give_constant_bias(self):
        layer = ConvLayer(np.zeros((2, 1, 3, 3)), np.array([0.5, -1.0]))
        out, _ = conv_forward(stream(2, 20).random((1, 1, 4, 4)), layer)
        assert np.all(out[:, 0] == 0.5)
        assert np.all(out[:, 1] == -1.0)

    def test_matches_loop_oracle(self):
        rng = stream(3, 21)
        layer = ConvLayer(rng.normal(size=(1, 1, 3, 3)), rng.normal(size=1))
        x = rng.random((1, 1, 5, 5))
        out, _ = conv_forward(x, layer)
        assert np.max(np.abs(out[0] - loop_conv2d(x[0], layer.kernels, layer.bias))) < 1e-12

    def test_matches_loop_oracle_multichannel(self):
        rng = stream(4, 21)
        layer = ConvLayer(rng.normal(size=(4, 3, 5, 5)), rng.normal(size=4))
        x = rng.random((2, 3, 7, 6))
        out, _ = conv_forward(x, layer)
        for item in range(2):
            assert np.max(np.abs(out[item] - loop_conv2d(x[item], layer.kernels, layer.bias))) < 1e-12

    def test_channel_mismatch_rejected(self):
        layer = ConvLayer(np.zeros((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(InvalidInputError):
            conv_forward(np.zeros((1, 3, 4, 4)), layer)

    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvLayer(np.zeros((1, 1, 2, 2)), np.zeros(1))


class TestConvBackward:
    def test_zero_gradient_gives_zero(self):
        rng = stream(5, 22)
        layer = ConvLayer(rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2))
        x = rng.random((2, 3, 5, 5))
        out, cache = conv_forward(x, layer)
        gx, gk, gb = conv_backward(np.zeros_like(out), cache)
        assert np.all(gx == 0.0) and np.all(gk == 0.0) and np.all(gb == 0.0)

    def test_finite_difference_agreement(self):
        result = check_conv_gradients(seed=6)
        assert result.ok, result.line()

    def test_adjoint_identity(self):
        assert adjoint_error(seed=7) < 1e-9

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_input_gradient_matches_loop_oracle(self, k):
        rng = stream(49, 22)
        layer = ConvLayer(rng.normal(size=(4, 3, k, k)), rng.normal(size=4))
        _, cache = conv_forward(rng.random((2, 3, 7, 5)), layer)
        grad = rng.normal(size=(2, 4, 7, 5))
        gx, _, _ = conv_backward(grad, cache)
        for item in range(2):
            assert np.max(np.abs(gx[item] - loop_conv2d_input_grad(grad[item], layer.kernels))) < 1e-12

    def test_shape_mismatch_rejected(self):
        rng = stream(8, 22)
        layer = ConvLayer(rng.normal(size=(2, 1, 3, 3)), np.zeros(2))
        _, cache = conv_forward(rng.random((1, 1, 4, 4)), layer)
        with pytest.raises(InvalidInputError):
            conv_backward(np.zeros((1, 2, 5, 5)), cache)


ZERO_PIXEL = np.zeros((1, 1, 1, 3))


def relu_probe(bias):
    """A two-layer net that maps ZERO_PIXEL to -relu(bias).

    Both layers are identity convolutions, so layer 0's bias is the ReLU
    pre-activation and the output is the input minus relu of it.
    """
    eye = np.zeros((3, 3, 3, 3))
    eye[range(3), range(3), 1, 1] = 1.0
    return TinyNet([ConvLayer(eye, np.asarray(bias, dtype=float)), ConvLayer(eye, np.zeros(3))])


class TestRelu:
    def test_forward_values(self):
        out, _ = net_forward(relu_probe([-1.0, 0.0, 2.0]), ZERO_PIXEL)
        assert (-out)[0, 0, 0].tolist() == [0.0, 0.0, 2.0]

    def test_backward_masks_negatives_and_zero(self):
        net = relu_probe([-1.0, 0.0, 2.0])
        out, cache = net_forward(net, ZERO_PIXEL)
        (_, grad_bias0), _ = net.split(net_backward(net, cache, np.ones_like(out)))
        assert grad_bias0.tolist() == [0.0, 0.0, -1.0]  # d(-relu(pre)) / d pre

    @pytest.mark.parametrize("shape", [(1,), (9,), (17,), (16, 32, 32)])
    def test_relu_is_bit_equal_to_where(self, shape):
        # numpy's fmax keeps -0.0 in its scalar tail (lengths 1, 9, 17), so only fmax plus +0.0 passes
        specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1.5, 2.5, -5e-324, 5e-324])
        pre = stream(52, 23).normal(size=shape).ravel()
        pre[:: max(1, pre.size // 40)] = -0.0
        pre[: min(pre.size, specials.size)] = specials[: pre.size]
        pre[-1] = -0.0
        pre = pre.reshape(shape)
        expected = np.where(pre > 0, pre, 0.0)
        out = relu(pre, np.full(shape, 7.0))
        assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    def test_finite_difference_away_from_zero(self):
        bias = np.array([-0.5, 0.8, 1.2])
        net = relu_probe(bias)
        out, cache = net_forward(net, ZERO_PIXEL)
        (_, grad_bias0), _ = net.split(net_backward(net, cache, np.ones_like(out)))
        h = 1e-5
        for i in range(3):
            step = np.eye(3)[i] * h
            fp = net_forward(relu_probe(bias + step), ZERO_PIXEL)[0].sum()
            fm = net_forward(relu_probe(bias - step), ZERO_PIXEL)[0].sum()
            assert abs((fp - fm) / (2 * h) - grad_bias0[i]) < 1e-9


class TestTinyNet:
    def test_zero_net_is_identity_in_residual_mode(self):
        net = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
        img = rand_array(1, 9, 7)[None]
        out, _ = net_forward(net, img)
        assert np.array_equal(out, img)

    def test_matches_straight_line_reimplementation(self):
        net = build_tinynet(33, hidden_channels=6, hidden_depth=1)
        img = rand_array(3, 8, 8)[None]
        out, _ = net_forward(net, img)
        assert np.max(np.abs(out[0] - straight_line_net(net, img[0]))) < 1e-10

    def test_output_is_a_row_major_array(self):
        net = build_tinynet(32, hidden_channels=4, hidden_depth=0)
        out, _ = net_forward(net, rand_array(2, 8, 8)[None])
        assert type(out) is np.ndarray and out.flags.c_contiguous

    def test_forward_is_deterministic(self):
        net = build_tinynet(34, 16, 3)
        img = rand_array(4, 12, 12)[None]
        a, _ = net_forward(net, img)
        b, _ = net_forward(net, img)
        assert np.array_equal(a, b)

    def test_default_depth_and_width(self):
        net = build_tinynet(35, 16, 3)
        assert len(net.layers) == 5
        assert net.layers[0].in_ch == 3 and net.layers[0].out_ch == 16
        assert net.layers[-1].in_ch == 16 and net.layers[-1].out_ch == 3

    def test_final_layer_starts_near_zero(self):
        net = build_tinynet(36, 16, 3)
        assert np.abs(net.layers[-1].kernels).max() < 0.01
        assert np.abs(net.layers[0].kernels).max() > 0.01

    def test_wrong_channel_chain_rejected(self):
        with pytest.raises(InvalidInputError):
            TinyNet(
                [
                    ConvLayer(np.zeros((4, 3, 3, 3)), np.zeros(4)),
                    ConvLayer(np.zeros((3, 5, 3, 3)), np.zeros(3)),
                ]
            )

    def test_grayscale_input_rejected(self):
        net = build_tinynet(37, 16, 3)
        with pytest.raises(InvalidInputError):
            net_forward(net, rand_array(5, c=1)[None])


class TestNetBackward:
    def test_end_to_end_finite_differences(self):
        result = check_net_gradients(seed=9)
        assert result.ok and result.checked > 0 and result.excluded == 0, result.line()

    def test_zero_upstream_gradient_gives_zero_tape(self):
        net = build_tinynet(38, hidden_channels=4, hidden_depth=0)
        img = rand_array(6, 6, 6)[None]
        out, cache = net_forward(net, img)
        grad = net_backward(net, cache, np.zeros_like(out))
        assert grad.shape == net.theta.shape and np.all(grad == 0.0)

    def test_l2_at_minimum_gives_zero_tape(self):
        net = build_tinynet(39, hidden_channels=4, hidden_depth=0)
        img = rand_array(7, 6, 6)[None]
        out, cache = net_forward(net, img)
        grad = l2_loss(out, out).grad  # pred == target -> zero gradient
        for g in net_backward(net, cache, grad):
            assert np.all(g == 0.0)

    def test_stale_cache_rejected(self):
        net_a = build_tinynet(40, hidden_channels=4, hidden_depth=0)
        net_b = build_tinynet(40, hidden_channels=4, hidden_depth=1)
        img = rand_array(8, 6, 6)[None]
        out, cache = net_forward(net_a, img)
        with pytest.raises(RuntimeError):
            net_backward(net_b, cache, out)

    def test_cache_of_another_net_with_the_same_shapes_rejected(self):
        net_a = build_tinynet(42, hidden_channels=4, hidden_depth=0)
        net_b = build_tinynet(43, hidden_channels=4, hidden_depth=0)
        out, cache = net_forward(net_a, rand_array(10, 6, 6)[None])
        with pytest.raises(RuntimeError):
            net_backward(net_b, cache, out)

    def test_gradient_of_another_size_rejected(self):
        net = build_tinynet(44, hidden_channels=4, hidden_depth=0)
        _, cache = net_forward(net, rand_array(11, 6, 6)[None])
        with pytest.raises(RuntimeError):
            net_backward(net, cache, rand_array(12, 5, 6)[None])

    def test_tape_shapes_mirror_parameters(self):
        net = build_tinynet(41, hidden_channels=4, hidden_depth=1)
        img = rand_array(9, 6, 6)[None]
        out, cache = net_forward(net, img)
        grad = net_backward(net, cache, out)
        assert grad.shape == net.theta.shape and grad.dtype == net.theta.dtype
        for (gk, gb), layer in zip(net.split(grad), net.layers, strict=True):
            assert gk.shape == layer.kernels.shape and gb.shape == layer.bias.shape


class TestBatch:
    def test_batch_gradients_are_the_item_order_sum_of_loop_oracle_gradients(self):
        net = build_tinynet(54, hidden_channels=4, hidden_depth=1)
        imgs = np.stack([rand_array(30 + item, 6, 7) for item in range(3)])
        grad = np.stack([rand_array(40 + item, 6, 7) for item in range(3)])
        out, ws = net_forward(net, imgs)
        per_item = [straight_line_net_grads(net, imgs[item], grad[item]) for item in range(3)]
        want = np.concatenate([((g0 + g1) + g2).ravel() for g0, g1, g2 in zip(*per_item)])
        assert np.max(np.abs(net_backward(net, ws, grad) - want)) < 1e-12

    def test_batch_forward_equals_each_item_alone_bit_for_bit(self):
        net = build_tinynet(55, 16, 3)
        net.layers[-1].kernels *= 300.0  # a large noise estimate, so any mixing of items would show
        imgs = np.stack([rand_array(50 + item, 9, 11) for item in range(3)])
        out, _ = net_forward(net, imgs)
        for item in range(3):
            alone, _ = net_forward(net, imgs[item : item + 1])
            assert alone[0].tobytes() == out[item].tobytes()


def float32_net(net: TinyNet) -> TinyNet:
    return TinyNet([ConvLayer(lay.kernels.astype(np.float32), lay.bias.astype(np.float32)) for lay in net.layers])


class TestDtype:
    """A net computes in its parameters' dtype: float32 if they all are, else float64."""

    @staticmethod
    def buffers(ws) -> set:
        return {a.dtype for a in [*(m.buf for m in ws.maps), ws.cols, *(g.buf for g in ws.grads)]}

    def test_float64_net_runs_a_float64_workspace(self):
        net = build_tinynet(56, hidden_channels=4, hidden_depth=0)
        out, ws = net_forward(net, rand_array(60, 8, 8)[None].astype(np.float32))
        grad = net_backward(net, ws, np.ones_like(out))
        assert self.buffers(ws) == {np.dtype(np.float64)}
        assert out.dtype == grad.dtype == np.float64

    def test_float32_net_runs_a_float32_workspace_and_keeps_a_float64_input(self):
        net = float32_net(build_tinynet(57, hidden_channels=4, hidden_depth=0))
        img = rand_array(61, 8, 8)[None]
        out, ws = net_forward(net, img)
        grad = net_backward(net, ws, np.ones_like(out))
        assert self.buffers(ws) == {np.dtype(np.float32)}
        assert out.dtype == np.float64  # np.result_type(input, net)
        assert grad.dtype == np.float32
        out32, _ = net_forward(net, img.astype(np.float32))
        assert out32.dtype == np.float32
        assert np.max(np.abs(out32 - straight_line_net(net, img[0]))) < 1e-5

    def test_a_layer_is_float32_only_if_all_its_parameters_are(self):
        k32, b32 = np.zeros((3, 3, 3, 3), np.float32), np.zeros(3, np.float32)
        narrow = ConvLayer(k32, b32)
        assert narrow.kernels.dtype == narrow.bias.dtype == np.float32
        for layer in (ConvLayer(k32, np.zeros(3)), ConvLayer(np.zeros((3, 3, 3, 3), int), b32)):
            assert layer.kernels.dtype == layer.bias.dtype == np.float64

    def test_mixed_dtypes_rejected(self):
        wide = ConvLayer(np.zeros((4, 3, 3, 3)), np.zeros(4))
        narrow = ConvLayer(np.zeros((3, 4, 3, 3), np.float32), np.zeros(3, np.float32))
        with pytest.raises(InvalidInputError, match="dtype"):
            TinyNet([wide, narrow])

    def test_float32_batch_forward_equals_each_item_alone_bit_for_bit(self):
        net = float32_net(build_tinynet(58, 16, 3))
        net.layers[-1].kernels *= 300.0
        imgs = np.stack([rand_array(70 + item, 9, 11) for item in range(3)]).astype(np.float32)
        out, _ = net_forward(net, imgs)
        for item in range(3):
            alone, _ = net_forward(net, imgs[item : item + 1])
            assert alone[0].tobytes() == out[item].tobytes()


class TestWorkspace:
    def test_reused_workspace_matches_a_fresh_one_and_the_oracle(self):
        net = build_tinynet(45, hidden_channels=6, hidden_depth=1)
        img = rand_array(13, 8, 8)[None]
        _, ws = net_forward(net, 40.0 * rand_array(14, 8, 8)[None])  # leaves other values in every buffer
        reused, same_ws = net_forward(net, img, ws)
        fresh, _ = net_forward(net, img)
        assert same_ws is ws
        assert np.array_equal(reused, fresh)
        assert np.max(np.abs(reused[0] - straight_line_net(net, img[0]))) < 1e-10

    def test_another_size_gets_a_fresh_workspace_and_another_net_takes_this_one(self):
        net = build_tinynet(46, hidden_channels=4, hidden_depth=0)
        out, ws = net_forward(net, rand_array(15, 8, 8)[None])
        _, other_size = net_forward(net, rand_array(16, 6, 9)[None], ws)
        _, other_batch = net_forward(net, np.stack([rand_array(18, 8, 8)] * 2), ws)
        _, other_net = net_forward(build_tinynet(47, hidden_channels=4, hidden_depth=0), rand_array(17, 8, 8)[None], ws)
        assert other_size is not ws and other_size.shape == (1, 6, 9)
        assert other_batch is not ws and other_batch.shape == (2, 8, 8)
        assert other_net is ws  # of the same kernel shapes and dtype: its pass now fills the maps
        with pytest.raises(RuntimeError, match="does not match"):
            net_backward(net, ws, np.ones_like(out))

    def test_layer_input_gradient_can_be_skipped(self):
        rng = stream(48, 22)
        layer = ConvLayer(rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2))
        _, cache = conv_forward(rng.random((2, 3, 5, 5)), layer)
        grad = rng.random((2, 2, 5, 5))
        gx, gk, gb = conv_backward(grad, cache)
        skipped, gk2, gb2 = conv_backward(grad, cache, input_grad=False)
        assert gx.shape == (2, 3, 5, 5) and skipped is None
        assert np.array_equal(gk, gk2) and np.array_equal(gb, gb2)

    def test_backward_leaves_forward_buffers_and_repeats_exactly(self):
        net = build_tinynet(50, hidden_channels=6, hidden_depth=2)
        imgs, grad = np.stack([rand_array(18, 9, 7), rand_array(26, 9, 7)]), np.stack([rand_array(19, 9, 7), rand_array(27, 9, 7)])
        _, ws = net_forward(net, 40.0 * imgs[::-1])
        net_backward(net, ws, 3.0 * grad)  # leaves other values in the gradient buffers
        net_forward(net, imgs, ws)
        written = [m.buf.copy() for m in ws.maps]
        first = net_backward(net, ws, grad).copy()
        second = net_backward(net, ws, grad)
        _, fresh_ws = net_forward(net, imgs)
        assert len(fresh_ws.grads) == len(net.layers) + 1  # built with the maps, before any backward pass
        fresh = net_backward(net, fresh_ws, grad)
        assert len({id(g.buf.base) for g in ws.grads}) == 1  # every layer's gradients share one buffer
        for m, before in zip(ws.maps, written):
            assert np.array_equal(m.buf, before)
        assert np.array_equal(first, second) and np.array_equal(first, fresh)

    def test_second_backward_allocates_no_im2col_sized_array(self):
        net = build_tinynet(51, 16, 3)
        img, grad = rand_array(22, 32, 32)[None], rand_array(23, 32, 32)[None]
        _, ws = net_forward(net, img)
        net_backward(net, ws, grad)
        tracemalloc.start()
        try:
            net_backward(net, ws, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        im2col = 16 * 3 * 3 * 32 * 32 * 8  # a hidden layer's (144, H*W) matrix
        assert peak < im2col, peak

    def test_second_backward_allocates_no_activation_sized_array_per_layer(self):
        # the ReLU mask multiplies in place and the input gradient lands in the workspace
        net = build_tinynet(53, 16, 3)
        img, grad = rand_array(24, 32, 32)[None], rand_array(25, 32, 32)[None]
        _, ws = net_forward(net, img)
        net_backward(net, ws, grad)
        tracemalloc.start()
        try:
            net_backward(net, ws, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * 32 * 32 * 8, peak  # two (16, 32, 32) float64 arrays

    def test_backward_reuses_the_workspace_gradient_vector(self):
        net = build_tinynet(63, hidden_channels=4, hidden_depth=0)
        img, grad = rand_array(30, 6, 7)[None], rand_array(31, 6, 7)[None]
        _, ws = net_forward(net, img)
        first = net_backward(net, ws, grad)
        assert net_backward(net, ws, grad) is first and first.shape == net.theta.shape

    def test_second_pass_builds_no_strided_view(self, monkeypatch):
        made = []
        as_strided = luml1.net.as_strided
        monkeypatch.setattr(luml1.net, "as_strided", lambda *a, **kw: made.append(1) or as_strided(*a, **kw))
        net = build_tinynet(59, hidden_channels=4, hidden_depth=1)
        img, grad = rand_array(28, 6, 7)[None], rand_array(29, 6, 7)[None]
        ws, counts = None, []
        for _ in range(2):
            _, ws = net_forward(net, img, ws)
            net_backward(net, ws, grad)
            counts.append(len(made))
        assert counts[0] > 0 and counts[1] == counts[0], counts


class TestTwoMapWorkspace:
    """A workspace built with backward=False holds every map in one buffer, which each layer overwrites."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_same_bits_as_a_full_workspace(self, depth, width, dtype):
        net = build_tinynet(64 + depth, hidden_channels=width, hidden_depth=depth)
        net = float32_net(net) if dtype == np.float32 else net
        net.layers[-1].kernels *= 300.0  # a large noise estimate, so stale or mixed maps would show
        for b in (1, 4):
            imgs = np.stack([rand_array(80 + item, 9, 11) for item in range(b)]).astype(dtype)
            full, _ = net_forward(net, imgs)
            ws = Workspace(net.layers, b, 9, 11, backward=False)
            net_forward(net, 40.0 * imgs[::-1], ws)  # leaves other values in both maps
            two, same_ws = net_forward(net, imgs, ws)
            assert same_ws is ws and two.dtype == full.dtype
            assert two.tobytes() == full.tobytes()

    @pytest.mark.parametrize("depth", [0, 3, 12])
    def test_maps_are_views_of_one_buffer_at_any_depth(self, depth):
        net = build_tinynet(68, hidden_channels=8, hidden_depth=depth)
        ws = Workspace(net.layers, 2, 6, 7, backward=False)
        bases = [m.buf.base for m in ws.maps]
        assert len({id(base) for base in bases}) == 1
        assert bases[0].nbytes == 2 * 8 * ws.size * 8  # B x max C x size x itemsize

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_output_names_the_first_bad_layer(self, dtype):
        net = build_tinynet(69, hidden_channels=4, hidden_depth=3)
        net = float32_net(net) if dtype == np.float32 else net
        big = float(np.finfo(dtype).max)
        net.layers[1].bias[:] = big**0.7  # finite, but layer 2's sums overflow to +inf
        net.layers[2].kernels[...] = big**0.3
        for layer in net.layers[3:]:  # positive kernels carry the +inf through every ReLU to the output
            np.abs(layer.kernels, out=layer.kernels)
        img = rand_array(90, 8, 8)[None].astype(dtype)
        for ws in (None, Workspace(net.layers, 1, 8, 8, backward=False)):
            with pytest.raises(NumericalError, match="first at layer2$"):
                net_forward(net, img, ws)

    def test_backward_pass_is_rejected(self):
        net = build_tinynet(70, hidden_channels=4, hidden_depth=1)
        img = rand_array(91, 6, 7)[None]
        out, ws = net_forward(net, img, backward=False)
        assert not ws.backward
        with pytest.raises(RuntimeError, match="forward passes only"):
            net_backward(net, ws, np.ones_like(out))
        with pytest.raises(RuntimeError, match="forward passes only"):
            conv_backward(np.ones((1, 4, 6, 7)), ws.work(0))
        assert not ws.grads


class TestParameterVector:
    """A net's parameters are one vector, theta, in checkpoint-payload order; its layers' arrays are views of it."""

    @staticmethod
    def assert_views_of_theta(net: TinyNet):
        for layer in net.layers:
            assert np.shares_memory(layer.kernels, net.theta) and np.shares_memory(layer.bias, net.theta)
        flat = [a.ravel() for lay in net.layers for a in (lay.kernels, lay.bias)]
        assert np.array_equal(np.concatenate(flat), net.theta)

    def test_layers_are_views_of_theta(self):
        net = build_tinynet(60, hidden_channels=4, hidden_depth=1)
        self.assert_views_of_theta(net)
        net.theta[:] = 0.5
        assert all(np.all(lay.kernels == 0.5) and np.all(lay.bias == 0.5) for lay in net.layers)

    def test_layers_of_a_parsed_checkpoint_are_views_of_theta(self):
        net = build_tinynet(61, hidden_channels=4, hidden_depth=1)
        parsed = parse_checkpoint(checkpoint_bytes(net), "net")
        self.assert_views_of_theta(parsed)
        assert parsed.theta.dtype == np.float32 and np.array_equal(parsed.theta, net.theta.astype(np.float32))

    def test_a_non_finite_value_is_named_by_its_parameter(self):
        net = build_tinynet(62, hidden_channels=4, hidden_depth=0)  # kernels 108 + bias 4, kernels 108 + bias 3
        want = ["layer0.kernels"] * 108 + ["layer0.bias"] * 4 + ["layer1.kernels"] * 108 + ["layer1.bias"] * 3
        net.require_finite(net.theta, "no error")
        for offset, name in enumerate(want):
            vec = np.zeros_like(net.theta)
            vec[offset] = np.nan
            with pytest.raises(NumericalError, match=f"^bad {name}$"):
                net.require_finite(vec, "bad")
