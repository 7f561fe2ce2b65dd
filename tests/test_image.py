import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luml1.errors import InvalidInputError
from luml1.image import LUMA_WEIGHTS, Image, grayscale_backward, to_grayscale

from conftest import rand_array


def one_pixel(r, g, b):
    return np.array([[[r, g, b]]], dtype=float)


class TestImageType:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Image(np.array([[[np.nan, 0.0, 0.0]]]))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(InvalidInputError):
            Image(np.zeros((2, 2, 2)))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError):
            Image(np.zeros((2, 2)))

    def test_data_is_read_only_and_private(self):
        src = np.zeros((2, 2, 3))
        img = Image(src)
        src[0, 0, 0] = 5.0  # mutating the source must not leak in
        assert img.data[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 1.0

    def test_read_only_float64_data_is_kept_uncopied(self):
        # gen_clean's images are views of one read-only block, so dropping them gives the block back whole
        block = np.zeros((2, 4, 4, 3))
        block.flags.writeable = False
        assert all(Image(view).data is view for view in block)
        assert Image(block[0].astype(np.float32)).data.dtype == np.float64  # any other array is copied
        assert not np.shares_memory(Image(block[:, 0]).data, block)


class TestLuminanceWeights:
    def test_defaults_are_the_standard_constants(self):
        assert LUMA_WEIGHTS.tolist() == [0.2989, 0.5870, 0.1140]

    def test_weights_are_read_only(self):
        with pytest.raises(ValueError):
            LUMA_WEIGHTS[0] = 0.5


class TestToGrayscale:
    def test_white_pixel_sums_weights(self):
        out = to_grayscale(one_pixel(1.0, 1.0, 1.0))
        assert abs(out[0, 0, 0] - 0.9999) < 1e-12

    def test_black_pixel(self):
        assert to_grayscale(one_pixel(0.0, 0.0, 0.0))[0, 0, 0] == 0.0

    def test_pure_green_gives_green_weight(self):
        out = to_grayscale(one_pixel(0.0, 1.0, 0.0))
        assert abs(out[0, 0, 0] - 0.5870) < 1e-12

    def test_grayscale_input_rejected(self):
        with pytest.raises(InvalidInputError):
            to_grayscale(rand_array(3, c=1))
        for shape in [(2, 8, 8, 1), (7, 3), (3,)]:  # a grayscale batch, a row of pixels, one pixel
            with pytest.raises(InvalidInputError):
                to_grayscale(np.zeros(shape))

    def test_batch_equals_each_item(self):
        x = np.stack([rand_array(seed, 9, 7) for seed in range(4)])
        out = to_grayscale(x)
        assert out.shape == (4, 9, 7, 1)
        for item in range(4):
            assert np.array_equal(out[item], to_grayscale(x[item]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, seed, a, b):
        x = rand_array(seed, 6, 6, tag=1)
        y = rand_array(seed, 6, 6, tag=2)
        mixed = to_grayscale(a * x + b * y)
        separate = a * to_grayscale(x) + b * to_grayscale(y)
        assert np.max(np.abs(mixed - separate)) < 1e-12


class TestGrayscaleBackward:
    def test_unit_gradient_returns_weights(self):
        grad = np.ones((1, 1, 1))
        out = grayscale_backward(grad)
        assert np.allclose(out[0, 0], [0.2989, 0.5870, 0.1140], atol=1e-15)

    def test_zero_gradient(self):
        out = grayscale_backward(np.zeros((3, 4, 1)))
        assert np.all(out == 0.0)

    def test_scaling(self):
        out = grayscale_backward(2.0 * np.ones((1, 1, 1)))
        assert np.allclose(out[0, 0], [0.5978, 1.1740, 0.2280], atol=1e-12)

    def test_three_channel_input_rejected(self):
        with pytest.raises(InvalidInputError):
            grayscale_backward(rand_array(5))
        with pytest.raises(InvalidInputError):
            grayscale_backward(np.ones((4, 4)))
        for shape in [(2, 8, 8, 3), (7, 1)]:  # a three-channel batch, a row of pixels
            with pytest.raises(InvalidInputError):
                grayscale_backward(np.ones(shape))

    def test_batch_equals_each_item(self):
        u = np.stack([rand_array(seed, 9, 7, c=1) for seed in range(4)])
        out = grayscale_backward(u)
        assert out.shape == (4, 9, 7, 3)
        for item in range(4):
            assert np.array_equal(out[item], grayscale_backward(u[item]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_is_exact_adjoint(self, seed):
        x = rand_array(seed, 7, 5, tag=3)
        u = rand_array(seed, 7, 5, c=1, tag=4)
        lhs = float(np.sum(to_grayscale(x) * u))
        rhs = float(np.sum(x * grayscale_backward(u)))
        assert abs(lhs - rhs) < 1e-9

