import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luml1.errors import InvalidInputError
from luml1.image import to_grayscale
from luml1.metrics import mse, psnr, ssim
from luml1.rng import stream

from conftest import rand_array, rand_pair
from oracles import ssim_bruteforce


class TestMse:
    def test_identical_images(self):
        a = rand_array(1)
        assert mse(a, a) == 0.0

    def test_constant_difference(self):
        a = np.zeros((4, 4, 3))
        b = np.full((4, 4, 3), 0.1)
        assert abs(mse(a, b) - 0.01) < 1e-15

    def test_hand_value(self):
        a = np.array([[[0.0], [0.0]]])
        b = np.array([[[0.3], [0.4]]])
        assert abs(mse(a, b) - 0.125) < 1e-12

    def test_symmetry_exact(self):
        a, b = rand_pair(2)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            mse(rand_array(1, 4, 4), rand_array(1, 5, 5))
        # a batch or a 2-D array is not one (H, W, C) image: psnr would score the pooled MSE
        rng = stream(7, 71)
        for shape in ((16, 16, 16, 3), (16, 16)):
            a, b = rng.random(shape), rng.random(shape)
            for metric in (mse, psnr):
                with pytest.raises(InvalidInputError, match=r"\(H, W, C\)"):
                    metric(a, b)


class TestPsnr:
    def test_constant_difference_01_is_20db(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 0.1)
        assert abs(psnr(a, b) - 20.0) < 1e-9

    def test_constant_difference_001_is_40db(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 0.01)
        assert abs(psnr(a, b) - 40.0) < 1e-9

    def test_identical_images_are_infinite(self):
        a = rand_array(3)
        assert psnr(a, a) == math.inf

    def test_monotone_decreasing_in_perturbation(self):
        a = rand_array(4, 10, 10)
        values = []
        for k in range(1, 6):
            b = a + 0.01 * k
            values.append(psnr(a, b))
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSsim:
    def test_identical_images_score_one(self):
        a = rand_array(5, 16, 16)
        assert abs(ssim(a, a) - 1.0) < 1e-12

    def test_constant_pair_scores_one(self):
        a = np.full((12, 12, 1), 0.5)
        b = np.full((12, 12, 1), 0.5)
        assert abs(ssim(a, b) - 1.0) < 1e-12

    def test_matches_bruteforce_single_channel(self):
        for seed in range(3):
            rng = stream(seed, 70)
            a = rng.random((16, 16, 1))
            b = rng.random((16, 16, 1))
            expected = ssim_bruteforce(a[:, :, 0], b[:, :, 0])
            assert abs(ssim(a, b) - expected) < 1e-9

    def test_matches_bruteforce_color(self):
        for seed in range(2):
            a, b = rand_pair(seed, 16, 16)
            expected = ssim_bruteforce(to_grayscale(a)[:, :, 0], to_grayscale(b)[:, :, 0])
            assert abs(ssim(a, b) - expected) < 1e-9

    @pytest.mark.parametrize("h, w, c", [(11, 11, 1), (17, 23, 1), (19, 14, 3)], ids=["one-window", "17x23", "color"])
    def test_separable_window_matches_bruteforce(self, h, w, c):
        a, b = rand_pair(h + w, h, w, c)
        ga, gb = (to_grayscale(a), to_grayscale(b)) if c == 3 else (a, b)
        assert abs(ssim(a, b) - ssim_bruteforce(ga[:, :, 0], gb[:, :, 0])) < 1e-12

    def test_symmetry_exact(self):
        a, b = rand_pair(6, 14, 14)
        assert ssim(a, b) == ssim(b, a)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_bounded(self, seed):
        a, b = rand_pair(seed, 12, 12)
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_image_smaller_than_window_rejected(self):
        with pytest.raises(InvalidInputError):
            ssim(rand_array(1, 8, 8), rand_array(1, 8, 8))
        # a batch or a 2-D array is not one (H, W, C) image: a batch would be sliced as if it were one
        rng = stream(7, 72)
        for shape in ((16, 16, 16, 3), (16, 16)):
            with pytest.raises(InvalidInputError, match=r"\(H, W, C\)"):
                ssim(rng.random(shape), rng.random(shape))
