import numpy as np
import pytest

from luml1.errors import InvalidInputError
from luml1.gradcheck import check_loss_gradient
from luml1.losses import (
    LossSpec,
    eval_loss,
    l1_loss,
    l2_loss,
    loss_token,
    luminance_l1_loss,
    luminance_term,
    parse_loss,
)
from luml1.rng import stream

from conftest import rand_pair


def one_pixel(r, g, b):
    return np.array([[[r, g, b]]], dtype=float)


class TestL1:
    def test_identical_inputs(self):
        a, _ = rand_pair(1)
        out = l1_loss(a, a)
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_single_element(self):
        out = l1_loss(np.array([[[0.5]]]), np.array([[[0.2]]]))
        assert abs(out.value - 0.3) < 1e-15
        assert out.grad[0, 0, 0] == 1.0

    def test_gradient_matches_finite_differences(self):
        result = check_loss_gradient(LossSpec("l1"), seed=5, pairs=3)
        assert result.ok, result.line()

    def test_shape_mismatch(self):
        a, _ = rand_pair(1)
        with pytest.raises(InvalidInputError):
            l1_loss(a, np.zeros((2, 2, 3)))


class TestL2:
    def test_single_element(self):
        out = l2_loss(np.array([[[0.5]]]), np.array([[[0.2]]]))
        assert abs(out.value - 0.09) < 1e-15
        assert abs(out.grad[0, 0, 0] - 0.6) < 1e-15

    def test_identical_inputs(self):
        a, _ = rand_pair(2)
        out = l2_loss(a, a)
        assert out.value == 0.0 and np.all(out.grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        result = check_loss_gradient(LossSpec("l2"), seed=5, pairs=3, tolerance=1e-6)
        assert result.ok, result.line()


class TestLuminanceTerm:
    def test_hand_value_single_pixel(self):
        out = luminance_term(one_pixel(0.5, 0.3, 0.1), one_pixel(0.1, 0.3, 0.5))
        assert abs(out.value - 0.07396) < 1e-12

    def test_metamer_with_bit_identical_luminance_is_exactly_null(self):
        # pure red and pure green whose single weighted products round to the same double
        pred = one_pixel(0.5 * 0.5870 / 0.2989, 0.0, 0.0)
        target = one_pixel(0.0, 0.5, 0.0)
        out = luminance_term(pred, target)
        assert out.value == 0.0
        assert np.all(out.grad == 0.0)

    def test_metamer_perturbation_changes_value_negligibly(self):
        # perturb inside the projection's null space; float rounding only
        rng = stream(3, 77)
        pred = rng.random((6, 6, 3))
        w = np.array([0.2989, 0.5870, 0.1140])
        n1 = np.array([w[1], -w[0], 0.0])
        n2 = np.array([0.0, w[2], -w[1]])
        bump = (
            rng.uniform(-0.1, 0.1, size=(6, 6, 1)) * n1
            + rng.uniform(-0.1, 0.1, size=(6, 6, 1)) * n2
        )
        out = luminance_term(pred + bump, pred)
        assert out.value < 1e-12

    def test_gradient_matches_finite_differences(self):
        result = check_loss_gradient(None, seed=5, pairs=3)
        assert result.ok, result.line()

    def test_single_channel_rejected(self):
        g = np.zeros((4, 4, 1))
        with pytest.raises(InvalidInputError):
            luminance_term(g, g)


class TestCombinedLoss:
    def test_lambda_zero_is_bit_identical_to_pixel_base(self):
        pred, target = rand_pair(4)
        combined = luminance_l1_loss(pred, target, LossSpec("luml1", lam=0.0))
        base = l1_loss(pred, target)
        assert combined.value == base.value
        assert np.array_equal(combined.grad, base.grad)

    def test_hand_value_single_pixel(self):
        out = luminance_l1_loss(one_pixel(1, 0, 0), one_pixel(0, 0, 0), LossSpec("luml1", lam=1.0))
        assert abs(out.value - (1.0 / 3.0 + 0.2989)) < 1e-12

    def test_identical_inputs(self):
        a, _ = rand_pair(5)
        out = luminance_l1_loss(a, a, LossSpec("luml1"))
        assert out.value == 0.0 and np.all(out.grad == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_additivity(self, lam):
        pred, target = rand_pair(6)
        spec = LossSpec("luml1", lam=lam)
        combined = luminance_l1_loss(pred, target, spec)
        expected = l1_loss(pred, target).value + lam * luminance_term(pred, target).value
        assert abs(combined.value - expected) < 1e-12

    def test_l2_pixel_base(self):
        pred, target = rand_pair(7)
        spec = LossSpec("luml1", lam=0.5, pixel_base="l2")
        combined = luminance_l1_loss(pred, target, spec)
        expected = l2_loss(pred, target).value + 0.5 * luminance_term(pred, target).value
        assert abs(combined.value - expected) < 1e-12

    def test_wrong_kind_rejected(self):
        pred, target = rand_pair(8)
        with pytest.raises(InvalidInputError):
            luminance_l1_loss(pred, target, LossSpec("l1"))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_gradient_matches_finite_differences(self, lam):
        result = check_loss_gradient(LossSpec("luml1", lam=lam), seed=5, pairs=3)
        assert result.ok, result.line()


class TestLossProperties:
    KINDS = [LossSpec("l1"), LossSpec("l2"), LossSpec("luml1", lam=1.0)]

    @pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.label())
    def test_value_symmetry(self, spec):
        for seed in range(100):
            pred, target = rand_pair(seed, 4, 4)
            assert eval_loss(spec, pred, target).value == eval_loss(spec, target, pred).value

    def test_l1_homogeneity(self):
        for seed in range(100):
            pred, target = rand_pair(seed, 4, 4)
            k = 0.25 + (seed % 7)
            scaled = l1_loss(k * pred, k * target).value
            assert abs(scaled - k * l1_loss(pred, target).value) < 1e-12 * max(1.0, k)

    def test_l2_scales_quadratically(self):
        for seed in range(100):
            pred, target = rand_pair(seed, 4, 4)
            k = 0.25 + (seed % 7)
            scaled = l2_loss(k * pred, k * target).value
            assert abs(scaled - k * k * l2_loss(pred, target).value) < 1e-12 * max(1.0, k * k)

    def test_values_nonnegative(self):
        for spec in self.KINDS:
            pred, target = rand_pair(200, 4, 4)
            assert eval_loss(spec, pred, target).value >= 0.0


class TestEvalLossDispatch:
    def test_dispatch_matches_direct_calls(self):
        pred, target = rand_pair(9)
        assert eval_loss(LossSpec("l1"), pred, target).value == l1_loss(pred, target).value
        assert eval_loss(LossSpec("l2"), pred, target).value == l2_loss(pred, target).value
        spec = LossSpec("luml1", lam=1.0)
        assert eval_loss(spec, pred, target).value == luminance_l1_loss(pred, target, spec).value

    def test_unknown_kind_rejected_at_spec(self):
        with pytest.raises(InvalidInputError):
            LossSpec("huber")

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            LossSpec("luml1", lam=-1.0)
        for lam in (float("inf"), float("nan")):
            with pytest.raises(InvalidInputError):
                LossSpec("luml1", lam=lam)

    @pytest.mark.parametrize("kwargs", [dict(kind="l2", pixel_base="l2"), dict(kind="l1", lam=0.5)])
    def test_plain_loss_rejects_a_lam_or_pixel_base(self, kwargs):
        # an l1 or l2 spec with either would share its label with the default spec
        with pytest.raises(InvalidInputError, match="takes no lam or pixel_base"):
            LossSpec(**kwargs)


class TestLossTokens:
    SPECS = [LossSpec("l1"), LossSpec("l2"), LossSpec("luml1"), LossSpec("luml1", 0.5),
             LossSpec("luml1", pixel_base="l2"), LossSpec("luml1", 1.0000001, "l2")]

    @pytest.mark.parametrize("default", [LossSpec("luml1"), LossSpec("luml1", 0.5, "l2")])
    def test_token_reads_back_as_its_spec(self, default):
        for spec in self.SPECS:
            assert parse_loss(loss_token(spec, default), default) == spec

    def test_shortest_token(self):
        default = LossSpec("luml1", 0.5, "l2")
        assert loss_token(LossSpec("l2"), default) == "l2"
        assert loss_token(default, default) == "luml1"
        assert loss_token(LossSpec("luml1", 2.0, "l2"), default) == "luml1:2"
        assert loss_token(LossSpec("luml1"), default) == "luml1:1:l1"
