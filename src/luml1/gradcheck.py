"""Finite-difference verification of every analytic gradient in the package.

Central differences with step 1e-5 are compared per element against the
analytic gradients. Relative error uses a small floor in the denominator,
``|a - f| / max(|a|, |f|, 1e-3)``, so elements whose true gradient is tiny
are judged on an absolute scale instead of blowing up the ratio.

L1-style terms are non-differentiable where a difference crosses zero, so
elements closer than 1e-3 to such a kink are excluded from the check (the
step could land on the other side of the kink).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .image import to_grayscale
from .losses import PIXEL_BASES, LossSpec, eval_loss, luminance_term
from .net import ConvLayer, build_tinynet, conv_backward, conv_forward, layer_outputs, net_backward, net_forward
from .rng import DOMAIN_GRAD_ADJOINT, DOMAIN_GRAD_CONV, DOMAIN_GRAD_LOSS, DOMAIN_GRAD_LUMINANCE, DOMAIN_GRAD_NET, stream

FD_STEP = 1e-5
REL_FLOOR = 1e-3
KINK_DISTANCE = 1e-3
LOSS_PAIRS = 10  # seeded image pairs per loss check


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    checked: int
    excluded: int

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return (
            f"{status} {self.name:<28} max_rel_err {self.max_rel_err:.3e} "
            f"(tol {self.tolerance:g}, {self.checked} checked, {self.excluded} excluded)"
        )


def compare(name: str, tolerance: float, cases) -> CheckResult:
    """Worst relative error over ``cases``, (analytic, fd, keep) triples; ``keep`` indexes the checked elements, ``...`` all."""
    worst, checked, excluded = 0.0, 0, 0
    for analytic, fd, keep in cases:
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
        err = (np.abs(analytic - fd) / denom)[keep]
        checked += err.size
        excluded += analytic.size - err.size
        if err.size:
            worst = max(worst, float(err.max()))
    return CheckResult(name, worst, tolerance, checked, excluded)


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function, one element at a time."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f(x)
        flat[i] = orig - FD_STEP
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def check_loss_gradient(spec: LossSpec | None, seed: int, tolerance: float = 1e-4) -> CheckResult:
    """FD-check one loss over LOSS_PAIRS seeded random 8x8x3 image pairs.

    ``spec`` None checks the bare luminance term (no pixel component).
    Elements within KINK_DISTANCE of an L1 kink are excluded.
    """
    if spec is None:
        name, rng, loss = "luminance_term", stream(seed, DOMAIN_GRAD_LUMINANCE), luminance_term
        pixel_l1, lum_l1 = False, True
    else:
        # stream ids: (1, 16) for l1, (2, 16) for l2, (3, 16 * lam) with a luminance term
        ids = (3, int(spec.lam * 16)) if spec.lam else (PIXEL_BASES.index(spec.pixel_base) + 1, 16)
        name = f"luml1(lam={spec.lam:g})" if spec.lam else spec.label()
        rng, loss = stream(seed, DOMAIN_GRAD_LOSS, *ids), partial(eval_loss, spec)
        pixel_l1, lum_l1 = spec.pixel_base == "l1", spec.lam > 0

    def case():
        pred, target = rng.random((8, 8, 3)), rng.random((8, 8, 3))
        out = loss(pred, target)
        fd = fd_gradient(lambda x: loss(x, target).value, pred.copy())
        kink = np.zeros(pred.shape, dtype=bool)
        if pixel_l1:
            kink |= np.abs(pred - target) < KINK_DISTANCE
        if lum_l1:
            lum = np.abs(to_grayscale(pred) - to_grayscale(target))
            kink |= np.broadcast_to(lum < KINK_DISTANCE, pred.shape)
        return out.grad, fd, ~kink

    return compare(name, tolerance, [case() for _ in range(LOSS_PAIRS)])


def loss_gradient_suite(seed: int) -> list[CheckResult]:
    """The loss-level FD suite: L1, L2, the luminance term, and the combination."""
    results = [check_loss_gradient(LossSpec("l1"), seed), check_loss_gradient(LossSpec("l2"), seed, tolerance=1e-6)]
    results.append(check_loss_gradient(None, seed))
    return results + [check_loss_gradient(LossSpec(lam=lam), seed) for lam in (0.5, 1.0, 2.0)]


def check_conv_gradients(seed: int) -> CheckResult:
    """FD-check conv kernel/bias/input gradients on one small layer."""
    rng = stream(seed, DOMAIN_GRAD_CONV)
    layer = ConvLayer(rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2))
    x = rng.random((1, 3, 5, 5))
    target = rng.random((1, 2, 5, 5))

    def loss_given(kernels, bias, xin):
        lay = ConvLayer(kernels, bias)
        out, _ = conv_forward(xin, lay)
        return float(np.sum((out - target) ** 2))

    out, cache = conv_forward(x, layer)
    gx, gk, gb = conv_backward(2.0 * (out - target), cache)
    fd_k = fd_gradient(lambda k: loss_given(k, layer.bias, x), layer.kernels.copy())
    fd_b = fd_gradient(lambda b: loss_given(layer.kernels, b, x), layer.bias.copy())
    fd_x = fd_gradient(lambda v: loss_given(layer.kernels, layer.bias, v), x.copy())
    return compare("conv_forward/backward", 1e-5, [(gk, fd_k, ...), (gb, fd_b, ...), (gx, fd_x, ...)])


def _kink_margin(net, noisy: np.ndarray, target: np.ndarray) -> float:
    """Smallest distance from zero of any piecewise-linear break point of one (noisy, target) pair's loss.

    Covers the ReLU pre-activations plus the pixel and luminance differences
    at the loss. A 1e-5 parameter step moves any of these by well under
    KINK_DISTANCE, so a margin above it guarantees no FD step crosses a kink.
    """
    out, ws = net_forward(net, noisy[None])
    pre = [float(np.abs(t).min()) for t in layer_outputs(ws, noisy[None])][:-1]
    lum = to_grayscale(out[0]) - to_grayscale(target)
    return min([*pre, float(np.abs(out[0] - target).min()), float(np.abs(lum).min())])


def check_net_gradients(seed: int) -> CheckResult:
    """End-to-end FD check: every parameter of a 2-layer net through the
    combined loss of a batch of two 8x8 inputs (the batch mean train uses).

    The seeded pairs are screened first: the batch is the first two of eight
    drawn (noisy, target) pairs whose ReLU pre-activations and loss
    differences all sit at least KINK_DISTANCE from zero, so no check runs
    across a kink. With fewer than two, every parameter is excluded (the
    report shows the count).
    """
    rng = stream(seed, DOMAIN_GRAD_NET)
    net = build_tinynet(seed, hidden_channels=8, hidden_depth=0)
    spec = LossSpec(lam=1.0)
    draws = [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(8)]
    batch = [pair for pair in draws if _kink_margin(net, *pair) >= KINK_DISTANCE][:2]
    if len(batch) < 2:
        return CheckResult("tinynet end-to-end", 0.0, 1e-4, 0, net.theta.size)
    noisy, target = (np.stack(items) for items in zip(*batch))

    def batch_loss():
        # fd_gradient perturbs net.theta in place; the layers are views of
        # it, so a fresh forward pass sees the perturbation
        out, cache = net_forward(net, noisy)
        result = eval_loss(spec, out, target)
        return result.value, result.grad, cache

    _, grad, cache = batch_loss()
    analytic = net_backward(net, cache, grad)
    fd = fd_gradient(lambda _: batch_loss()[0], net.theta)
    return compare("tinynet end-to-end", 1e-4, [(analytic, fd, ...)])


def adjoint_error(seed: int) -> float:
    """|<conv(x), u> - <x, conv_backward(u)>| for a zero-bias layer."""
    rng = stream(seed, DOMAIN_GRAD_ADJOINT)
    layer = ConvLayer(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
    x = rng.random((1, 2, 6, 6))
    u = rng.random((1, 3, 6, 6))
    out, cache = conv_forward(x, layer)
    gx, _, _ = conv_backward(u, cache)
    return abs(float(np.sum(out * u)) - float(np.sum(x * gx)))


def run_gradcheck(seed: int) -> tuple[bool, list[str]]:
    """The full suite the ``gradcheck`` CLI command runs."""
    t0 = time.perf_counter()
    results = loss_gradient_suite(seed) + [check_conv_gradients(seed), check_net_gradients(seed)]
    lines = [r.line() for r in results]
    adj = adjoint_error(seed)
    adj_ok = adj < 1e-9
    lines.append(f"{'ok  ' if adj_ok else 'FAIL'} conv adjoint identity        |<Ax,u>-<x,A'u>| = {adj:.3e} (tol 1e-09)")
    ok = all(r.ok for r in results) and adj_ok
    lines.append(f"{'all gradient checks passed' if ok else 'GRADIENT CHECKS FAILED'} in {time.perf_counter() - t0:.1f}s")
    return ok, lines
