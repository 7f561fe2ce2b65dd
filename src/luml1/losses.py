"""Differentiable training losses, each returning value and analytic gradient.

* ``l1_loss`` / ``l2_loss`` -- plain pixel losses, mean over all elements.
* ``luminance_term`` -- L1 distance between the luminance projections of
  prediction and target, mean over pixels.
* ``eval_loss`` -- the loss a ``LossSpec`` names: its pixel loss plus
  ``lam`` times the luminance term, so lam 0 is the plain pixel loss.

Predictions and targets are (..., H, W, C) float arrays (an image or a
batch of them; float32 in training); gradients are with respect to the
prediction. Each term is a mean over its own elements (3*H*W per image for
pixel terms, H*W for the luminance term), so a batch's loss is the mean of
its images' losses and ``lam`` means the same at any image and batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .image import grayscale_backward, require_same_shape, to_grayscale

PIXEL_BASES = ("l1", "l2")


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss value plus d(value)/d(prediction), shaped like the prediction."""

    value: float
    grad: np.ndarray


def fmt_float(x: float) -> str:
    """``:g`` text when it reads back exactly, else ``repr``: the text of a float in labels and config files."""
    x = x + 0.0  # -0.0 + 0.0 is 0.0: negative zero equals zero, so it shares zero's text
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class LossSpec:
    """A pixel loss plus ``lam`` times the luminance term.

    lam 0 is the pixel loss itself, bit for bit: ``LossSpec("l1")`` is the
    L1 loss and ``LossSpec(lam=1.0)`` the paper's luminance L1 loss.
    """

    pixel_base: str = "l1"
    lam: float = 0.0

    def __post_init__(self):
        if self.pixel_base not in PIXEL_BASES:
            raise InvalidInputError(f"unknown pixel base {self.pixel_base!r}, expected one of {PIXEL_BASES}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise InvalidInputError(f"lam must be finite and nonnegative, got {self.lam}")

    def label(self) -> str:
        """Short name used in CSV column headers, checkpoint names and CLI output.

        lam 0 is named by its pixel base, ``l1`` or ``l2``. Any other label
        names a lam other than 1 and a pixel base other than l1:
        ``luml1``, ``luml1-0.5``, ``luml1-l2``, ``luml1-0.5-l2``.
        """
        if self.lam == 0.0:
            return self.pixel_base
        label = "luml1" if self.lam == 1.0 else f"luml1-{fmt_float(self.lam)}"
        return label if self.pixel_base == "l1" else f"{label}-{self.pixel_base}"


def parse_loss(token: str) -> LossSpec:
    """Build a spec from a loss token ``l1``, ``l2`` or ``luml1[:lam[:pixel_base]]``.

    A bare ``luml1`` is lam 1 on an L1 base. A lam that is not a number raises ValueError.
    """
    name, *suffix = token.split(":")
    if name in PIXEL_BASES and not suffix:
        return LossSpec(name)
    if name != "luml1" or len(suffix) > 2:
        raise InvalidInputError(f"expected l1, l2 or luml1[:lam[:pixel_base]], got {token!r}")
    return LossSpec(*suffix[1:], lam=float(suffix[0])) if suffix else LossSpec(lam=1.0)


def loss_token(spec: LossSpec) -> str:
    """The shortest token that ``parse_loss`` reads back as ``spec``."""
    if spec.lam == 0.0 or spec == LossSpec(lam=1.0):
        return spec.label()
    token = f"luml1:{fmt_float(spec.lam)}"
    return token if spec.pixel_base == "l1" else f"{token}:{spec.pixel_base}"


def l1_loss(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """Mean absolute error; subgradient sign(0) = 0."""
    require_same_shape(pred, target)
    d = pred - target
    value = float(np.abs(d).sum() / d.size)  # np.mean's value, without its dispatch
    return LossOutput(value, np.sign(d) / d.size)


def l2_loss(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """Mean squared error with gradient 2*(pred - target)/N."""
    require_same_shape(pred, target)
    d = pred - target
    value = float((d * d).sum() / d.size)
    return LossOutput(value, 2.0 * d / d.size)


def luminance_term(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """L1 distance between the luminance projections, mean over all pixels of all images.

    The gradient is back-projected through the transpose of the projection,
    so perturbations inside its null space (color changes that preserve the
    weighted sum) leave both value and gradient at zero.
    """
    require_same_shape(pred, target)
    d = to_grayscale(pred) - to_grayscale(target)
    m = d.size  # one luminance sample per pixel
    value = float(np.abs(d).sum() / m)
    return LossOutput(value, grayscale_backward(np.sign(d) / m))


def eval_loss(spec: LossSpec, pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """The pixel loss, plus ``spec.lam`` times the luminance term unless lam is 0."""
    base = (l1_loss if spec.pixel_base == "l1" else l2_loss)(pred, target)
    if spec.lam == 0.0:
        return base
    lum = luminance_term(pred, target)
    return LossOutput(base.value + spec.lam * lum.value, base.grad + spec.lam * lum.grad)
