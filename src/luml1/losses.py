"""Differentiable training losses, each returning value and analytic gradient.

Four losses are provided:

* ``l1_loss`` / ``l2_loss`` -- plain pixel losses, mean over all elements.
* ``luminance_term`` -- L1 distance between the luminance projections of
  prediction and target, mean over pixels.
* ``luminance_l1_loss`` -- a pixel loss (L1 by default, L2 selectable)
  plus ``lam`` times the luminance term.

Predictions and targets are (H, W, C) float64 arrays, and all gradients
are with respect to the prediction. Both mean normalizations use the
term's own element count (3*H*W for pixel terms, H*W for the luminance
term), which keeps the meaning of ``lam`` independent of image resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .image import grayscale_backward, require_same_shape, to_grayscale

LOSS_KINDS = ("l1", "l2", "luml1")
PIXEL_BASES = ("l1", "l2")


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss value plus d(value)/d(prediction), shaped like the prediction."""

    value: float
    grad: np.ndarray


def fmt_float(x: float) -> str:
    """``:g`` text when it reads back exactly, else ``repr``: the text of a float in labels and config files."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to evaluate and with what weighting.

    ``lam`` and ``pixel_base`` belong to kind ``luml1``, and the other kinds
    keep their defaults, so that one label names one spec. The combined
    value is pixel_base + lam * luminance_term. With ``lam == 0`` the
    combined loss behaves exactly (bit-for-bit) like its pixel base.
    """

    kind: str = "l1"
    lam: float = 1.0
    pixel_base: str = "l1"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.pixel_base not in PIXEL_BASES:
            raise InvalidInputError(f"unknown pixel base {self.pixel_base!r}, expected one of {PIXEL_BASES}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise InvalidInputError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.kind != "luml1" and (self.lam, self.pixel_base) != (1.0, "l1"):
            raise InvalidInputError(f"loss {self.kind!r} takes no lam or pixel_base")

    def label(self) -> str:
        """Short name used in CSV column headers, checkpoint names and CLI output.

        A luml1 label names a lam other than 1 and a pixel base other than l1:
        ``luml1``, ``luml1-0.5``, ``luml1-l2``, ``luml1-0.5-l2``.
        """
        if self.kind != "luml1":
            return self.kind
        label = "luml1" if self.lam == 1.0 else f"luml1-{fmt_float(self.lam)}"
        return label if self.pixel_base == "l1" else f"{label}-{self.pixel_base}"


def parse_loss(token: str, default: LossSpec = LossSpec("luml1")) -> LossSpec:
    """Build a spec from a loss token ``kind``, or ``luml1:lam[:pixel_base]``.

    ``default`` is the spec a bare ``luml1`` token means; a suffix replaces
    its lam, then its pixel base. A lam that is not a number raises ValueError.
    """
    kind, *suffix = token.split(":")
    if kind != "luml1":
        if suffix:
            raise InvalidInputError(f"loss token {token!r}: only luml1 takes a suffix")
        return LossSpec(kind)
    if len(suffix) > 2:
        raise InvalidInputError(f"expected luml1[:lam[:pixel_base]], got {token!r}")
    lam = float(suffix[0]) if suffix else default.lam
    return LossSpec("luml1", lam=lam, pixel_base=suffix[1] if len(suffix) > 1 else default.pixel_base)


def loss_token(spec: LossSpec, default: LossSpec = LossSpec("luml1")) -> str:
    """The shortest token that ``parse_loss(token, default)`` reads back as ``spec``."""
    if spec.kind != "luml1" or spec == default:
        return spec.kind
    token = f"luml1:{fmt_float(spec.lam)}"
    return token if spec.pixel_base == default.pixel_base else f"{token}:{spec.pixel_base}"


def l1_loss(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """Mean absolute error; subgradient sign(0) = 0."""
    require_same_shape(pred, target, "compare")
    d = pred - target
    value = float(np.mean(np.abs(d)))
    return LossOutput(value, np.sign(d) / d.size)


def l2_loss(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """Mean squared error with gradient 2*(pred - target)/N."""
    require_same_shape(pred, target, "compare")
    d = pred - target
    value = float(np.mean(d * d))
    return LossOutput(value, 2.0 * d / d.size)


def luminance_term(pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """L1 distance between the luminance projections, mean over pixels.

    The gradient is back-projected through the transpose of the projection,
    so perturbations inside its null space (color changes that preserve the
    weighted sum) leave both value and gradient at zero.
    """
    require_same_shape(pred, target, "compare")
    d = to_grayscale(pred) - to_grayscale(target)
    m = d.size  # H*W: one luminance sample per pixel
    value = float(np.mean(np.abs(d)))
    return LossOutput(value, grayscale_backward(np.sign(d) / m))


def luminance_l1_loss(pred: np.ndarray, target: np.ndarray, spec: LossSpec) -> LossOutput:
    """Pixel loss plus ``spec.lam`` times the luminance term."""
    if spec.kind != "luml1":
        raise InvalidInputError(f"luminance_l1_loss needs a 'luml1' spec, got {spec.kind!r}")
    base_fn = l1_loss if spec.pixel_base == "l1" else l2_loss
    base = base_fn(pred, target)
    if spec.lam == 0.0:
        return base  # contract: lam == 0 is bit-identical to the pixel base
    lum = luminance_term(pred, target)
    return LossOutput(base.value + spec.lam * lum.value, base.grad + spec.lam * lum.grad)


def eval_loss(spec: LossSpec, pred: np.ndarray, target: np.ndarray) -> LossOutput:
    """Dispatch to the loss selected by ``spec.kind``."""
    if spec.kind == "l1":
        return l1_loss(pred, target)
    if spec.kind == "l2":
        return l2_loss(pred, target)
    return luminance_l1_loss(pred, target, spec)
