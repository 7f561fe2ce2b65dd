"""Image checks and luminance projection.

An image is a plain (height, width, channels) float64 array in nominal
range [0, 1], C in {1, 3}; a set of images of one size is an (N, H, W, C)
stack. check_image checks one when it is loaded, saved or built, and hands it
on C-contiguous (row-major, channel-interleaved) and read-only, so values can
be shared freely across threads. The math (network, losses, metrics) takes
and returns such arrays, float64 but for training's float32. ``Image`` wraps
one checked image; only gen_clean returns it. All operations here are pure
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


# Grayscale projection coefficients for (R, G, B): the ITU-R BT.601 luma
# weights. They sum to 0.9999, not 1; the projection is used unnormalized.
LUMA_WEIGHTS = np.array([0.2989, 0.5870, 0.1140])
LUMA_WEIGHTS.flags.writeable = False


def check_image(arr) -> np.ndarray:
    """``arr`` as a checked image: finite, (H, W, C) with H, W >= 1 and C in {1, 3}, float64, C-contiguous and
    read-only. An array that is all of these already is returned as it is, so no one may write it; any other is
    copied."""
    stored = isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.flags.c_contiguous
    if not stored or arr.flags.writeable:
        arr = np.array(arr, dtype=np.float64, order="C")  # private copy
        arr.flags.writeable = False
    if arr.ndim != 3:
        raise InvalidInputError(f"image data must be (H, W, C), got shape {arr.shape}")
    h, w, c = arr.shape
    if h < 1 or w < 1 or c not in (1, 3):
        raise InvalidInputError(f"bad image shape {arr.shape}: need H, W >= 1 and C in {{1, 3}}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("image data contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class Image:
    """One checked image (check_image): gen_clean's type, views of one read-only block."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", check_image(self.data))


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise InvalidInputError(f"cannot compare images of shapes {a.shape} and {b.shape}")


def to_grayscale(x: np.ndarray) -> np.ndarray:
    """Project an (..., H, W, 3) array onto its (..., H, W, 1) luminance channel.

    out[..., y, x] = w_r*R + w_g*G + w_b*B, computed in the input's float
    dtype. The result is not renormalized: the weights sum to 0.9999, so
    [0, 1] inputs map into [0, 0.9999].
    """
    if x.ndim < 3 or x.shape[-1] != 3:
        raise InvalidInputError(f"to_grayscale needs an (..., H, W, 3) array, got shape {x.shape}")
    return (x @ _luma_weights(x))[..., None]


def grayscale_backward(grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`to_grayscale`.

    Spreads an (..., H, W, 1) gradient back across RGB: channel c of the
    (..., H, W, 3) result is grad * w_c at every pixel, in the gradient's float dtype.
    """
    if grad_out.ndim < 3 or grad_out.shape[-1] != 1:
        raise InvalidInputError(f"grayscale_backward needs an (..., H, W, 1) gradient, got shape {grad_out.shape}")
    return grad_out * _luma_weights(grad_out)


def _luma_weights(x: np.ndarray) -> np.ndarray:
    """LUMA_WEIGHTS in the float dtype that ``x`` computes in: a float32 batch stays float32."""
    return LUMA_WEIGHTS.astype(np.result_type(x.dtype, np.float32), copy=False)

