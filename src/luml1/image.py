"""Pixel container and luminance projection.

An ``Image`` is a whole image the program holds, loads or saves: a
(height, width, channels) float64 array in nominal range [0, 1], checked
once when it is built, stored C-contiguous (row-major, channel-interleaved)
and marked read-only, so values can be shared freely across threads. It
keeps a private copy of its data, unless the data is already such an
array and read-only: gen_clean's images are views of one read-only block. The
math (network, losses, metrics) takes and returns plain (H, W, C) arrays,
float64 but for training's float32; callers pass ``Image.data``. All
operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


# Grayscale projection coefficients for (R, G, B): the ITU-R BT.601 luma
# weights. They sum to 0.9999, not 1; the projection is used unnormalized.
LUMA_WEIGHTS = np.array([0.2989, 0.5870, 0.1140])
LUMA_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class Image:
    """An (H, W, C) float64 pixel tensor with C in {1, 3}, all values finite."""

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        stored = isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.flags.c_contiguous
        if not stored or arr.flags.writeable:  # a read-only array of the stored layout is kept: no one may write it
            arr = np.array(arr, dtype=np.float64, order="C")  # private copy
        if arr.ndim != 3:
            raise InvalidInputError(f"image data must be (H, W, C), got shape {arr.shape}")
        h, w, c = arr.shape
        if h < 1 or w < 1 or c not in (1, 3):
            raise InvalidInputError(f"bad image shape {arr.shape}: need H, W >= 1 and C in {{1, 3}}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("image data contains NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


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

