"""Evaluation-only quality metrics: MSE, PSNR, and windowed SSIM.

These are metrics, not losses: none of them provide gradients. SSIM uses
Gaussian-weighted local statistics over every fully-contained window (no
padding) and averages the per-window scores; 3-channel inputs are first
projected to luminance. The window is separable, so each of the five local
means is two matrix products with read-only band matrices of the 11 taps,
one per image side, built once per side length. ``psnrs`` and ``ssims``
score a stack of images, each image bit for bit as ``psnr`` and ``ssim``
score it alone, which they do through them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .image import require_same_shape, to_grayscale

# SSIM window and stabilization constants (Wang et al. 2004): an 11x11
# Gaussian window of sigma 1.5, C1 = (0.01 L)^2 and C2 = (0.03 L)^2 for the
# dynamic range L = 1.
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    """Reject two arrays unless they are (H, W, C) images of one shape: a batch is not one image."""
    require_same_shape(a, b)
    if a.ndim != 3:
        raise InvalidInputError(f"metrics compare (H, W, C) images, got shape {a.shape}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error over all elements of two (H, W, C) images."""
    _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of two [0, 1] images: 10*log10(1 / mse).

    Identical images return positive infinity rather than raising, so
    callers can rank perfect reconstructions.
    """
    _check_pair(a, b)
    return float(psnrs(a[None], b[None])[0])


def psnrs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """psnr of each pair of images of two (k, H, W, C) stacks of one shape."""
    d = a - b
    mses = np.square(d, out=d).reshape(len(d), -1).mean(axis=1)  # a row sums as its image's whole mean does
    return np.array([10.0 * math.log10(1.0 / m) if m else math.inf for m in mses.tolist()])  # libm's log10


@lru_cache
def _band(n: int) -> np.ndarray:
    """Read-only (n, n - 10) matrix whose column j holds the 11 Gaussian taps in rows j .. j + 10: ``v @ _band(n)``
    weighs every full window along a side of length n. The 2-D window is the outer product of the taps."""
    offsets = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    taps = np.exp(-(offsets**2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    band = sum(tap * np.eye(n, n - SSIM_WINDOW + 1, -k) for k, tap in enumerate(taps / taps.sum()))
    band.flags.writeable = False
    return band


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity index of two (H, W, C) arrays, averaged over all valid window centers.

    Local means, variances, and covariance are Gaussian-weighted. Only
    windows fully inside the image contribute (valid region, no padding).
    """
    _check_pair(a, b)
    return float(ssims(a[None], b[None])[0])


def ssims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ssim of each pair of images of two (k, H, W, C) stacks of one shape; each image has band products of its own."""
    if a.shape[3] == 3:
        a, b = to_grayscale(a), to_grayscale(b)
    x, y = a[..., 0], b[..., 0]
    k, h, w = x.shape
    n = SSIM_WINDOW
    if h < n or w < n:
        raise InvalidInputError(f"image {(h, w)} smaller than the {n}x{n} SSIM window")

    # each local mean is the separable window, Bh.T @ (S @ Bw), with the five maps of S side by side in every row
    maps = np.empty((k, h, 5, w), np.result_type(x, y))  # x, y, x*x, y*y, x*y
    maps[:, :, 0], maps[:, :, 1], maps[:, :, 4] = x, y, x * y
    np.multiply(maps[:, :, :2], maps[:, :, :2], out=maps[:, :, 2:4])
    del a, b, x, y  # each input freed once read: a large free at the heap's top is given back and faulted in again
    rows = np.matmul(maps.reshape(k, 5 * h, w), _band(w))
    del maps
    # mu_x, mu_y, E[xx], E[yy], E[xy], each a (k, h - n + 1, w - n + 1) view
    means = np.matmul(_band(h).T, rows.reshape(k, h, -1)).reshape(k, h - n + 1, 5, -1).transpose(2, 0, 1, 3)
    del rows
    sq, mu_xy = means[:2] * means[:2], means[0] * means[1]
    var, cov = means[2:4] - sq, means[4] - mu_xy
    c1, c2 = SSIM_C1, SSIM_C2
    score = ((2.0 * mu_xy + c1) * (2.0 * cov + c2)) / ((sq[0] + sq[1] + c1) * (var[0] + var[1] + c2))
    return score.reshape(k, -1).sum(axis=1) / score[0].size  # the means
