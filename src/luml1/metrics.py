"""Evaluation-only quality metrics: MSE, PSNR, and windowed SSIM.

These are metrics, not losses: none of them provide gradients. SSIM uses
Gaussian-weighted local statistics over every fully-contained window (no
padding) and averages the per-window scores; 3-channel inputs are first
projected to luminance.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    require_same_shape(a, b, "compare")
    if a.ndim != 3:
        raise InvalidInputError(f"metrics compare (H, W, C) images, got shape {a.shape}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error over all elements of two (H, W, C) images."""
    _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, max_val: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB: 10*log10(max_val^2 / mse).

    Identical images return positive infinity rather than raising, so
    callers can rank perfect reconstructions.
    """
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / m)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return g / g.sum()


_TAPS = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)  # the 2-D window is np.outer(_TAPS, _TAPS)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity index of two (H, W, C) arrays, averaged over all valid window centers.

    Local means, variances, and covariance are Gaussian-weighted. Only
    windows fully inside the image contribute (valid region, no padding).
    """
    _check_pair(a, b)
    if a.shape[2] == 3:
        a, b = to_grayscale(a), to_grayscale(b)
    x, y = a[:, :, 0], b[:, :, 0]
    n = SSIM_WINDOW
    if x.shape[0] < n or x.shape[1] < n:
        raise InvalidInputError(f"image {x.shape} smaller than the {n}x{n} SSIM window")

    # each local mean is the separable window: 11 taps along the rows, then 11 down the columns
    rows = sliding_window_view(np.stack([x, y, x * x, y * y, x * y]), n, axis=2) @ _TAPS
    mu_x, mu_y, e_xx, e_yy, e_xy = sliding_window_view(rows, n, axis=1) @ _TAPS
    var_x = e_xx - mu_x * mu_x
    var_y = e_yy - mu_y * mu_y
    cov = e_xy - mu_x * mu_y
    c1, c2 = SSIM_C1, SSIM_C2
    score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(np.mean(score))
