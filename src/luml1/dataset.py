"""Synthetic clean images and seeded Gaussian noise for blind denoising.

Clean images are procedurally generated (smooth gradients, alpha-blended
rectangles, low-frequency sinusoid texture) so benchmarks need no external
data. Noise levels are expressed as standard deviations on the 0-255
intensity scale and divided by 255 internally.

Blindness: the training batch stream draws a per-patch noise level
uniformly from [0, sigma_max] but never exposes it -- consumers only see
(noisy, clean) batches.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import InvalidInputError
from .image import Image
from .losses import fmt_float
from .rng import DOMAIN_BATCH, DOMAIN_CLEAN, DOMAIN_EVAL_NOISE, box_muller, stream

# The smallest height and width of a generated image; it holds the 11x11 SSIM
# window. Corpus and eval sizes are checked against it when a train config or
# plan is built, so a size that is too small fails before any work starts.
MIN_IMAGE_SIZE = 16

# The largest noise level, checked before any work: Box-Muller's largest
# deviate is about 8.57, so noise stays under 3.4e4 (on the 0-1 scale) and its
# square far inside float32, the precision nets train and score in.
MAX_SIGMA = 1e6


def check_sigmas(what: str, sigmas: tuple[float, ...]) -> None:
    """Reject sigmas outside [0, MAX_SIGMA], NaN or repeated: a sigma's label names a CSV column or row and a checkpoint."""
    if not all(0.0 <= s <= MAX_SIGMA for s in sigmas):
        raise InvalidInputError(f"{what} must lie in [0, {MAX_SIGMA:,.0f}]")
    if len(set(sigmas)) != len(sigmas):
        raise InvalidInputError(f"{what} repeats a value: {[fmt_float(s) for s in sigmas]}")


def gen_clean(seed: int, count: int, h: int, w: int, domain: int = DOMAIN_CLEAN) -> list[Image]:
    """Generate ``count`` deterministic 3-channel clean images in [0, 1].

    Image i is drawn from its own sub-stream (seed, domain, i), so the corpus is
    reproducible and generation could be partitioned across workers without
    sharing a stream. The images are views of one read-only gen_chunk block,
    which is one allocation: dropping the images gives it back whole.
    """
    block = gen_chunk(seed, 0, count, h, w, domain)
    block.flags.writeable = False
    return [Image(img) for img in block]


def gen_chunk(seed: int, first: int, count: int, h: int, w: int, domain: int = DOMAIN_CLEAN) -> np.ndarray:
    """Images ``first`` .. ``first + count - 1`` of gen_clean's, from the same streams, as one (count, h, w, 3) stack."""
    if count < 0:
        raise InvalidInputError(f"count must be nonnegative, got {count}")
    if count > 0 and min(h, w) < MIN_IMAGE_SIZE:
        raise InvalidInputError(f"clean images must be at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}, got {h}x{w}")
    out = np.empty((count, h, w, 3))
    for j, img in enumerate(out):
        _gen_one(stream(seed, domain, first + j), img)
    return out


def _gen_one(rng: np.random.Generator, img: np.ndarray) -> np.ndarray:
    """Draw one clean image into the (h, w, 3) float64 array ``img``, and return it."""
    h, w = img.shape[:2]
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    # Linear ramps with slope magnitude >= 0.2 per axis: even before any
    # detail is added, per-channel variance stays well above degenerate-flat.
    for c in range(3):
        level = rng.uniform(0.3, 0.7)
        sy = rng.uniform(0.2, 0.5) * (1.0 if rng.random() < 0.5 else -1.0)
        sx = rng.uniform(0.2, 0.5) * (1.0 if rng.random() < 0.5 else -1.0)
        img[:, :, c] = level + sy * (yy - 0.5) + sx * (xx - 0.5)
    for _ in range(int(rng.integers(4, 9))):
        ry = int(rng.integers(0, h - 3))
        rx = int(rng.integers(0, w - 3))
        rh = int(rng.integers(2, max(3, h // 2)))
        rw = int(rng.integers(2, max(3, w // 2)))
        color = rng.uniform(0.0, 1.0, size=3)
        alpha = rng.uniform(0.4, 0.9)
        region = img[ry : ry + rh, rx : rx + rw]
        region[:] = (1.0 - alpha) * region + alpha * color
    # band-limited texture: a few low-frequency oriented sinusoids
    for _ in range(3):
        amp = rng.uniform(0.02, 0.06)
        freq = rng.uniform(1.5, 4.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = amp * np.sin(2.0 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        img += wave[:, :, None] * rng.uniform(0.5, 1.0, size=3)[None, None, :]
    return np.clip(img, 0.0, 1.0, out=img)


def noisy_chunk(
    clean: np.ndarray, sigma_255: float, seed: int, level: int, first: int, domain: int = DOMAIN_EVAL_NOISE
) -> np.ndarray:
    """Unclamped noisy copies of a (k, H, W, C) stack of images at one noise level; ``sigma_255`` is not checked here.

    Image j draws its noise from the (seed, domain, level, first + j) stream, where ``level`` is the noise level's
    index in the evaluation's sigma list, so every (level, image) pair has its own realization, in any chunking. The
    streams fill one array of uniforms, which one Box-Muller pass turns into noise; the noise is scaled and the images
    added in that array, which the noisy copies are a view of (a copy of, if an image has an odd number of values).
    """
    k, n = len(clean), clean[0].size
    u = np.empty((k, 2, (n + 1) // 2))
    for j in range(k):
        stream(seed, domain, level, first + j).random(out=u[j])  # as rng.normal draws them
    noisy = box_muller(u, n)
    noisy *= sigma_255 / 255.0
    noisy += clean.reshape(k, n)
    if not np.all(np.isfinite(noisy)):
        raise InvalidInputError("noisy image data contains NaN or Inf")
    return noisy.reshape(clean.shape)


def _draw_patch_params(
    rng: np.random.Generator,
    dims: list[tuple[int, int]],
    patch: int,
    sigma_max: float,
) -> tuple[int, int, int, float]:
    """One (image index, y0, x0, sigma_255) draw of the blind patch stream."""
    idx = int(rng.integers(0, len(dims)))
    h, w = dims[idx]
    y0 = int(rng.integers(0, h - patch + 1))
    x0 = int(rng.integers(0, w - patch + 1))
    sigma = float(rng.uniform(0.0, sigma_max))
    return idx, y0, x0, sigma


def make_blind_batches(
    clean: list[Image], sigma_max_255: float, count: int, seed: int, noisy: np.ndarray, target: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Fill the caller's (B, P, P, 3) ``noisy`` and ``target`` arrays with each of ``count`` batches, and yield them.

    The batch size B and patch size P are those of the arrays, which are of one shape and of any float dtype:
    each yield overwrites the last batch. Each noisy patch carries noise with a std dev drawn uniformly from
    [0, sigma_max_255]; the draw is internal and not part of the yielded values. Crops and noise levels come from
    a single stream keyed by ``seed``, so the full sequence is reproducible. Each patch draws its crop and sigma,
    then its uniforms as rng.normal would; one Box-Muller pass over a batch's uniforms makes its noise, bit for bit
    what rng.normal gives each patch alone. The crops and noise are float64, kept in two buffers of the stream's,
    and their sum is rounded once into ``noisy``: a float32 pair holds the float32 cast of the float64 batch.
    Bad arguments raise InvalidInputError at the first draw.
    """
    check_sigmas("sigma_max", (sigma_max_255,))
    shape = target.shape
    if noisy.shape != shape or len(shape) != 4 or shape[1] != shape[2] or shape[3] != 3 or 0 in shape:
        raise InvalidInputError(f"batch arrays must both be (B, P, P, 3), B and P positive, got {noisy.shape} and {shape}")
    (batch_size, p), n = shape[:2], math.prod(shape[1:])
    if count < 0:
        raise InvalidInputError(f"count must be nonnegative, got {count}")
    if not clean:
        raise InvalidInputError("need at least one clean image")
    dims = [im.data.shape[:2] for im in clean]
    if any(p > min(h, w) for h, w in dims):
        raise InvalidInputError(f"patch_size {p} exceeds the smallest image dimension")
    rng = stream(seed, DOMAIN_BATCH)
    crops, u, scale = np.empty(shape), np.empty((batch_size, 2, (n + 1) // 2)), np.empty((batch_size, 1))
    for _ in range(count):
        for j in range(batch_size):
            idx, y0, x0, sigma = _draw_patch_params(rng, dims, p, sigma_max_255)
            crops[j], scale[j] = clean[idx].data[y0 : y0 + p, x0 : x0 + p], sigma / 255.0
            rng.random(out=u[j])  # as rng.normal draws them
        noise = box_muller(u, n)
        noise *= scale
        np.add(crops, noise.reshape(shape), out=noisy)
        np.copyto(target, crops)
        yield noisy, target
