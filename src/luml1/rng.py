"""Deterministic random streams.

All randomness flows through explicitly seeded Philox (counter-based) bit
generators; there is no global RNG state anywhere in the package. Gaussian
deviates come from the Box-Muller transform applied to Philox uniforms. A
seed's uniforms are the same bits on any machine, but its deviates pass
through float64 np.log, np.cos and np.sin, which NumPy evaluates with libm
or with loops of its own, neither correctly rounded: a seed's deviates are
the same bits for one NumPy build and libm.

Streams are addressed by (seed, *ids). The ids select independent
sub-streams of one seed: the first id is a domain tag (constants below),
the rest index items within the domain. Parallel consumers must each own
their own (seed, *ids) stream; a stream object itself is stateful and must
not be shared.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import InvalidInputError
from .fnv import MASK64, fnv1a64

# Domain tags. Keeping these distinct guarantees that e.g. the clean-image
# generator and the noise sampler never consume the same counter sequence
# even when handed the same user-facing seed.
DOMAIN_CLEAN = 1  # gen_clean's default: the test images and `luml1 gen` corpora
DOMAIN_BATCH = 3
DOMAIN_INIT = 4
DOMAIN_EVAL_NOISE = 5
DOMAIN_VAL_CLEAN = 6  # the trainer's validation images and their noise, apart from the test set's
DOMAIN_VAL_NOISE = 7
DOMAIN_TRAIN_CLEAN = 8  # the training corpus, apart from the test images of an odd seed, its own eval_seed
# the gradient checks' random inputs, one domain per check
DOMAIN_GRAD_LOSS, DOMAIN_GRAD_LUMINANCE, DOMAIN_GRAD_CONV, DOMAIN_GRAD_NET, DOMAIN_GRAD_ADJOINT = 10, 11, 12, 13, 14


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Return the Philox generator for the (seed, *ids) stream.

    The 128-bit Philox key is (seed, fnv1a64(packed ids)), so streams with
    the same seed but different id tuples run on disjoint counter sequences.
    """
    packed = b"".join(struct.pack("<q", int(i)) for i in ids)
    key = np.array([seed & MASK64, fnv1a64(packed)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal(rng: np.random.Generator, shape: tuple[int, ...], sigma: float) -> np.ndarray:
    """Gaussian deviates via Box-Muller on the stream's uniforms."""
    n = math.prod(shape)
    return (sigma * box_muller(rng.random((2, (n + 1) // 2)), n)).reshape(shape)  # sigma 1 changes no bit


def box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """The first n standard deviates of each stream in ``u``, (..., 2, m) uniforms whose [..., 0, :] are a stream's
    first m draws and [..., 1, :] its next m. Elementwise, so each stream's are as if it were transformed alone.

    Computed in ``u``, which it overwrites: the deviates are the (..., 2m) view of it cut to n, [..., 0, :] times
    the cosines, then [..., 1, :] times the sines. Each stream's contiguous (2, m) rows go in turn, so no operand
    is copied; the one array made per stream, r, is half the size of its rows.
    """
    for i in np.ndindex(u.shape[:-2]):
        row = u[i]
        u0, u1 = row
        r = np.subtract(1.0, u0)  # 1 - u lies in (0, 1], so the log is finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        u1 *= 2.0 * np.pi  # theta
        np.cos(u1, out=u0)
        np.sin(u1, out=u1)
        row *= r
    return u.reshape(*u.shape[:-2], -1)[..., :n]


def check_seed(seed: int) -> int:
    """Return ``seed`` if it lies in [0, 2^64): stream and eval_seed would fold any other onto one of those."""
    if not 0 <= seed <= MASK64:
        raise InvalidInputError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def eval_seed(seed: int) -> int:
    """The seed of a run's test images and noise: the run seed with its low bit set.

    Training streams take the run seed itself, so seeds 2k and 2k+1 train
    different nets and score them on one test set.
    """
    return (seed & MASK64) | 1
