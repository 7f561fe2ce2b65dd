# luml1 before numpy: importing it sets one BLAS thread before numpy loads its
# BLAS, so the in-process benchmark runs below do not oversubscribe the cores
from luml1.rng import stream

import numpy as np


def rand_array(seed: int, h: int = 8, w: int = 8, c: int = 3, tag: int = 99) -> np.ndarray:
    """Deterministic random (H, W, C) array in [0, 1) for tests."""
    return stream(seed, tag).random((h, w, c))


def rand_pair(seed: int, h: int = 8, w: int = 8, c: int = 3):
    rng = stream(seed, 98)
    return rng.random((h, w, c)), rng.random((h, w, c))


def score_images(nets, clean, noisy_of, n_levels: int = 1, workers: int = 1):
    """trainer.score_set over a sequence of (H, W, C) images, each chunk stacked from them as `luml1 eval` stacks its
    files."""
    from luml1.trainer import score_set

    chunk_of = lambda a, b: np.stack(clean[a:b])
    return score_set(nets, [im.shape for im in clean], chunk_of, noisy_of, n_levels, workers)
