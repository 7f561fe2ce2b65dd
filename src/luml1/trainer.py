"""Deterministic training: Adam, the blind training loop, and score_set, the one path that scores an image set.

A run is fully determined by its config: the seed fixes the clean corpus,
the patch/noise stream and the network initialization, hidden_channels and
hidden_depth the network's size, so identical configs produce bit-identical
parameters. Training computes in float32, the precision a checkpoint keeps.
Every training stream is keyed by the run seed: the corpus, the patches, the
initialization and the periodic validation images and their noise each come
from a stream domain of their own, so validation images are neither training
images nor the test images that run_bench scores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .dataset import gen_chunk, gen_clean, make_blind_batches, noisy_chunk
from .errors import InvalidInputError, NumericalError
from .image import Image
from .losses import eval_loss
from .metrics import psnrs, ssims
from .net import ConvLayer, TinyNet, build_tinynet, denoise, net_backward, net_forward
from .checkpoint import save_checkpoint
from .rng import DOMAIN_TRAIN_CLEAN, DOMAIN_VAL_CLEAN, DOMAIN_VAL_NOISE

if TYPE_CHECKING:
    from .bench import Config


@dataclass
class TrainLog:
    """Per-step loss curve plus periodic validation metrics."""

    steps: list[tuple[int, float, float]] = field(default_factory=list)  # (step, loss, ms)
    validations: list[tuple[int, float, float]] = field(default_factory=list)  # (step, psnr, ssim)

    def to_csv(self) -> str:
        val = {s: (p, q) for s, p, q in self.validations}
        lines = ["step,loss,ms,val_psnr,val_ssim"]
        for s, loss, ms in self.steps:
            p, q = val.get(s, (None, None))
            tail = f",{p:.4f},{q:.4f}" if p is not None else ",,"
            lines.append(f"{s},{loss:.8f},{ms:.3f}" + tail)
        return "\n".join(lines) + "\n"


@dataclass
class AdamState:
    """Adam's first and second moments, each a vector shaped like the parameter vector, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, theta: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(theta), np.zeros_like(theta))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates and denominator floor: Kingma and Ba's defaults


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """One in-place Adam update with bias-corrected moments of a parameter vector."""
    if not theta.shape == grad.shape == state.m.shape:
        raise InvalidInputError(f"gradient {grad.shape} and moments {state.m.shape} must match theta {theta.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# pixels per scoring pass: four 40x40 images. Eight were as fast, but grew the eval plan's peak RSS 13% more
SCORE_PIXELS = 4 * 40 * 40


def chunk_bounds(shapes: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The (first, end) image indices of each scoring chunk of images of these (H, W, C) shapes, in order: runs of
    images of one shape, at most SCORE_PIXELS pixels (or one image)."""
    runs = [j for j in range(len(shapes)) if j == 0 or shapes[j] != shapes[j - 1]]
    firsts = []
    for a, b in zip(runs, [*runs[1:], len(shapes)]):
        firsts += range(a, b, max(1, SCORE_PIXELS // (shapes[a][0] * shapes[a][1])))
    return list(zip(firsts, [*firsts[1:], len(shapes)]))


def score_chunk(nets: list[TinyNet | None], clean: np.ndarray, first: int, noisy_of, levels) -> list[list]:
    """Per noise level in ``levels``, per net: the PSNRs and SSIMs, two arrays, of the images of the (k, H, W, C)
    chunk ``clean`` against the net's clamped output on their noisy copies; a net None scores the noisy images
    themselves (clamped), which is the noisy-input baseline.

    ``noisy_of(clean, first=first, level=level)`` makes the noisy copies of the chunk, images ``first`` on of their
    set, at a level. Each net runs on them through denoise, and all levels and nets run in one forward-only
    workspace, which each net reuses if it fits (one of other layer shapes gets a fresh one), so the memory held
    does not grow with the number of nets or levels. An image scores the same bit for bit in any chunk and beside
    any other nets and levels.
    """
    scores, ws = [], None
    for level in levels:
        noisy = noisy_of(clean, first=first, level=level)
        scores.append([])
        for net in nets:
            out, ws = (noisy.copy(), ws) if net is None else denoise(net, noisy, ws)
            np.clip(out, 0.0, 1.0, out=out)
            scores[-1].append((psnrs(out, clean), ssims(out, clean)))
    return scores


def score_set(nets: list[TinyNet | None], shapes, chunk_of, noisy_of, n_levels: int, workers: int) -> list[list]:
    """Per noise level 0 .. n_levels - 1, per net: the mean PSNR and SSIM of score_chunk over a set of images of
    these (H, W, C) ``shapes``, whose stack of images ``first`` .. ``end - 1`` is ``chunk_of(first, end)``.

    Each chunk (chunk_bounds) is one task on a pool of ``workers`` threads or, with fewer chunks than workers, that
    many tasks, each at a run of the chunk's levels. So scoring holds a chunk per worker, never the set. The
    per-image scores are averaged in image order, so the means are the same for any worker count.
    """
    # imported here: `luml1 train` without validation loads this module but scores nothing, and the
    # import (logging with it) would add 0.6 MB to its peak RSS
    from concurrent.futures import ThreadPoolExecutor

    bounds = chunk_bounds(shapes)
    parts = min(n_levels, -(-workers // len(bounds)))  # tasks per chunk, each scoring a run of its levels
    tasks = [(a, b, range(n_levels * p // parts, n_levels * (p + 1) // parts)) for a, b in bounds for p in range(parts)]

    def score_task(a: int, b: int, levels: range) -> list:
        return score_chunk(nets, chunk_of(a, b), a, noisy_of, levels)

    with ThreadPoolExecutor(workers) as pool:
        done = list(pool.map(score_task, *zip(*tasks)))
    chunks = [sum(done[i : i + parts], []) for i in range(0, len(done), parts)]  # each chunk's levels, in order
    return [[tuple(float(np.mean(np.concatenate(col))) for col in zip(*net)) for net in zip(*lv)] for lv in zip(*chunks)]


def train(
    cfg: Config, ckpt_path=None, checkpoint_every: int = 0, stop=lambda: None, corpus: list[Image] | None = None
) -> tuple[TinyNet, TrainLog]:
    """Build the net of a one-cell config and run its blind training loop.

    The net is build_tinynet of the run seed, hidden_channels and
    hidden_depth, cast to float32, so every cell of a plan starts from the
    same net; its Adam moments and patch batches are float32 too. Each
    step has the stream write its next (noisy, clean) batch of
    ``batch_size`` patches into those two arrays, runs it forward, makes
    one loss call on the whole batch (the mean of its patches' losses),
    runs it back once for that loss's gradients, and applies one Adam
    update.
    Every ``checkpoint_every`` steps (0: never) the net is saved to
    ``ckpt_path`` and scored on four validation images; the final net is
    always saved. A NaN or runaway value anywhere aborts with NumericalError;
    the last periodic checkpoint stays on disk. ``stop`` is called before
    every step and may raise to end the run there. ``corpus`` is the
    config's training corpus, gen_clean of its seed, corpus_count and
    corpus_size in the training domain, which run_bench builds once for
    all its cells; None builds it here. Training only reads it.
    """
    if len(cfg.losses) != 1 or len(cfg.sigma_max) != 1:
        raise InvalidInputError("a training run needs exactly one loss and one sigma_max")
    if checkpoint_every < 0:
        raise InvalidInputError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    (loss,), (sigma_max,) = cfg.losses, cfg.sigma_max
    net = build_tinynet(cfg.seed, cfg.hidden_channels, cfg.hidden_depth)
    net = TinyNet([ConvLayer(lay.kernels.astype(np.float32), lay.bias.astype(np.float32)) for lay in net.layers])
    log = TrainLog()
    clean = gen_clean(cfg.seed, cfg.corpus_count, *cfg.corpus_size, DOMAIN_TRAIN_CLEAN) if corpus is None else corpus
    state = AdamState.for_params(net.theta)
    noisy, target = (np.empty((cfg.batch_size, cfg.patch_size, cfg.patch_size, 3), np.float32) for _ in range(2))
    batches = make_blind_batches(clean, sigma_max, cfg.steps, cfg.seed, noisy, target)
    ws = None  # the one workspace of every training forward pass
    val_shapes = [(*cfg.corpus_size, 3)] * 4  # four validation images
    val_chunk = lambda a, b: gen_chunk(cfg.seed, a, b - a, *cfg.corpus_size, DOMAIN_VAL_CLEAN)
    val_noisy = partial(noisy_chunk, sigma_255=sigma_max / 2.0, seed=cfg.seed, domain=DOMAIN_VAL_NOISE)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked explicitly
        for step in range(1, cfg.steps + 1):
            stop()
            try:
                t0 = time.perf_counter()
                next(batches)  # refills noisy and target
                out, ws = net_forward(net, noisy, ws)
                result = eval_loss(loss, out, target)
                if not np.isfinite(result.value):
                    raise NumericalError("loss is not finite")
                grad = net_backward(net, ws, result.grad)
                net.require_finite(grad, "non-finite gradient for")
                adam_step(net.theta, grad, state, cfg.lr)
                net.require_finite(net.theta, "runaway values in")  # beyond float32 range is inf
                log.steps.append((step, result.value, (time.perf_counter() - t0) * 1e3))
                if checkpoint_every > 0 and step % checkpoint_every == 0:
                    if ckpt_path is not None:
                        save_checkpoint(net, ckpt_path)
                    log.validations.append((step, *score_set([net], val_shapes, val_chunk, val_noisy, 1, 1)[0][0]))
            except NumericalError as exc:
                raise NumericalError(f"aborted at step {step}: {exc}") from exc
    if ckpt_path is not None:
        save_checkpoint(net, ckpt_path)
    return net, log
