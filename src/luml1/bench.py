"""Benchmark harness: train one model per (loss, sigma_max) cell, evaluate
PSNR/SSIM across a grid of noise levels, and emit a comparison CSV.

Fairness and reproducibility rules:

* every cell trains from the same run seed on one clean corpus, which the
  plan builds once, so initialization, clean corpus, patch crops, and
  noise realizations are identical across losses -- the loss is the only
  varying factor;
* training streams (corpus, patches, initialization, validation) are keyed
  by the run seed, evaluation images and noise by ``eval_seed`` (the run
  seed with its low bit set), each stream in a domain of its own, so no
  training stream is a test stream; seeds 2k and 2k+1 train different
  nets and score them on one test set;
* each cell is scored with its trained float32 net, which its checkpoint
  holds bit for bit, so a saved checkpoint reproduces the reported numbers
  exactly;
* cells train as tasks on a pool of worker threads, then chunks of test
  images are scored as tasks on another (trainer.score_set); each task
  owns its random streams and the report is assembled in plan order, so
  the worker count changes no output byte; the cells only read their
  shared corpus, and a scoring task makes its own chunk and runs all its
  nets of one shape in one workspace, which no other task touches;
* the CSV contains no timestamps, so identical plans give byte-identical
  files. Wall-clock lives only on the in-memory report.

CSV layout: comment lines (config hash, seed, per-sigma noisy-input
baselines), a header ``sigma,<loss>_<sigmamax>_psnr,<loss>_<sigmamax>_ssim,
...`` followed by per-loss delta columns, one row per noise level with
fixed 4-decimal formatting, and a final ``mean`` row. Sigmas are written
as their exact ``fmt_float`` text. Delta columns are
always recomputed from the table's own cells, never stored. The ssim
columns are an extension beyond plain PSNR tables.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import MIN_IMAGE_SIZE, check_sigmas, gen_chunk, noisy_chunk
from .errors import InvalidInputError
from .fnv import fnv1a64
from .losses import LossSpec, fmt_float, loss_token, parse_loss
from .net import TinyNet, denoise
from .pnm import load_image, save_image
from .rng import DOMAIN_TRAIN_CLEAN, check_seed, eval_seed
from .trainer import score_set, train


@dataclass(frozen=True)
class Config:
    """Everything a training run or a benchmark run depends on.

    A plan trains one cell per (loss, sigma_max) pair, and a cell is the
    plan with exactly one of each: a train config is a one-cell plan. Every
    field is set by the plan key of its name, so any Config has a plan text,
    and a key a plan file leaves out keeps the default here.
    """

    sigma_max: tuple[float, ...] = (25.0,)
    eval_sigmas: tuple[float, ...] = tuple(float(s) for s in range(5, 80, 5))
    losses: tuple[LossSpec, ...] = (LossSpec("l1"),)
    steps: int = 500
    batch_size: int = 8
    lr: float = 1e-3
    patch_size: int = 32
    corpus_count: int = 64
    corpus_size: tuple[int, int] = (40, 40)  # (h, w)
    eval_count: int = 64
    eval_size: tuple[int, int] = (40, 40)  # (h, w)
    hidden_channels: int = 16
    hidden_depth: int = 3
    seed: int = 0  # last, so the canonical plan text keeps the key order every shipped config hash was made with

    def __post_init__(self):
        check_seed(self.seed)
        if self.steps < 0 or self.batch_size < 1 or self.patch_size < 1:
            raise InvalidInputError("steps must be >= 0 and batch_size and patch_size >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise InvalidInputError("lr must be finite and positive")
        if self.corpus_count < 1 or min(self.corpus_size) < MIN_IMAGE_SIZE:
            raise InvalidInputError(f"corpus_count must be >= 1 and corpus_size at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}")
        if self.patch_size > min(self.corpus_size):
            raise InvalidInputError("patch_size must fit the corpus images")
        if not self.losses or not self.sigma_max or not self.eval_sigmas:
            raise InvalidInputError("need at least one loss, one sigma_max and one eval sigma")
        if any(b <= a for a, b in zip(self.eval_sigmas, self.eval_sigmas[1:])):
            raise InvalidInputError("eval_sigmas must be strictly increasing")
        check_sigmas("sigma_max", self.sigma_max)
        check_sigmas("eval_sigmas", self.eval_sigmas)
        labels = [s.label() for s in self.losses]
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"loss labels collide: {labels}")
        if self.eval_count < 1 or min(self.eval_size) < MIN_IMAGE_SIZE:
            raise InvalidInputError(f"eval_count must be >= 1 and eval_size at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}")
        if self.hidden_depth < 0 or self.hidden_channels < 1:
            raise InvalidInputError("hidden_depth must be >= 0 and hidden_channels >= 1")


@dataclass
class BenchReport:
    plan: Config
    rows: list  # per eval sigma: (mean PSNR, mean SSIM) of the clamped noisy input, then of each cell in plan order
    wall_clock_s: float = 0.0  # not serialized: reports must be byte-stable


def usable_cpus() -> int:
    """The number of CPUs this process may run on: run_bench's worker count, which ``taskset`` limits."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_bench(plan: Config, ckpt_dir=None) -> BenchReport:
    """Train and evaluate every (loss, sigma_max) cell of the plan on usable_cpus() threads.

    The training corpus is built once, and every cell trains on it as one
    task of a pool. Once the last cell has trained, the corpus is dropped,
    and the test set is scored on as many threads (score_set): each task
    makes its chunk of clean images from their own streams, then at every
    eval sigma their noisy copies, and scores the noisy input and each
    cell's net on them. So scoring holds neither the corpus nor the test
    set. Each cell, image and sigma owns its random streams, so the report
    is the same for any worker count. Checkpoints are saved in plan order
    as the cells finish. If cells fail, the error of the first failing
    cell in plan order is raised, no later cell's checkpoint is saved, and
    the cells after it stop at their next step (on Ctrl-C, every cell
    does). A checkpoint path that is an existing directory raises
    IsADirectoryError before any work.
    """
    from concurrent.futures import CancelledError, ThreadPoolExecutor  # imported here, as score_set imports its pool

    t_start = time.perf_counter()
    grid = [(loss, sigma_max) for sigma_max in plan.sigma_max for loss in plan.losses]
    ckpts = cell_files(plan, ckpt_dir)
    for path in ckpts:
        if ckpt_dir is not None and os.path.isdir(path):
            raise IsADirectoryError(f"checkpoint file {path!r} is an existing directory")
    corpus = gen_chunk(plan.seed, 0, plan.corpus_count, *plan.corpus_size, DOMAIN_TRAIN_CLEAN)  # one for all cells

    abandoned = [False] * len(grid)  # abandoned[i]: cell i failed, or the loop below stopped waiting for it

    def train_cell(i: int) -> TinyNet:
        def stop():  # called before every step: a failed cell abandons the cells after it
            if any(abandoned[: i + 1]):
                raise CancelledError

        loss, sigma_max = grid[i]
        try:  # the trained net is what its checkpoint holds, bit for bit: scoring it scores the checkpoint
            return train(replace(plan, losses=(loss,), sigma_max=(sigma_max,)), stop=stop, corpus=corpus)[0]
        except BaseException:
            abandoned[i] = True
            raise

    workers = usable_cpus()
    with ThreadPoolExecutor(workers) as pool:
        nets = []
        try:
            for path, net in zip(ckpts, pool.map(train_cell, range(len(grid)))):  # in plan order
                if ckpt_dir is not None:
                    save_checkpoint(net, path)
                nets.append(net)
        finally:  # after a failed cell, Ctrl-C or a failed save, the cells still training stop at their next step
            abandoned[:] = [True] * len(grid)
    corpus = None  # every cell has trained: scoring holds no corpus
    test_chunk = lambda a, b: gen_chunk(eval_seed(plan.seed), a, b - a, *plan.eval_size)
    rows = score_set([None, *nets], [(*plan.eval_size, 3)] * plan.eval_count, test_chunk,
                     eval_noise(plan.eval_sigmas, plan.seed), len(plan.eval_sigmas), workers)
    return BenchReport(plan, rows, wall_clock_s=time.perf_counter() - t_start)


def cell_files(plan: Config, ckpt_dir) -> list[str]:
    """The checkpoint file of each (loss, sigma_max) cell of ``plan`` in ``ckpt_dir``, in plan order."""
    return [f"{ckpt_dir}/{loss.label()}_{fmt_float(sm)}.ckpt" for sm in plan.sigma_max for loss in plan.losses]


def eval_noise(sigmas: tuple[float, ...], seed: int):
    """The noisy_of of score_chunk that makes the test noise of run seed ``seed``: level i is ``sigmas[i]``."""
    return lambda clean, first, level: noisy_chunk(clean, sigmas[level], eval_seed(seed), level, first)


def parse_sigmas(text: str) -> tuple[float, ...]:
    """A comma-separated sigma list in the plan-file codec, checked by check_sigmas."""
    try:
        sigmas = _floats(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad sigma list {text!r}: {exc}") from None
    check_sigmas("sigmas", sigmas)
    return sigmas


def fmt_val(v: float) -> str:
    """Fixed 4-decimal text of a score in a CSV table."""
    text = f"{v:.4f}"
    return "0.0000" if text == "-0.0000" else text  # a signed zero would read as a result


def report_to_csv(report: BenchReport) -> str:
    """Serialize the report; identical reports give identical bytes."""
    plan = report.plan
    labels = [s.label() for s in plan.losses]
    cols = [f"{label}_{fmt_float(sm)}" for sm in plan.sigma_max for label in labels]  # the cells of a row, in order
    deltas = [(j, j - j % len(labels)) for j in range(len(cols)) if j % len(labels)]  # (cell, its sigma_max's first loss)
    lines = [
        "# mean reconstruction quality per noise level (std dev, 0-255 scale); "
        "ssim columns extend the plain psnr table; delta columns are computed "
        f"as each loss minus the base loss '{labels[0]}' at the same sigma_max",
        f"# seed={plan.seed} config=fnv64:{fnv1a64(format_config(plan).encode()):016x}",
    ]
    for sigma, ((psnr, ssim), *_) in zip(plan.eval_sigmas, report.rows):
        lines.append(f"# noisy_baseline sigma={fmt_float(sigma)} psnr={fmt_val(psnr)} ssim={fmt_val(ssim)}")
    header = ["sigma"] + [f"{col}_{t}" for col in cols for t in ("psnr", "ssim")]
    header += [f"delta-{cols[j]}_{t}" for j, _ in deltas for t in ("psnr", "ssim")]
    lines.append(",".join(header))
    table = []
    for sigma, (_, *cells) in zip(plan.eval_sigmas, report.rows):
        vals = [v for cell in cells for v in cell]
        vals += [v - base for j, b in deltas for v, base in zip(cells[j], cells[b])]
        table.append(vals)
        lines.append(",".join([fmt_float(sigma)] + [fmt_val(v) for v in vals]))
    means = [float(np.mean(col)) for col in zip(*table)]  # per column: an axis-0 mean sums in another order
    lines.append(",".join(["mean"] + [fmt_val(v) for v in means]))
    return "\n".join(lines) + "\n"


def load_rgb(path, min_side: int) -> np.ndarray:
    """``load_image``; an image that is not RGB (the net's input) or has a side below ``min_side`` raises, naming the file."""
    img = load_image(path)
    if img.shape[2] != 3 or min(img.shape[:2]) < min_side:
        raise InvalidInputError(f"{os.fspath(path)}: need an RGB image at least {min_side}x{min_side}, got shape {img.shape}")
    return img


def denoise_file(ckpt_path, in_path, out_path) -> None:
    """Run a checkpointed model over one image file, in tiles (net.denoise), and save the clamped result."""
    out, _ = denoise(load_checkpoint(ckpt_path), load_rgb(in_path, min_side=1)[None])
    img = np.clip(out[0], 0.0, 1.0, out=out[0])
    img.flags.writeable = False  # so save_image checks it without a copy
    save_image(img, out_path)


# ---------------------------------------------------------------------------
# plan files, a train config being a one-cell plan: plain key=value lines

# The plan keys, in canonical order: each Config field is the key of its name, and
# its annotation, text under `from __future__ import annotations`, picks its codec.
CONFIG_KEYS = tuple((f.name, f.type) for f in fields(Config))

# The lines of two retired keys that perfbench/eval.plan still holds: a loss token
# sets lam and pixel base, so these default values are read as no-ops.
_RETIRED_KEYS = {"lambda": "1", "pixel_base": "l1"}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(","))


def parse_size(token: str) -> tuple[int, int]:
    try:
        h, w = token.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise InvalidInputError(f"expected HxW size, got {token!r}") from None


# Config field annotation -> (parse text, format value)
_CODEC = {
    "int": (int, str),
    "float": (float, fmt_float),
    "tuple[float, ...]": (_floats, lambda v: ",".join(fmt_float(x) for x in v)),
    "tuple[int, int]": (parse_size, lambda v: f"{v[0]}x{v[1]}"),
    "tuple[LossSpec, ...]": (lambda t: tuple(parse_loss(x) for x in t.split(",")), lambda v: ",".join(loss_token(x) for x in v)),
}


def parse_config(text: str, overrides: dict[str, str] | None = None) -> Config:
    """Parse a plan file; ``overrides`` (key -> text) win over its lines.

    Unknown keys, a retired key with a value other than its no-op one, and values
    that do not parse raise InvalidInputError; a left-out key keeps its Config() value.
    """
    kv = {**parse_kv(text), **(overrides or {})}
    keys = dict(CONFIG_KEYS)
    for key, value in kv.items():
        if key in _RETIRED_KEYS and value != _RETIRED_KEYS[key]:
            raise InvalidInputError(f"{key} is no longer a plan key: a loss token luml1:lam:pixel_base sets it, as in losses=luml1:0.5:l2")
        if key not in keys and key not in _RETIRED_KEYS:
            raise InvalidInputError(f"unknown config key {key!r}")
    try:
        values = {key: _CODEC[keys[key]][0](value) for key, value in kv.items() if key in keys}
    except ValueError as exc:
        raise InvalidInputError(f"bad config value: {exc}") from None
    return Config(**values)


def format_config(cfg: Config) -> str:
    """Canonical plan text of ``cfg``, which ``parse_config`` reads back exactly.

    A train config is written as the one-cell plan it is.
    """
    return "".join(f"{key}={_CODEC[vtype][1](getattr(cfg, key))}\n" for key, vtype in CONFIG_KEYS)


def parse_kv(text: str) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blank lines are ignored, a key may appear once."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise InvalidInputError(f"line {ln}: key {key!r} is already set")
        out[key] = value
    return out


def load_plan(path, overrides: dict[str, str] | None = None) -> Config:
    """``parse_config`` of the plan file at ``path``, which must be UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # start is an offset in the file: read() decodes the whole file at once
        raise InvalidInputError(f"{os.fspath(path)}: not UTF-8 text at byte {exc.start}") from None
    return parse_config(text, overrides)
