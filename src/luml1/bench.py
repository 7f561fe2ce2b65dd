"""Benchmark harness: train one model per (loss, sigma_max) cell, evaluate
PSNR/SSIM across a grid of noise levels, and emit a comparison CSV.

Fairness and reproducibility rules:

* every cell trains from the same run seed, so initialization, clean
  corpus, patch crops, and noise realizations are identical across losses
  -- the loss is the only varying factor;
* evaluation images and noise come from the evaluation seed domain (low
  bit set), disjoint from all training streams (low bit cleared);
* each cell is scored from its checkpoint bytes (float32 parameters), so
  a saved checkpoint reproduces the reported numbers exactly;
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

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import checkpoint_bytes, load_checkpoint, parse_checkpoint, save_checkpoint
from .dataset import MIN_IMAGE_SIZE, gen_clean, noisy_set
from .errors import InvalidInputError
from .fnv import fnv1a64
from .image import Image, clamp01
from .losses import LossSpec, fmt_float, loss_token, parse_loss
from .net import build_tinynet, net_forward
from .pnm import load_image, save_image
from .rng import eval_seed, train_seed
from .trainer import TrainConfig, mean_scores, train

DEFAULT_EVAL_SIGMAS = tuple(float(s) for s in range(5, 80, 5))


@dataclass(frozen=True)
class BenchPlan:
    """Everything a benchmark run depends on.

    ``train`` holds the training knobs of every cell; a cell replaces its
    loss and sigma_max_255. Knobs a plan file cannot carry must keep their
    TrainConfig defaults, so that the config hash names exactly one plan.
    """

    sigma_max_list: tuple[float, ...] = (55.0, 75.0)
    eval_sigmas: tuple[float, ...] = DEFAULT_EVAL_SIGMAS
    losses: tuple[LossSpec, ...] = (LossSpec("l1"), LossSpec("luml1", lam=1.0))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(seed=909))
    eval_count: int = 64
    eval_h: int = 40
    eval_w: int = 40
    hidden_channels: int = 16
    hidden_depth: int = 3

    def __post_init__(self):
        if not self.eval_sigmas:
            raise InvalidInputError("eval_sigmas must not be empty")
        if any(b <= a for a, b in zip(self.eval_sigmas, self.eval_sigmas[1:])):
            raise InvalidInputError("eval_sigmas must be strictly increasing")
        if not self.losses or not self.sigma_max_list:
            raise InvalidInputError("need at least one loss and one sigma_max")
        check_sigmas("sigma_max", self.sigma_max_list)
        check_sigmas("eval_sigmas", self.eval_sigmas)
        labels = [s.label() for s in self.losses]
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"loss labels collide: {labels}")
        unset = TrainConfig()
        for _, files, _, name in CONFIG_KEYS:
            if files == "train" and getattr(self.train, name) != getattr(unset, name):
                raise InvalidInputError(f"a plan cannot set the training knob {name!r}")
        if self.eval_count < 1 or min(self.eval_h, self.eval_w) < MIN_IMAGE_SIZE:
            raise InvalidInputError(f"eval_count must be >= 1 and eval_size at least {MIN_IMAGE_SIZE}x{MIN_IMAGE_SIZE}")
        if self.hidden_depth < 0 or self.hidden_channels < 1:
            raise InvalidInputError("hidden_depth must be >= 0 and hidden_channels >= 1")


@dataclass
class BenchReport:
    plan: BenchPlan
    cells: dict  # (loss label, sigma_max, sigma) -> (mean PSNR, mean SSIM)
    noisy: dict  # sigma -> (mean PSNR, mean SSIM) of the clamped noisy input
    wall_clock_s: float = 0.0  # not serialized: reports must be byte-stable


def run_bench(plan: BenchPlan, ckpt_dir=None) -> BenchReport:
    """Train and evaluate every (loss, sigma_max) cell of the plan."""
    t_start = time.perf_counter()
    es = eval_seed(plan.train.seed)
    clean = gen_clean(es, plan.eval_count, plan.eval_h, plan.eval_w)
    noisy_sets = [noisy_set(clean, sigma, es, si) for si, sigma in enumerate(plan.eval_sigmas)]
    noisy = {sigma: mean_scores(None, ns, clean) for sigma, ns in zip(plan.eval_sigmas, noisy_sets)}
    cells = {}
    for sigma_max in plan.sigma_max_list:
        for loss in plan.losses:
            net = build_tinynet(
                train_seed(plan.train.seed),
                hidden_channels=plan.hidden_channels,
                hidden_depth=plan.hidden_depth,
            )
            train(net, replace(plan.train, loss=loss, sigma_max_255=sigma_max))
            net = parse_checkpoint(checkpoint_bytes(net), "trained net")  # score what a checkpoint holds
            if ckpt_dir is not None:
                save_checkpoint(net, f"{ckpt_dir}/{loss.label()}_{fmt_float(sigma_max)}.ckpt")
            for sigma, ns in zip(plan.eval_sigmas, noisy_sets):
                cells[(loss.label(), sigma_max, sigma)] = mean_scores(net, ns, clean)
    return BenchReport(plan, cells, noisy, wall_clock_s=time.perf_counter() - t_start)


def check_sigmas(what: str, sigmas: tuple[float, ...]) -> None:
    """Reject negative, non-finite or repeated sigmas: a sigma's label names a CSV column or row and a checkpoint."""
    if not all(np.isfinite(s) and s >= 0.0 for s in sigmas):
        raise InvalidInputError(f"{what} must be finite and nonnegative")
    if len(set(sigmas)) != len(sigmas):
        raise InvalidInputError(f"{what} repeats a value: {[fmt_float(s) for s in sigmas]}")


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
    lines = [
        "# mean reconstruction quality per noise level (std dev, 0-255 scale); "
        "ssim columns extend the plain psnr table; delta columns are computed "
        f"as each loss minus the base loss '{labels[0]}' at the same sigma_max",
        f"# seed={plan.train.seed} config=fnv64:{fnv1a64(format_config(plan).encode()):016x}",
    ]
    for sigma in plan.eval_sigmas:
        psnr, ssim = report.noisy[sigma]
        lines.append(f"# noisy_baseline sigma={fmt_float(sigma)} psnr={fmt_val(psnr)} ssim={fmt_val(ssim)}")
    cols = [(label, sm) for sm in plan.sigma_max_list for label in labels]
    deltas = [(label, sm) for sm in plan.sigma_max_list for label in labels[1:]]
    header = ["sigma"] + [f"{label}_{fmt_float(sm)}_{t}" for label, sm in cols for t in ("psnr", "ssim")]
    header += [f"delta-{label}_{fmt_float(sm)}_{t}" for label, sm in deltas for t in ("psnr", "ssim")]
    lines.append(",".join(header))
    rows = []
    for sigma in plan.eval_sigmas:
        vals = [v for label, sm in cols for v in report.cells[(label, sm, sigma)]]
        for label, sm in deltas:
            psnr, ssim = report.cells[(label, sm, sigma)]
            base_psnr, base_ssim = report.cells[(labels[0], sm, sigma)]
            vals += [psnr - base_psnr, ssim - base_ssim]
        rows.append(vals)
        lines.append(",".join([fmt_float(sigma)] + [fmt_val(v) for v in vals]))
    means = [float(np.mean(col)) for col in zip(*rows)]
    lines.append(",".join(["mean"] + [fmt_val(v) for v in means]))
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> dict:
    """Parse a report CSV back into its values.

    Returns a dict with ``columns`` (header names after ``sigma``), ``rows``
    mapping sigma -> list of floats, ``mean`` (list of floats), and
    ``noisy`` mapping sigma -> (psnr, ssim) from the baseline comments.
    """
    noisy = {}
    header = None
    rows = {}
    mean = None
    for line in text.splitlines():
        if line.startswith("#"):
            if "noisy_baseline" in line:
                parts = dict(p.split("=") for p in line.split() if "=" in p)
                noisy[float(parts["sigma"])] = (float(parts["psnr"]), float(parts["ssim"]))
            continue
        if not line.strip():
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if cells[0] == "mean":
            mean = [float(c) for c in cells[1:]]
        else:
            rows[float(cells[0])] = [float(c) for c in cells[1:]]
    if header is None:
        raise InvalidInputError("CSV has no header row")
    return {"columns": header[1:], "rows": rows, "mean": mean, "noisy": noisy}


def denoise_file(ckpt_path, in_path, out_path) -> None:
    """Run a checkpointed model over one image file and save the clamped result."""
    net = load_checkpoint(ckpt_path)
    img = load_image(in_path)
    out, _ = net_forward(net, img.data)
    save_image(clamp01(Image(out)), out_path)


# ---------------------------------------------------------------------------
# plan and train config files: plain key=value lines

# The one key table of both file kinds: (key, file kinds, value type, field).
# A key that train config files accept sets a TrainConfig field (in a plan,
# one of BenchPlan.train); a plan-only key sets a BenchPlan field. lambda and
# pixel_base set no field: they make the LossSpec that a bare luml1 loss token
# means, so both are checked whatever the losses are. Rows are in canonical order.
CONFIG_KEYS = (
    ("sigma_max", "plan", "floats", "sigma_max_list"),
    ("eval_sigmas", "plan", "floats", "eval_sigmas"),
    ("losses", "plan", "losses", "losses"),
    ("loss", "train", "loss", "loss"),
    ("lambda", "plan train", "float", None),
    ("pixel_base", "plan train", "str", None),
    ("steps", "plan train", "int", "steps"),
    ("batch_size", "plan train", "int", "batch_size"),
    ("lr", "plan train", "float", "lr"),
    ("adam_beta1", "train", "float", "adam_beta1"),
    ("adam_beta2", "train", "float", "adam_beta2"),
    ("adam_eps", "train", "float", "adam_eps"),
    ("sigma_max", "train", "float", "sigma_max_255"),
    ("patch_size", "plan train", "int", "patch_size"),
    ("corpus_count", "plan train", "int", "corpus_count"),
    ("corpus_size", "plan train", "size", "corpus_h corpus_w"),
    ("checkpoint_every", "train", "int", "checkpoint_every"),
    ("eval_count", "plan", "int", "eval_count"),
    ("eval_size", "plan", "size", "eval_h eval_w"),
    ("hidden_channels", "plan", "int", "hidden_channels"),
    ("hidden_depth", "plan", "int", "hidden_depth"),
    ("seed", "plan train", "int", "seed"),
)


def _keys(kind: str) -> list[tuple]:
    return [row for row in CONFIG_KEYS if kind in row[1].split()]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(","))


def _codec(default: LossSpec) -> dict:
    """Value type -> (parse text, format value); ``default`` is the spec a bare luml1 token means."""
    return {
        "int": (int, str),
        "float": (float, fmt_float),
        "str": (str, str),
        "floats": (_floats, lambda v: ",".join(fmt_float(x) for x in v)),
        "size": (parse_size, lambda v: f"{v[0]}x{v[1]}"),
        "loss": (lambda t: parse_loss(t, default), lambda v: loss_token(v, default)),
        "losses": (
            lambda t: tuple(parse_loss(x, default) for x in t.split(",")),
            lambda v: ",".join(loss_token(x, default) for x in v),
        ),
    }


def parse_config(text: str, kind: str, overrides: dict[str, str] | None = None) -> BenchPlan | TrainConfig:
    """Parse a ``kind`` ("plan" or "train") file; ``overrides`` (key -> text) win over its lines.

    Returns a BenchPlan or a TrainConfig. Keys the file kind does not accept
    and values that do not parse raise InvalidInputError.
    """
    kv = {**parse_kv(text), **(overrides or {})}
    rows = _keys(kind)
    known = {row[0] for row in rows}
    for key in kv:
        if key not in known:
            raise InvalidInputError(f"unknown {'config' if kind == 'train' else kind} key {key!r}")
    train_fields, plan_fields = {}, {}
    try:
        codec = _codec(LossSpec("luml1", float(kv.get("lambda", "1")), kv.get("pixel_base", "l1")))
        for key, files, vtype, name in rows:
            if name is not None and key in kv:
                value = codec[vtype][0](kv[key])
                names = name.split()
                target = train_fields if "train" in files else plan_fields
                target.update(zip(names, value) if len(names) > 1 else [(name, value)])
    except ValueError as exc:
        raise InvalidInputError(f"bad {kind} value: {exc}") from None
    if kind == "train":
        return TrainConfig(**train_fields)
    return BenchPlan(train=replace(BenchPlan().train, **train_fields), **plan_fields)


def format_config(obj: BenchPlan | TrainConfig) -> str:
    """Canonical key=value text of a plan or train config; parse_config reads it back exactly."""
    kind = "plan" if isinstance(obj, BenchPlan) else "train"
    train_cfg = obj.train if kind == "plan" else obj
    losses = obj.losses if kind == "plan" else (obj.loss,)
    default = next((s for s in losses if s.kind == "luml1"), LossSpec("luml1"))
    codec = _codec(default)
    lines = []
    for key, files, vtype, name in _keys(kind):
        if name is None:
            value = default.lam if key == "lambda" else default.pixel_base
        else:
            src = train_cfg if "train" in files else obj
            value = tuple(getattr(src, n) for n in name.split())
            value = value[0] if len(value) == 1 else value
        lines.append(f"{key}={codec[vtype][1](value)}")
    return "\n".join(lines) + "\n"


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


def parse_size(token: str) -> tuple[int, int]:
    try:
        h, w = token.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise InvalidInputError(f"expected HxW size, got {token!r}") from None


def load_plan(path) -> BenchPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), "plan")
