"""Command-line interface.

Exit codes: 0 success, 1 invalid input, 2 numerical failure, 3 I/O or
file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    Config,
    cell_files,
    denoise_file,
    eval_noise,
    fmt_val,
    load_plan,
    load_rgb,
    parse_config,
    parse_sigmas,
    parse_size,
    report_to_csv,
    run_bench,
    usable_cpus,
)
from .checkpoint import load_checkpoint
from .dataset import check_sigmas, gen_clean, noisy_chunk
from .errors import FormatError, InvalidInputError, NumericalError
from .gradcheck import run_gradcheck
from .image import Image
from .losses import LossSpec, eval_loss, fmt_float
from .metrics import SSIM_WINDOW, psnr, ssim
from .pnm import image_encoder, load_image, save_image, write_atomic
from .rng import check_seed
from .trainer import score_set, train


class _Parser(argparse.ArgumentParser):
    # usage errors are invalid input (exit 1), not argparse's default exit 2
    def error(self, message):
        raise InvalidInputError(message)


def _out_path(path: str) -> str:
    """Argument type of an output file; argparse passes on the OSError of a missing directory or of a path that is
    a directory (exit 3)."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"directory of output file {path!r} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output file {path!r} is an existing directory")
    return path


def _distinct_outputs(*paths: str | None) -> None:
    """Raise InvalidInputError if two of a command's output paths (None: not written) name one file."""
    real = [os.path.realpath(path) for path in paths if path is not None]
    if len(set(real)) < len(real):
        raise InvalidInputError(f"two outputs name one file, {max(real, key=real.count)!r}")


def cmd_gen(args) -> int:
    h, w = parse_size(args.size)
    check_sigmas("sigma", (args.sigma,))
    if args.count < 1:
        raise InvalidInputError(f"count must be >= 1, got {args.count}")
    images = gen_clean(check_seed(args.seed), args.count, h, w)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for i, img in enumerate(images):
        noisy = Image(noisy_chunk(img.data[None], args.sigma, args.seed, 0, i)[0])
        paths = []
        for kind, im in (("clean", img), ("noisy", noisy)):
            for ext in ("ppm", "lumf"):
                paths.append(os.path.join(args.out, f"{kind}_{i:04d}.{ext}"))
                save_image(im, paths[-1])
        manifest.append(f"{i} {fmt_float(args.sigma)} " + " ".join(paths))
    write_atomic(os.path.join(args.out, "manifest.txt"), "\n".join(manifest) + "\n")
    print(f"wrote {len(images)} clean/noisy pairs to {args.out}")
    return 0


def cmd_train(args) -> int:
    flags = {"losses": args.loss, "sigma_max": args.sigma_max, "seed": args.seed}
    overrides = {k: v for k, v in flags.items() if v is not None}
    cfg = load_plan(args.config, overrides) if args.config else parse_config("", overrides)
    _distinct_outputs(args.out, args.log)
    _, log = train(cfg, ckpt_path=args.out, checkpoint_every=args.checkpoint_every)
    if log.steps:
        first, last = log.steps[0][1], log.steps[-1][1]
        print(f"trained {cfg.steps} steps ({cfg.losses[0].label()}): loss {first:.6f} -> {last:.6f}")
    if args.log:
        write_atomic(args.log, log.to_csv())
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    sigmas = parse_sigmas(args.sigmas)
    check_seed(args.seed)
    net = load_checkpoint(args.ckpt)
    names = sorted(n for n in os.listdir(args.data) if n.endswith((".ppm", ".lumf")))
    if not names:
        raise InvalidInputError(f"no .ppm or .lumf images in {args.data}")
    clean = [load_rgb(os.path.join(args.data, n), SSIM_WINDOW).data for n in names]  # all checked before any scoring
    lines = ["sigma,psnr,ssim,noisy_psnr,noisy_ssim"]
    noisy_of, shapes = eval_noise(sigmas, args.seed), [c.shape for c in clean]
    rows = score_set([None, net], shapes, lambda a, b: np.stack(clean[a:b]), noisy_of, len(sigmas), usable_cpus())
    for sigma, (baseline, scores) in zip(sigmas, rows):
        lines.append(",".join([fmt_float(sigma)] + [fmt_val(v) for v in scores + baseline]))
    text = "\n".join(lines) + "\n"
    write_atomic(args.csv, text)
    print(text, end="")
    return 0


def cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    if args.ckpt_dir:
        _distinct_outputs(args.csv, *cell_files(plan, args.ckpt_dir))
        os.makedirs(args.ckpt_dir, exist_ok=True)
    report = run_bench(plan, ckpt_dir=args.ckpt_dir)
    write_atomic(args.csv, report_to_csv(report))
    print(f"benchmark finished in {report.wall_clock_s:.1f}s; table written to {args.csv}")
    return 0


def cmd_denoise(args) -> int:
    image_encoder(args.outfile)  # an unsupported extension fails before the checkpoint is read
    denoise_file(args.ckpt, args.infile, args.outfile)
    print(f"denoised {args.infile} -> {args.outfile}")
    return 0


def cmd_metric(args) -> int:
    spec = LossSpec(lam=args.lam)  # checks --lambda before any output
    a = load_image(args.a).data
    b = load_image(args.b).data
    want_any = args.psnr or args.ssim or args.luml1
    lines = []  # every value is computed before any is printed: a failing one prints nothing
    if args.psnr or not want_any:
        lines.append(f"psnr {psnr(a, b):.6f}")
    if args.ssim or not want_any:
        lines.append(f"ssim {ssim(a, b):.6f}")
    if args.luml1:
        lines.append(f"luml1 {eval_loss(spec, a, b).value:.6f}")
    print("\n".join(lines))
    return 0


def cmd_gradcheck(args) -> int:
    ok, lines = run_gradcheck(check_seed(args.seed))
    for line in lines:
        print(line)
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="luml1", description="Luminance-aware L1 loss and blind-denoising benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic clean/noisy corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", required=True, help="image size as HxW")
    p.add_argument("--sigma", type=float, default=25.0, help="noise std dev on the 0-255 scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a denoiser")
    p.add_argument("--config", help="plan file with one loss and one sigma_max")
    # these three override config keys, so the config codec parses and checks them
    p.add_argument("--loss", help="loss token: l1, l2 or luml1[:lam[:pixel_base]]")
    p.add_argument("--sigma-max", dest="sigma_max")
    p.add_argument("--seed")
    p.add_argument("--log", type=_out_path, help="write the training log CSV here")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N", help="also save and validate every N steps")
    p.add_argument("--out", type=_out_path, required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a clean-image directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    sigmas = ",".join(fmt_float(s) for s in Config().eval_sigmas)
    p.add_argument("--sigmas", default=sigmas, help="comma-separated noise levels (default 5,10,...,75)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", type=_out_path, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a full benchmark plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--csv", type=_out_path, required=True)
    p.add_argument("--ckpt-dir", dest="ckpt_dir", help="also save per-cell checkpoints here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("denoise", help="denoise one image with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", type=_out_path, required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("metric", help="compare two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--psnr", action="store_true")
    p.add_argument("--ssim", action="store_true")
    p.add_argument("--luml1", action="store_true")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=9)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
