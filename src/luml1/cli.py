"""Command-line interface.

Exit codes: 0 success, 1 invalid input, 2 numerical failure, 3 I/O or
file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    check_sigmas,
    denoise_file,
    fmt_val,
    load_plan,
    parse_config,
    parse_sigmas,
    parse_size,
    report_to_csv,
    run_bench,
)
from .checkpoint import load_checkpoint
from .dataset import gen_clean, noisy_set
from .errors import FormatError, InvalidInputError, NumericalError
from .gradcheck import run_gradcheck
from .image import clamp01
from .losses import LossSpec, fmt_float, luminance_l1_loss
from .metrics import psnr, ssim
from .net import build_tinynet
from .pnm import load_image, save_image, write_atomic
from .rng import eval_seed, train_seed
from .trainer import mean_scores, train


class _Parser(argparse.ArgumentParser):
    # usage errors are invalid input (exit 1), not argparse's default exit 2
    def error(self, message):
        raise InvalidInputError(message)


def _out_path(path: str) -> str:
    """Argument type of an output file; argparse passes on the OSError of a missing directory (exit 3)."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"directory of output file {path!r} does not exist")
    return path


def cmd_gen(args) -> int:
    h, w = parse_size(args.size)
    check_sigmas("sigma", (args.sigma,))
    images = gen_clean(args.seed, args.count, h, w)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for i, (img, noisy) in enumerate(zip(images, noisy_set(images, args.sigma, args.seed))):
        paths = {
            "clean_ppm": os.path.join(args.out, f"clean_{i:04d}.ppm"),
            "clean_lumf": os.path.join(args.out, f"clean_{i:04d}.lumf"),
            "noisy_ppm": os.path.join(args.out, f"noisy_{i:04d}.ppm"),
            "noisy_lumf": os.path.join(args.out, f"noisy_{i:04d}.lumf"),
        }
        save_image(img, paths["clean_ppm"])
        save_image(img, paths["clean_lumf"])
        save_image(clamp01(noisy), paths["noisy_ppm"])
        save_image(noisy, paths["noisy_lumf"])
        manifest.append(f"{i} {fmt_float(args.sigma)} " + " ".join(paths.values()))
    write_atomic(os.path.join(args.out, "manifest.txt"), "\n".join(manifest) + "\n")
    print(f"wrote {len(images)} clean/noisy pairs to {args.out}")
    return 0


def cmd_train(args) -> int:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    flags = {"loss": args.loss, "lambda": args.lam, "sigma_max": args.sigma_max, "seed": args.seed}
    cfg = parse_config(text, "train", {k: v for k, v in flags.items() if v is not None})
    net = build_tinynet(train_seed(cfg.seed))
    net, log = train(net, cfg, ckpt_path=args.out)
    if log.steps:
        first, last = log.steps[0][1], log.steps[-1][1]
        print(f"trained {cfg.steps} steps ({cfg.loss.label()}): loss {first:.6f} -> {last:.6f}")
    if args.log:
        write_atomic(args.log, log.to_csv())
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    sigmas = parse_sigmas(args.sigmas)
    net = load_checkpoint(args.ckpt)
    names = sorted(
        n for n in os.listdir(args.data) if n.endswith(".ppm") or n.endswith(".lumf")
    )
    if not names:
        raise InvalidInputError(f"no .ppm or .lumf images in {args.data}")
    clean = [load_image(os.path.join(args.data, n)) for n in names]
    lines = ["sigma,psnr,ssim,noisy_psnr,noisy_ssim"]
    for si, sigma in enumerate(sigmas):
        noisy = noisy_set(clean, sigma, eval_seed(args.seed), si)
        scores = mean_scores(net, noisy, clean) + mean_scores(None, noisy, clean)
        lines.append(",".join([fmt_float(sigma)] + [fmt_val(v) for v in scores]))
    text = "\n".join(lines) + "\n"
    write_atomic(args.csv, text)
    print(text, end="")
    return 0


def cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    if args.ckpt_dir:
        os.makedirs(args.ckpt_dir, exist_ok=True)
    report = run_bench(plan, ckpt_dir=args.ckpt_dir)
    write_atomic(args.csv, report_to_csv(report))
    print(f"benchmark finished in {report.wall_clock_s:.1f}s; table written to {args.csv}")
    return 0


def cmd_denoise(args) -> int:
    denoise_file(args.ckpt, args.infile, args.outfile)
    print(f"denoised {args.infile} -> {args.outfile}")
    return 0


def cmd_metric(args) -> int:
    spec = LossSpec("luml1", lam=args.lam)  # checks --lambda before any output
    a = load_image(args.a).data
    b = load_image(args.b).data
    want_any = args.psnr or args.ssim or args.luml1
    if args.psnr or not want_any:
        print(f"psnr {psnr(a, b):.6f}")
    if args.ssim or not want_any:
        print(f"ssim {ssim(a, b):.6f}")
    if args.luml1:
        print(f"luml1 {luminance_l1_loss(a, b, spec).value:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    ok, lines = run_gradcheck(args.seed)
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
    p.add_argument("--config", help="key=value config file")
    # these four override config keys, so the config codec parses and checks them
    p.add_argument("--loss", help="loss token: l1, l2 or luml1[:lam[:pixel_base]]")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--sigma-max", dest="sigma_max")
    p.add_argument("--seed")
    p.add_argument("--log", type=_out_path, help="write the training log CSV here")
    p.add_argument("--out", type=_out_path, required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over a clean-image directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sigmas", default="5,10,15,20,25,30,35,40,45,50,55,60,65,70,75")
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
