"""Luminance-aware L1 training loss with a desk-scale blind-denoising benchmark.

The package provides:

* a combined loss (pixel L1 plus a weighted L1 penalty on the luminance
  projections of prediction and target) with analytic gradients,
* plain L1/L2 losses and MSE/PSNR/SSIM metrics,
* a tiny residual convolutional denoiser with hand-written backprop,
* a deterministic Adam training loop over synthetic blind-noise data, and
* a benchmark harness that compares losses across noise levels and emits
  CSV tables.
"""

import os

# One BLAS thread unless the user sets another count: `luml1 bench` runs one
# worker thread per usable CPU, and BLAS threads on top of those oversubscribe
# the cores (README "Performance"). numpy reads these when it loads its BLAS,
# so they go first; they have no effect if numpy was imported before luml1.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .bench import (
    BenchReport,
    Config,
    denoise_file,
    load_plan,
    report_to_csv,
    run_bench,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import gen_clean, make_blind_batches
from .errors import (
    CorruptCheckpointError,
    FormatError,
    InvalidInputError,
    LumL1Error,
    NumericalError,
)
from .image import LUMA_WEIGHTS, Image, to_grayscale
from .losses import (
    LossOutput,
    LossSpec,
    eval_loss,
    l1_loss,
    l2_loss,
    luminance_term,
)
from .metrics import mse, psnr, ssim
from .net import (
    ConvLayer,
    TinyNet,
    build_tinynet,
    net_backward,
    net_forward,
)
from .pnm import load_image, save_image
from .trainer import AdamState, TrainLog, adam_step, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BenchReport",
    "Config",
    "ConvLayer",
    "CorruptCheckpointError",
    "FormatError",
    "Image",
    "InvalidInputError",
    "LossOutput",
    "LossSpec",
    "LUMA_WEIGHTS",
    "LumL1Error",
    "NumericalError",
    "TinyNet",
    "TrainLog",
    "adam_step",
    "build_tinynet",
    "denoise_file",
    "eval_loss",
    "gen_clean",
    "l1_loss",
    "l2_loss",
    "load_checkpoint",
    "load_image",
    "load_plan",
    "luminance_term",
    "make_blind_batches",
    "mse",
    "net_backward",
    "net_forward",
    "psnr",
    "report_to_csv",
    "run_bench",
    "save_checkpoint",
    "save_image",
    "ssim",
    "to_grayscale",
    "train",
]
