"""The micro bench's CSV under two OpenBLAS kernels, each in a child process.

``OPENBLAS_CORETYPE`` picks the kernel of a DYNAMIC_ARCH OpenBLAS for one
process, which stands in for another CPU. Training and SSIM both run through
its gemm kernels, so this checks that the CSV's PSNR and SSIM columns do not
depend on the kernel. Where numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, or
the CPU cannot run a kernel, the test is skipped with the reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pins import MICRO_PLAN

KERNELS = ("Haswell", "SkylakeX")

# Runs the bench, then prints the config and core name of the OpenBLAS that numpy loaded, if any.
CHILD = """
import ctypes, sys
from luml1.cli import main

rc = main(["bench", "--plan", sys.argv[1], "--csv", sys.argv[2]])
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
for path, prefix, suffix in ((p, x, s) for p in libs for x in ("scipy_openblas", "openblas") for s in ("64_", "")):
    config = getattr(ctypes.CDLL(path), f"{prefix}_get_config{suffix}", None)
    core = getattr(ctypes.CDLL(path), f"{prefix}_get_corename{suffix}", None)
    if config is not None and core is not None:
        config.restype = core.restype = ctypes.c_char_p
        print(config().decode())
        print(core().decode())
        break
sys.exit(rc)
"""


def run_micro_plan(tmp_path: Path, kernel: str) -> tuple[bytes, list[str]]:
    """The micro plan's CSV bytes under ``kernel``, and the child's printed BLAS config and core name."""
    out = tmp_path / kernel
    out.mkdir()
    (out / "micro.plan").write_text(MICRO_PLAN)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel}
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(out / "micro.plan"), str(out / "table.csv")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return (out / "table.csv").read_bytes(), result.stdout.splitlines()[-2:]


def test_micro_bench_csv_is_the_same_under_two_blas_kernels(tmp_path):
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find numpy's BLAS library in")
    csvs = []
    for kernel in KERNELS:
        csv, blas = run_micro_plan(tmp_path, kernel)
        if len(blas) != 2 or "DYNAMIC_ARCH" not in blas[0].split():
            pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS (it reports {blas or 'nothing'})")
        if blas[1].lower() != kernel.lower():
            pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel: it ran {blas[1]}")
        csvs.append(csv)
    assert csvs[0] == csvs[1]
