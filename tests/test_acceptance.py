"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. The benchmark-based criteria share two full runs of the
fast preset, on 1 and on 2 worker threads (the second run exists to check
determinism for any worker count).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import luml1.bench
from luml1.cli import main
from luml1.gradcheck import check_net_gradients, loss_gradient_suite
from luml1.image import to_grayscale
from luml1.losses import LossSpec, eval_loss, l1_loss, l2_loss, luminance_term
from luml1.metrics import psnr, ssim
from luml1.rng import stream

from conftest import rand_pair
from oracles import parse_report_csv, ssim_bruteforce

SEED = 9
FAST_PLAN = Path(__file__).resolve().parents[1] / "plans" / "fast.plan"


def criterion(number: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Two CLI executions of the fast preset, on 1 and on 2 worker threads; returns paths and wall times."""
    runs = []
    for tag, workers in (("one", 1), ("two", 2)):
        work = tmp_path_factory.mktemp(f"bench_{tag}")
        csv_path = work / "table.csv"
        ckpt_dir = work / "ckpts"
        t0 = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(luml1.bench, "usable_cpus", lambda: workers)
            rc = main([
                "bench", "--plan", str(FAST_PLAN), "--csv", str(csv_path),
                "--ckpt-dir", str(ckpt_dir),
            ])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        runs.append({"csv": csv_path, "ckpt_dir": ckpt_dir, "seconds": elapsed})
    return runs


def test_criterion_1_loss_gradient_suite():
    t0 = time.perf_counter()
    results = loss_gradient_suite(SEED)
    elapsed = time.perf_counter() - t0
    names = [r.name for r in results]
    assert any("l1" == n for n in names) and any("l2" == n for n in names)
    assert "luminance_term" in names
    assert sum(1 for n in names if n.startswith("luml1")) == 3  # lam in {0.5, 1, 2}
    ok = all(r.ok for r in results) and elapsed < 10.0
    detail = "; ".join(f"{r.name} err={r.max_rel_err:.2e}" for r in results) + f"; {elapsed:.1f}s"
    criterion(1, "loss gradient suite", ok, detail)


def test_criterion_2_network_gradient_suite():
    t0 = time.perf_counter()
    result = check_net_gradients(SEED)
    elapsed = time.perf_counter() - t0
    ok = result.ok and result.checked > 0 and result.excluded == 0 and elapsed < 30.0
    criterion(
        2,
        "network gradient suite",
        ok,
        f"{result.checked} parameters, max err {result.max_rel_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_metric_oracles():
    a = np.zeros((8, 8, 3))
    b = np.full((8, 8, 3), 0.1)
    psnr_err = abs(psnr(a, b) - 20.0)

    rng = stream(SEED, 60)
    img = rng.random((16, 16, 3))
    self_err = abs(ssim(img, img) - 1.0)

    worst_bruteforce = 0.0
    for k in range(5):
        pair_rng = stream(SEED, 61, k)
        x = pair_rng.random((16, 16, 3))
        y = pair_rng.random((16, 16, 3))
        expected = ssim_bruteforce(to_grayscale(x)[:, :, 0], to_grayscale(y)[:, :, 0])
        worst_bruteforce = max(worst_bruteforce, abs(ssim(x, y) - expected))

    ok = psnr_err < 1e-9 and self_err < 1e-12 and worst_bruteforce < 1e-9
    criterion(
        3,
        "metric oracles",
        ok,
        f"psnr err {psnr_err:.1e}, ssim self err {self_err:.1e}, brute-force err {worst_bruteforce:.1e}",
    )


def test_criterion_4_loss_algebra():
    failures = []

    # additivity across lambda, exact
    pred, target = rand_pair(SEED, 8, 8)
    pixel = l1_loss(pred, target).value
    lum = luminance_term(pred, target).value
    for lam in (0.0, 0.5, 1.0, 2.0):
        combined = eval_loss(LossSpec(lam=lam), pred, target).value
        if abs(combined - (pixel + lam * lum)) > 1e-12:
            failures.append(f"additivity lam={lam}")

    # lambda = 0 bit-equivalence
    zero = eval_loss(LossSpec(lam=0.0), pred, target)
    base = l1_loss(pred, target)
    if zero.value != base.value or not np.array_equal(zero.grad, base.grad):
        failures.append("lam=0 bit-equivalence")

    # metamer null space
    rng = stream(SEED, 62)
    img = rng.random((6, 6, 3))
    w = np.array([0.2989, 0.5870, 0.1140])
    bump = rng.uniform(-0.1, 0.1, size=(6, 6, 1)) * np.array([w[1], -w[0], 0.0]) + rng.uniform(
        -0.1, 0.1, size=(6, 6, 1)
    ) * np.array([0.0, w[2], -w[1]])
    if luminance_term(img + bump, img).value >= 1e-12:
        failures.append("metamer null space")

    # symmetry and homogeneity on 100 random pairs each
    for seed in range(100):
        p, t = rand_pair(seed, 4, 4)
        if l1_loss(p, t).value != l1_loss(t, p).value:
            failures.append(f"l1 symmetry seed={seed}")
        if l2_loss(p, t).value != l2_loss(t, p).value:
            failures.append(f"l2 symmetry seed={seed}")
        spec = LossSpec(lam=1.0)
        if eval_loss(spec, p, t).value != eval_loss(spec, t, p).value:
            failures.append(f"luml1 symmetry seed={seed}")
        k = 0.5 + (seed % 5)
        if abs(l1_loss(k * p, k * t).value - k * l1_loss(p, t).value) > 1e-12 * k:
            failures.append(f"l1 homogeneity seed={seed}")
        if (
            abs(l2_loss(k * p, k * t).value - k * k * l2_loss(p, t).value)
            > 1e-12 * k * k
        ):
            failures.append(f"l2 homogeneity seed={seed}")

    criterion(4, "loss algebra", not failures, "; ".join(failures) or "100 pairs per property")


def test_criterion_5_determinism(bench_runs):
    a, b = bench_runs
    csv_equal = a["csv"].read_bytes() == b["csv"].read_bytes()
    names = sorted(p.name for p in a["ckpt_dir"].iterdir())
    bytes_equal = all(
        (a["ckpt_dir"] / n).read_bytes() == (b["ckpt_dir"] / n).read_bytes() for n in names
    )
    criterion(
        5,
        "benchmark determinism",
        csv_equal and bytes_equal,
        f"1 vs 2 workers: csv identical: {csv_equal}; {len(names)} checkpoints identical: {bytes_equal}",
    )


def test_criterion_6_smoke_benchmark(bench_runs):
    run = bench_runs[0]
    parsed = parse_report_csv(run["csv"].read_text())
    cols = parsed["columns"]
    row15 = parsed["rows"][15.0]
    noisy15 = parsed["noisy"][15.0][0]
    gains = {}
    for label in ("l1", "luml1"):
        gains[label] = row15[cols.index(f"{label}_25_psnr")] - noisy15
    ok = all(g >= 2.0 for g in gains.values()) and run["seconds"] < 600.0
    criterion(
        6,
        "end-to-end smoke benchmark",
        ok,
        f"gain over noisy at sigma=15: l1 {gains['l1']:+.2f} dB, luml1 {gains['luml1']:+.2f} dB "
        f"(need >= +2); bench took {run['seconds']:.0f}s",
    )


def test_criterion_7_delta_report(bench_runs):
    parsed = parse_report_csv(bench_runs[0]["csv"].read_text())
    cols = parsed["columns"]
    i_delta = cols.index("delta-luml1_25_psnr")
    i_base = cols.index("l1_25_psnr")
    i_ours = cols.index("luml1_25_psnr")
    consistent = True
    deltas = {}
    for sigma, vals in sorted(parsed["rows"].items()):
        deltas[sigma] = vals[i_delta]
        if abs(vals[i_delta] - round(vals[i_ours] - vals[i_base], 4)) > 5e-4:
            consistent = False
    signs = " ".join(f"{s:g}:{d:+.2f}" for s, d in deltas.items())
    mean_delta = np.mean(list(deltas.values()))
    criterion(
        7,
        "combined-minus-base delta report",
        consistent and len(deltas) == 15,
        f"per-sigma deltas(dB) {signs}; mean {mean_delta:+.3f} (reported, not asserted)",
    )


def test_criterion_8_psnr_monotonicity(bench_runs):
    parsed = parse_report_csv(bench_runs[0]["csv"].read_text())
    cols = parsed["columns"]
    sigmas = sorted(parsed["rows"])
    worst = -math.inf
    ok = True
    for label in ("l1", "luml1"):
        col = cols.index(f"{label}_25_psnr")
        series = [parsed["rows"][s][col] for s in sigmas]
        for lo, hi in zip(series, series[1:]):
            worst = max(worst, hi - lo)
            if hi > lo + 0.2:
                ok = False
    criterion(
        8,
        "psnr monotonicity in noise level",
        ok,
        f"largest increase between adjacent levels {worst:+.3f} dB (slack 0.2)",
    )


def test_criterion_9_cli_contract(bench_runs, tmp_path, capsys):
    rc_grad = main(["gradcheck", "--seed", str(SEED)])

    ckpt_dir = bench_runs[0]["ckpt_dir"]
    good = sorted(ckpt_dir.iterdir())[0]
    corrupted = tmp_path / "corrupt.ckpt"
    raw = bytearray(good.read_bytes())
    raw[len(raw) // 2] ^= 0x01  # flip one stored kernel bit
    corrupted.write_bytes(bytes(raw))
    src = tmp_path / "in.ppm"
    rc_gen = main(["gen", "--seed", "1", "--count", "1", "--size", "40x40", "--out", str(tmp_path / "d")])
    (tmp_path / "d" / "clean_0000.ppm").rename(src)
    rc_denoise = main(["denoise", "--ckpt", str(corrupted), "--in", str(src), "--out", str(tmp_path / "o.ppm")])
    err = capsys.readouterr().err
    ok = rc_grad == 0 and rc_gen == 0 and rc_denoise in (2, 3) and "checksum" in err
    criterion(
        9,
        "cli contract",
        ok,
        f"gradcheck rc={rc_grad}; corrupted-checkpoint denoise rc={rc_denoise} with checksum diagnostic",
    )
