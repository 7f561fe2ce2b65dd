#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark, with nothing timed.

    python3 perfbench/selftest.py

Runs every workload kind at a tiny size through the same child-process,
measurement, tracing and check code as run.py, stops a traced pair of the
eval workload at a 4 s time limit, then shows that each checker rejects a
corrupted output. Prints one line per case; exits 1 at
the first case that does not hold.
"""

from __future__ import annotations

import shutil
import sys
import time

import numpy as np
from scipy.signal import correlate

import checks
import run
from checks import CheckFailed

TINY_PLAN = """sigma_max=25
eval_sigmas=5,15,25
losses={losses}
lambda=1
pixel_base=l1
steps=4
batch_size=2
lr=0.001
patch_size=8
corpus_count=4
corpus_size=16x16
eval_count=3
eval_size=16x16
hidden_channels=16
hidden_depth=3
"""
TINY_TRAIN = "steps=6\nbatch_size=2\nlr=0.001\nsigma_max=25\npatch_size=8\ncorpus_count=4\ncorpus_size=16x16\n"

GOOD_TABLE = {  # a well-trained one-cell result, for the quality checks
    "header": ["sigma", "luml1_25_psnr", "luml1_25_ssim"],
    "rows": [(5.0, [40.0, 0.97]), (15.0, [31.0, 0.90]), (25.0, [27.0, 0.80])],
    "noisy": {5.0: (34.2, 0.95), 15.0: (24.7, 0.70), 25.0: (20.3, 0.49)},
}


def expect(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        sys.exit(1)


def rejects(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed as exc:
        expect(f"{name} (rejected: {exc})", True)
    else:
        expect(f"{name} (accepted)", False)


def tiny_workloads(root) -> list:
    fast = root / "tiny-fast.plan"
    fast.write_text(TINY_PLAN.format(losses="l1,luml1") + "seed=909\n", encoding="utf-8")
    one = root / "tiny-eval.plan"
    one.write_text(TINY_PLAN.format(losses="luml1"), encoding="utf-8")
    cfg = root / "tiny-train.cfg"
    cfg.write_text(TINY_TRAIN, encoding="utf-8")
    return [
        run.BenchWorkload("tiny-fast-plan", fast, seeded=False, margin_db=None),
        run.TrainWorkload("tiny-train", cfg, margin_db=None),
        run.BenchWorkload("tiny-eval", one, seeded=True, margin_db=None, runs=3),
    ]


def main() -> int:
    run.preflight()
    root = run.OUT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    store = root / "digests.json"
    sessions = {}
    for w in tiny_workloads(root):
        s = run.Session(w, 3, root / w.name, store)
        values = run.measure(s)
        expect(f"{w.name}: runs, passes its checks, reports every end-to-end metric",
               not s.problems and s.failed == 0 and s.attempted == w.runs
               and set(values) == set(run.metric_units("end_to_end"))
               and all(v > 0 for v in values.values()))
        sessions[w.name] = s
    traced = {}
    for name in ("tiny-fast-plan", "tiny-train"):
        s = run.Session(sessions[name].workload, 3, root / f"{name}-traced", store)
        traced[name] = run.measure_traced(s)
        expect(f"{name}: traced pair reports every per-layer metric, outputs unchanged",
               not s.problems and set(traced[name]) == set(run.metric_units("per_layer")))
    bench_spans, train_spans = traced["tiny-fast-plan"], traced["tiny-train"]
    expect("tracer: bench phases seen only under bench, no backward pass while scoring",
           bench_spans["bench.cell_train_s"] > 0 and bench_spans["bench.cell_eval_s"] > 0
           and train_spans["bench.cell_train_s"] == 0 and bench_spans["net.eval_conv_backward_calls"] == 0)
    expect("tracer: 2 cells x 4 steps x 2 patches x 5 layers of conv_backward",
           bench_spans["net.conv_backward_calls"] == 80 and bench_spans["dataset.patches"] == 16)

    s = run.Session(run.WORKLOADS["eval"], 1, root / "eval-limited", store)
    s.deadline = time.monotonic() + 4.0  # the eval workload takes longer than this
    spans = run.measure_traced(s)
    expect("a traced pair still running at the time limit is stopped, counted as failed, "
           "and reports the spans recorded so far",
           s.attempted == 2 and s.failed == 2 and set(spans) == set(run.metric_units("per_layer"))
           and spans["net.conv_forward_calls"] > 0)

    # independent pieces against references
    rng = np.random.default_rng(0)
    x, k = rng.random((4, 9, 7)), rng.random((5, 4, 3, 3))
    ref = np.stack([correlate(np.pad(x, ((0, 0), (1, 1), (1, 1))), k[o], mode="valid")[0] for o in range(5)])
    expect("correlate_same agrees with scipy.signal.correlate",
           np.allclose(checks.correlate_same(x, k), ref, rtol=1e-12, atol=1e-12))
    expect("fnv1a64 matches published vectors",
           checks.fnv1a64(b"") == 0xCBF29CE484222325 and checks.fnv1a64(b"foobar") == 0x85944171F73967E8)

    # corrupted outputs
    fast = sessions["tiny-fast-plan"]
    out = fast.run_dir / "run0"
    text = (out / "table.csv").read_text(encoding="utf-8")
    sigmas = [5.0, 15.0, 25.0]
    cells = fast.workload.cells(fast.kv)
    table = checks.check_csv_structure(text, sigmas, cells)
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("15,"))
    cells_15 = lines[row].split(",")
    cells_15[1] = f"{float(cells_15[1]) + 0.01:.4f}"
    bad = "\n".join(lines[:row] + [",".join(cells_15)] + lines[row + 1:]) + "\n"
    rejects("csv with one cell changed", checks.check_csv_structure, bad, sigmas, cells)
    rejects("csv with the mean row removed", checks.check_csv_structure,
            "\n".join(ln for ln in lines if not ln.startswith("mean")) + "\n", sigmas, cells)
    rejects("csv with a sigma row missing", checks.check_csv_structure,
            "\n".join(ln for ln in lines if not ln.startswith("25,")) + "\n", sigmas, cells)

    ckpt = bytearray((out / "ckpt" / "l1_25.ckpt").read_bytes())
    checks.read_lumnet(bytes(ckpt))
    ckpt[len(ckpt) // 2] ^= 0x01
    rejects("checkpoint with one byte flipped", checks.read_lumnet, bytes(ckpt))
    rejects("checkpoint truncated", checks.read_lumnet, bytes(ckpt[:-3]))

    good_ckpt = (out / "ckpt" / "l1_25.ckpt").read_bytes()
    run.recompute_cell(fast.kv, table, cells[0], good_ckpt)
    expect("recomputed cell agrees with the csv", True)
    shifted = {**table, "rows": [(s, [v[0] + (3e-4 if s == 15.0 else 0.0)] + v[1:]) for s, v in table["rows"]]}
    rejects("csv cell 3e-4 dB off the recomputation", run.recompute_cell, fast.kv, shifted, cells[0], good_ckpt)
    other_ckpt = (out / "ckpt" / "luml1_25.ckpt").read_bytes()
    rejects("csv scored with another checkpoint", run.recompute_cell, fast.kv, table, cells[0], other_ckpt)

    train = sessions["tiny-train"]
    log = (train.run_dir / "run0" / "log.csv").read_text(encoding="utf-8")
    checks.check_train_log(log, 6)
    rejects("train log with a step missing", checks.check_train_log,
            "\n".join(log.splitlines()[:-1]) + "\n", 6)
    rejects("train log whose loss rises", checks.check_loss_falls, np.array([1.0, 1.0, 2.0, 2.0]))

    checks.check_csv_quality(GOOD_TABLE, 2.0)
    expect("quality checks pass a well-trained table", True)
    rising = {**GOOD_TABLE, "rows": [(5.0, [30.0, 0.97]), (15.0, [31.0, 0.9]), (25.0, [27.0, 0.8])]}
    rejects("psnr rising with sigma", checks.check_csv_quality, rising, 2.0)
    rejects("gain at sigma 15 (6.3 dB) under a required 7 dB", checks.check_csv_quality, GOOD_TABLE, 7.0)
    low = {**GOOD_TABLE, "noisy": {**GOOD_TABLE["noisy"], 25.0: (19.0, 0.49)}}
    rejects("noisy baseline below 20*log10(255/sigma)", checks.check_csv_quality, low, 2.0)

    expect("same outputs match the first run", run.same_as_first(store, "x", b"a") and run.same_as_first(store, "x", b"a"))
    expect("changed outputs differ from the first run", not run.same_as_first(store, "x", b"b"))
    src = root / "src"
    shutil.copytree(run.SRC / "luml1", src / "luml1", ignore=shutil.ignore_patterns("__pycache__"))
    old_key = run.output_key("w", fast.kv, src)
    run.same_as_first(store, old_key, b"old program")
    with open(src / "luml1" / "net.py", "a", encoding="utf-8") as fh:
        fh.write("# changed\n")
    new_key = run.output_key("w", fast.kv, src)
    expect("a changed program source starts a fresh reference",
           new_key != old_key and run.same_as_first(store, new_key, b"new program")
           and not run.same_as_first(store, old_key, b"new program"))
    print("selftest: all cases hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
