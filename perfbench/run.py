#!/usr/bin/env python3
"""The luml1 performance benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fast-plan,train,eval} --seed N --seconds S --trace {0,1}

Run from any directory of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed. Each workload runs as a user
runs it: the ``luml1`` CLI in a child process, pinned to one BLAS thread.
Every output is checked (see checks.py). The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (timed CLI
commands run, and those that exited non-zero or were stopped at the time
limit) and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics of a traced run with ``--trace 1``, named and given
units as in BENCHMARK.json. The line before it names the machine: cores,
numpy, BLAS library and its threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
FAST_PLAN = ROOT / "plans" / "fast.plan"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: with the default threading, 192 single-image forwards
# took 1.38-2.57 s on a 2-core machine against 1.35-1.44 s pinned.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
HELD_OUT = 32  # images the train check scores its checkpoint on
# A run must end within 180 s. A child still running this long after the
# run began is stopped and counts as failed; its wall time, a lower bound,
# is still reported, so a slowdown past the limit shows as one.
RUN_LIMIT_S = 170.0
STOP_GRACE_S = 3.0  # SIGTERM, then SIGKILL if the child has not ended by then

class BenchError(Exception):
    """The benchmark cannot produce a result."""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_kv(text: str) -> dict[str, str]:
    pairs = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
    return dict(p.split("=", 1) for p in pairs if p)


def plan_seed(seed: int) -> int:
    # luml1 clears bit 0 for training streams and sets it for evaluation
    # streams, so seeds 2k and 2k+1 would give the same inputs.
    return 2 * seed


def input_gen():
    """The program's own generators of clean images and evaluation noise."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from luml1 import dataset, rng

    return dataset, rng


@dataclass(frozen=True)
class BenchWorkload:
    """``luml1 bench`` on a plan. A unit of work is one (image, sigma) pair scored."""

    name: str
    plan: Path
    seeded: bool  # False: the plan is used unchanged and --seed does not enter
    margin_db: float | None  # required sigma=15 gain over the noisy input; None: skip
    runs: int = 1  # whole runs timed per call; the figures are their medians

    def prepare(self, seed: int, run_dir: Path) -> tuple[dict, Path]:
        text = self.plan.read_text(encoding="utf-8")
        if not self.seeded:
            return parse_kv(text), self.plan
        text += f"seed={plan_seed(seed)}\n"
        path = run_dir / "plan.txt"
        path.write_text(text, encoding="utf-8")
        return parse_kv(text), path

    def argv(self, kv: dict, config: Path, out: Path) -> list[str]:
        return ["bench", "--plan", str(config), "--csv", str(out / "table.csv"),
                "--ckpt-dir", str(out / "ckpt")]

    @staticmethod
    def cells(kv: dict) -> list[tuple[str, str]]:
        return [(loss, f"{float(sm):g}") for sm in kv["sigma_max"].split(",")
                for loss in kv["losses"].split(",")]

    def units(self, kv: dict) -> int:
        return len(self.cells(kv)) * len(kv["eval_sigmas"].split(",")) * int(kv["eval_count"])

    def check(self, kv: dict, out: Path) -> bytes:
        from checks import check_csv_quality, check_csv_structure, read_lumnet

        csv = (out / "table.csv").read_bytes()
        sigmas = [float(s) for s in kv["eval_sigmas"].split(",")]
        table = check_csv_structure(csv.decode("utf-8"), sigmas, self.cells(kv))
        if self.margin_db is not None:
            check_csv_quality(table, self.margin_db)
        ckpts = [(out / "ckpt" / f"{label}_{sm}.ckpt").read_bytes() for label, sm in self.cells(kv)]
        for buf in ckpts:
            read_lumnet(buf)
        recompute_cell(kv, table, self.cells(kv)[0], ckpts[0])
        return csv + b"".join(ckpts)


def recompute_cell(kv: dict, table: dict, cell: tuple[str, str], ckpt: bytes) -> None:
    """Score one cell at sigma 15 apart from the program and compare with the CSV."""
    from checks import HALF_ULP_4DP, CheckFailed, mean_psnr_pair, read_lumnet

    sigma = 15.0
    dataset, rng = input_gen()
    es = rng.eval_seed(int(kv["seed"]))
    h, w = (int(v) for v in kv["eval_size"].split("x"))
    si = [float(s) for s in kv["eval_sigmas"].split(",")].index(sigma)
    clean = [im.data for im in dataset.gen_clean(es, int(kv["eval_count"]), h, w)]
    noisy = [c + rng.normal(rng.stream(es, rng.DOMAIN_EVAL_NOISE, si, j), c.shape, sigma / 255.0)
             for j, c in enumerate(clean)]
    layers, residual = read_lumnet(ckpt)
    den, raw = mean_psnr_pair(layers, residual, noisy, clean)
    col = table["header"].index(f"{cell[0]}_{cell[1]}_psnr") - 1
    in_csv = dict(table["rows"])[sigma][col]
    for what, mine, theirs in (("denoised", den, in_csv), ("noisy", raw, table["noisy"][sigma][0])):
        if abs(mine - theirs) > HALF_ULP_4DP + 1e-7:
            raise CheckFailed(f"recompute: {what} psnr at sigma={sigma:g} is {mine:.6f}, csv says {theirs}")


@dataclass(frozen=True)
class TrainWorkload:
    """``luml1 train --loss luml1``. A unit of work is one training patch."""

    name: str
    config: Path
    margin_db: float | None  # required gain at sigma=15 on held-out images; None: skip
    runs: int = 1  # whole runs timed per call; the figures are their medians

    def prepare(self, seed: int, run_dir: Path) -> tuple[dict, Path]:
        kv = parse_kv(self.config.read_text(encoding="utf-8"))
        return {**kv, "seed": str(plan_seed(seed))}, self.config

    def argv(self, kv: dict, config: Path, out: Path) -> list[str]:
        return ["train", "--config", str(config), "--loss", "luml1", "--seed", kv["seed"],
                "--out", str(out / "model.ckpt"), "--log", str(out / "log.csv")]

    def units(self, kv: dict) -> int:
        return int(kv["steps"]) * int(kv["batch_size"])

    def check(self, kv: dict, out: Path) -> bytes:
        import numpy as np

        from checks import CheckFailed, check_loss_falls, check_train_log, mean_psnr_pair, read_lumnet

        ckpt = (out / "model.ckpt").read_bytes()
        layers, residual = read_lumnet(ckpt)
        losses = check_train_log((out / "log.csv").read_text(encoding="utf-8"), int(kv["steps"]))
        if self.margin_db is not None:
            check_loss_falls(losses)
            dataset, rng = input_gen()
            seed = int(kv["seed"])
            clean = [im.data for im in dataset.gen_clean(rng.eval_seed(seed), HELD_OUT, 40, 40)]
            noise = np.random.default_rng(seed)
            noisy = [c + noise.normal(0.0, 15.0 / 255.0, c.shape) for c in clean]
            den, raw = mean_psnr_pair(layers, residual, noisy, clean)
            if not den - raw > self.margin_db:
                raise CheckFailed(f"train: held-out psnr at sigma=15 is {den:.4f}, noisy input {raw:.4f}")
        return ckpt


WORKLOADS = {
    w.name: w
    for w in (
        BenchWorkload("fast-plan", FAST_PLAN, seeded=False, margin_db=2.0),
        TrainWorkload("train", HERE / "train.cfg", margin_db=0.0),
        BenchWorkload("eval", HERE / "eval.plan", seeded=True, margin_db=0.0, runs=3),
    )
}


# ---------------------------------------------------------------------------
# child processes


class Child:
    """The CLI running in a child process, started on construction.

    At ``deadline`` the child gets SIGTERM, and SIGKILL ``STOP_GRACE_S``
    later if it still runs. Signals are sent only while the child is not yet
    reaped, so they cannot reach another process that reuses its pid.
    """

    def __init__(self, argv: list[str], mode: str, out: Path, deadline: float):
        out.mkdir(parents=True, exist_ok=True)
        self.out, self.name = out, argv[0]
        self.mark = out / "mark.json"
        self.stopped = False  # the deadline was reached while the child ran
        self.lock = threading.Lock()
        env = {**os.environ, **BLAS_ENV,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, str(CHILD), str(self.mark), mode, *argv]
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            self.t0 = time.monotonic()
            self.proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        wait = max(0.0, deadline - self.t0)
        self.timers = [threading.Timer(wait, self._signal, (signal.SIGTERM,)),
                       threading.Timer(wait + STOP_GRACE_S, self._signal, (signal.SIGKILL,))]
        for timer in self.timers:
            timer.daemon = True
            timer.start()

    def _signal(self, sig: int) -> None:
        with self.lock:
            if self.proc.returncode is None:
                self.stopped = True
                os.kill(self.proc.pid, sig)

    def _reap(self) -> tuple[int, object]:
        os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOWAIT)
        with self.lock:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        for timer in self.timers:
            timer.cancel()
        return self.proc.returncode, usage

    def finish(self) -> dict:
        """Wait for the child; return wall, CPU, peak RSS and set-up time."""
        try:
            rc, usage = self._reap()
        except BaseException:
            self.close()
            raise
        wall = time.monotonic() - self.t0
        result = {"rc": rc, "wall_s": wall,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "system_s": usage.ru_stime, "minor_faults": usage.ru_minflt}
        if self.mark.exists():
            facts = json.loads(self.mark.read_text(encoding="utf-8"))
            result["setup_s"] = facts.pop("first_work") - self.t0
            result["facts"] = facts
        if self.stopped:
            print(f"perfbench: luml1 {self.name} stopped at the time limit "
                  f"after {wall:.1f} s; its figures are lower bounds", file=sys.stderr)
        elif rc != 0:
            tail = (self.out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"perfbench: luml1 {self.name} exited {rc}: {tail}", file=sys.stderr)
        return result

    def close(self) -> None:
        """Kill the child if it still runs, and reap it."""
        for timer in self.timers:
            timer.cancel()
        if self.proc.returncode is None:
            self._signal(signal.SIGKILL)
            self._reap()


def output_key(name: str, kv: dict, src: Path = SRC) -> str:
    """What a run's output bytes depend on: the workload, its inputs and the program.

    The program is the hash of every source file under ``src/luml1`` with the
    Python and numpy versions, so a changed program starts fresh references.
    """
    import numpy

    h = hashlib.sha256(json.dumps([name, sorted(kv.items()), sys.version, numpy.__version__]).encode())
    for path in sorted((src / "luml1").rglob("*.py")):
        h.update(b"\0" + path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return f"{name}:{h.hexdigest()[:16]}"


def same_as_first(store: Path, key: str, data: bytes) -> bool:
    """Compare output bytes with the first run of the same key in this checkout."""
    digest = hashlib.sha256(data).hexdigest()
    seen = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return True


class Session:
    """One benchmark run of one workload: its children, checks and tallies."""

    def __init__(self, workload, seed: int, run_dir: Path, store: Path):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.run_dir = run_dir
        self.kv, self.config = workload.prepare(seed, run_dir)
        self.key = output_key(workload.name, self.kv)
        self.store = store
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.facts: dict = {}

    def start(self, tag: str, mode: str = "run") -> tuple[str, Child]:
        out = self.run_dir / tag
        return tag, Child(self.workload.argv(self.kv, self.config, out), mode, out, self.deadline)

    def probe(self, tag: str) -> float:
        r = self.start(tag, "probe")[1].finish()
        if r["rc"] != 0 or "setup_s" not in r:
            raise BenchError(f"set-up probe failed with exit code {r['rc']}")
        self.facts = r["facts"]
        return r["setup_s"]

    def finish(self, tag: str, child: Child) -> dict:
        """Wait for one run of the workload and check its outputs if it succeeded."""
        from checks import CheckFailed

        self.attempted += 1
        r = child.finish()
        self.facts = r.get("facts", self.facts)
        if r["rc"] != 0:
            self.failed += 1
            return r
        try:
            data = self.workload.check(self.kv, child.out)
            if not same_as_first(self.store, self.key, data):
                raise CheckFailed("outputs differ from the first run of this program on these inputs")
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{tag}: {exc}")
        return r


def measure(session: Session) -> dict:
    """End-to-end metrics: set-up probes, then the workload's whole runs, one at a time.

    The probes also warm the file cache before anything is timed. Each figure
    is the median over the runs; ``setup_s`` is the median over the probes
    and the runs. Every call makes the same number of runs, whatever
    ``--seconds`` says, so ``failed`` is the same share of ``attempted``.
    """
    setups = [session.probe(f"probe{i}") for i in range(SETUP_PROBES)]
    runs = [session.finish(*session.start(f"run{i}")) for i in range(session.workload.runs)]
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": session.workload.units(session.kv) / wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def measure_traced(session: Session) -> dict:
    """Per-layer metrics: an untraced and a traced run of the same inputs, side by side.

    Both children run at once, one per core, so they see the same machine
    state and the difference of their wall times is the tracing overhead.
    System time and page faults are the untraced child's, since the
    tracer's own bookkeeping allocates.
    """
    spans = session.run_dir / "spans.json"
    children = [session.start("untraced"), session.start("traced", f"trace:{spans}")]
    try:
        plain, traced = [session.finish(tag, child) for tag, child in children]
    finally:
        for _, child in children:
            child.close()
    if not spans.exists():
        raise BenchError("the traced run wrote no spans")
    metrics = json.loads(spans.read_text(encoding="utf-8"))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["process.system_s"] = plain["system_s"]
    metrics["process.minor_faults"] = plain["minor_faults"]
    return metrics


def machine_line(facts: dict) -> str:
    return (f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={facts.get('numpy')} blas={facts.get('blas')} "
            f"blas_threads={facts.get('blas_threads')} pinned={','.join(sorted(BLAS_ENV))}=1")


def preflight() -> None:
    for need in (SRC / "luml1" / "cli.py", FAST_PLAN, SPEC):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} is missing: run from a luml1 source checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted for the common calling convention; a call always makes "
                             "the workload's fixed number of whole runs, each longer than 10 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        preflight()
        workload = WORKLOADS[args.workload]
        session = Session(workload, args.seed, OUT / workload.name, OUT / "digests.json")
        if args.trace:
            values, units = measure_traced(session), metric_units("per_layer")
        else:
            values, units = measure(session), metric_units("end_to_end")
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in session.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(machine_line(session.facts))
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
