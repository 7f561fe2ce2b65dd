import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import luml1
import luml1.bench

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in luml1.__all__ if not hasattr(luml1, name)]
    assert missing == []
    assert len(set(luml1.__all__)) == len(luml1.__all__)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/trace_spans.py wraps luml1 functions by name; a deleted name fails install()
    result = subprocess.run(
        [sys.executable, "-c", "from trace_spans import Tracer; Tracer().install()"],
        cwd=REPO_ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


NUMPY_IMPORT_SPY = """
import os, sys

class Spy:
    # prints the BLAS thread variables at the moment numpy is first imported, when its BLAS reads them
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(*(os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))
        return None

sys.meta_path.insert(0, Spy())
import luml1
"""


@pytest.mark.parametrize("preset, seen", [
    ({}, "1 1 1"),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"}, "3 2 4"),
])
def test_one_blas_thread_unless_the_user_sets_a_count(preset, seen):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_IMPORT_SPY],
        env={**env, **preset, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [seen]


def test_readme_library_snippet_imports_only_exported_names():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from luml1 import \((.*?)\)", readme, re.S)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names and set(names) <= set(luml1.__all__)


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"\n\| key \| value \|\n\|---\|---\|\n(.*?)\n\n", readme, re.S)
    assert table is not None
    keys = [key for row in table.group(1).splitlines() for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(key for key, _ in luml1.bench.CONFIG_KEYS)


TRACED_TRAIN = """
import json
from trace_spans import Tracer
tracer = Tracer()
tracer.install()
import luml1.bench, luml1.trainer
cfg = luml1.bench.Config(steps=2, batch_size=2, patch_size=8, corpus_count=4, corpus_size=(16, 16))
luml1.trainer.train(cfg)
print(json.dumps(tracer.metrics()))
"""


def test_benchmark_tracer_times_every_conv_layer_of_a_training_run():
    # a refactor that changes how the program calls conv_forward/conv_backward must not zero these
    result = subprocess.run(
        [sys.executable, "-c", TRACED_TRAIN],
        cwd=REPO_ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    for i in range(5):
        assert metrics[f"net.conv_forward_ms.l{i}"] > 0 and metrics[f"net.conv_backward_ms.l{i}"] > 0, i
    assert metrics["net.conv_backward_calls"] == 2 * 5  # steps x layers: one call per layer for the whole batch


TRACED_BENCH = """
import json, sys
from trace_spans import Tracer
tracer = Tracer()
tracer.install()
import luml1.bench
from luml1.losses import LossSpec
plan = luml1.bench.Config(
    sigma_max=(25.0,), eval_sigmas=(10.0,), losses=(LossSpec("l1"),),
    steps=0, patch_size=8, corpus_count=2, corpus_size=(16, 16),
    eval_count=2, eval_size=(16, 16), hidden_channels=4, hidden_depth=3,
)
luml1.bench.run_bench(plan, ckpt_dir=sys.argv[1])
print(json.dumps(tracer.metrics()))
"""


def test_benchmark_tracer_times_a_bench_cell_scored_from_its_checkpoint(tmp_path):
    # steps=0 leaves every forward pass to scoring, so the layer times come from scoring the net its checkpoint holds
    result = subprocess.run(
        [sys.executable, "-c", TRACED_BENCH, str(tmp_path)],
        cwd=REPO_ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    assert metrics["checkpoint.bytes"] > 0 and metrics["bench.cell_eval_s"] > 0
    for i in range(5):
        assert metrics[f"net.conv_forward_ms.l{i}"] > 0, i


PERFBENCH_CHECKS = """
import sys
from pathlib import Path
import luml1.cli
from run import BenchWorkload, TrainWorkload
tmp = Path(sys.argv[1])
for workload in (BenchWorkload("bench", tmp / "micro.plan", seeded=False, margin_db=None),
                 TrainWorkload("train", tmp / "micro.cfg", margin_db=None)):
    out = tmp / workload.name
    out.mkdir()
    kv, config = workload.prepare(3, out)
    assert luml1.cli.main(workload.argv(kv, config, out)) == 0
    workload.check(kv, out)
"""

MICRO_CORE = "sigma_max=25\nsteps=5\nbatch_size=2\npatch_size=8\ncorpus_count=2\ncorpus_size=16x16\nhidden_channels=4\nhidden_depth=1\n"


def test_benchmark_output_checks_pass_on_a_micro_bench_and_train_run(tmp_path):
    # perfbench/run.py's own checks read the CSV, the checkpoints and the training log: a change to what they read
    # fails here rather than in a benchmark run. The bench check rescores a cell at sigma 15 apart from the program.
    (tmp_path / "micro.plan").write_text(
        MICRO_CORE + "losses=l1,luml1\neval_sigmas=5,15\neval_count=2\neval_size=16x16\nseed=4\n"
    )
    (tmp_path / "micro.cfg").write_text(MICRO_CORE)
    result = subprocess.run(
        [sys.executable, "-c", PERFBENCH_CHECKS, str(tmp_path)],
        cwd=REPO_ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
