import json
import os
import re
import subprocess
import sys
from pathlib import Path

import luml1

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


def test_readme_library_snippet_imports_only_exported_names():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from luml1 import \((.*?)\)", readme, re.S)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names and set(names) <= set(luml1.__all__)


TRACED_TRAIN = """
import json
from trace_spans import Tracer
tracer = Tracer()
tracer.install()
import luml1.net, luml1.trainer
cfg = luml1.trainer.TrainConfig(steps=2, batch_size=2, patch_size=8, corpus_count=4, corpus_h=16, corpus_w=16)
luml1.trainer.train(luml1.net.build_tinynet(0), cfg)
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
    assert metrics["net.conv_backward_calls"] == 2 * 2 * 5  # steps x batch x layers
