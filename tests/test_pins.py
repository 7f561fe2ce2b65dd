"""FNV-64 digests of outputs whose bytes are promised, pinned so that a change that moves them fails here.

Corpora, patch streams and noisy sets involve no BLAS call, but they pass
through float64 np.log, np.cos and np.sin (Box-Muller, and the corpus's
sinusoids), which are not correctly rounded: they hold for one NumPy build
and libm. Of the trained outputs only the micro bench's CSV is
pinned: it was identical under the SkylakeX, Haswell, Sandybridge and
Katmai kernels of OpenBLAS, while its checkpoints differed between them.
The same holds for the micro bench at 7 eval images and for ``luml1 eval``
of its luml1 checkpoint over two image sizes (SkylakeX, Haswell and
Sandybridge).
A change that moves these bytes on purpose updates the digests and says so.
"""

import numpy as np
import pytest

from luml1.cli import main
from luml1.dataset import gen_clean, make_blind_batches, noisy_chunk
from luml1.fnv import fnv1a64
from luml1.pnm import save_image
from luml1.rng import DOMAIN_TRAIN_CLEAN, eval_seed

MICRO_PLAN = (
    "sigma_max=25\neval_sigmas=10,30\nlosses=l1,luml1\nsteps=40\nbatch_size=4\npatch_size=16\ncorpus_count=6\n"
    "corpus_size=24x24\neval_count=4\neval_size=24x24\nhidden_channels=6\nhidden_depth=1\nseed=11\n"
)


def digest(arrays) -> str:
    return f"{fnv1a64(b''.join(np.ascontiguousarray(a, '<f8').tobytes() for a in arrays)):016x}"


def test_gen_corpus_bytes(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--seed", "3", "--count", "2", "--size", "16x20", "--sigma", "25", "--out", str(out)]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "manifest.txt")  # the manifest names the directory
    assert len(files) == 8
    assert f"{fnv1a64(b''.join(p.read_bytes() for p in files)):016x}" == "607440757ef91d16"


def test_first_patches_of_the_blind_stream():
    corpus = gen_clean(5, 3, 24, 24, DOMAIN_TRAIN_CLEAN)
    ((noisy, clean),) = make_blind_batches(corpus, 25.0, 1, 5, *(np.empty((4, 16, 16, 3)) for _ in range(2)))
    assert digest(a for pair in zip(noisy, clean) for a in pair) == "ce82b4d91f91a3e9"


def test_eval_noisy_set():
    clean = gen_clean(eval_seed(909), 3, 24, 24)
    noisy = noisy_chunk(np.stack([im.data for im in clean]), 15.0, eval_seed(909), 2, 0)
    assert digest(noisy) == "34e51be02aa3cc50"


def test_micro_bench_csv(tmp_path, capsys):
    plan = tmp_path / "micro.plan"
    plan.write_text(MICRO_PLAN)
    assert main(["bench", "--plan", str(plan), "--csv", str(tmp_path / "table.csv")]) == 0
    assert f"{fnv1a64((tmp_path / 'table.csv').read_bytes()):016x}" == "37e65baf7ad7936a"


@pytest.fixture(scope="module")
def micro_run_of_seven(tmp_path_factory):
    """The directory of a micro bench run at 7 eval images: its table.csv and its checkpoints in ckpt/."""
    out = tmp_path_factory.mktemp("micro7")
    (out / "micro.plan").write_text(MICRO_PLAN.replace("eval_count=4", "eval_count=7"))
    argv = ["bench", "--plan", str(out / "micro.plan"), "--csv", str(out / "table.csv"), "--ckpt-dir", str(out / "ckpt")]
    assert main(argv) == 0
    return out


def test_micro_bench_csv_at_seven_eval_images(micro_run_of_seven):
    assert f"{fnv1a64((micro_run_of_seven / 'table.csv').read_bytes()):016x}" == "aa7f270dfca42c6e"


def test_eval_csv_over_two_image_sizes(micro_run_of_seven, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for prefix, images in (("a", gen_clean(3, 3, 16, 20)), ("b", gen_clean(4, 2, 24, 18))):
        for i, im in enumerate(images):
            save_image(im, data / f"{prefix}{i}.lumf")
    ckpt, csv = micro_run_of_seven / "ckpt" / "luml1_25.ckpt", tmp_path / "eval.csv"
    argv = ["eval", "--ckpt", str(ckpt), "--data", str(data), "--sigmas", "10,30,50", "--seed", "5", "--csv", str(csv)]
    assert main(argv) == 0
    assert f"{fnv1a64(csv.read_bytes()):016x}" == "6fe498a13eb1c923"
