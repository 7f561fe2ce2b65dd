import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from luml1.bench import Config, parse_config
from luml1.checkpoint import load_checkpoint, save_checkpoint
import luml1.cli as cli
from luml1.cli import main
from luml1.dataset import gen_chunk, noisy_chunk
from luml1.gradcheck import run_gradcheck
from luml1.net import ConvLayer, TinyNet, build_tinynet
from luml1.pnm import load_image, save_image

from conftest import rand_array, score_images

REPO_ROOT = Path(__file__).resolve().parents[1]
# a child python finds the package only through PYTHONPATH
CHILD_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def zero_ckpt(tmp_path):
    net = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
    path = tmp_path / "zero.ckpt"
    save_checkpoint(net, path)
    return path


def overflow_ckpt(tmp_path):
    """A valid checkpoint whose forward pass overflows: nine layers, every kernel 3e38."""
    dims = [3] + [4] * 8 + [3]
    net = TinyNet([ConvLayer(np.full((o, i, 3, 3), 3e38), np.zeros(o)) for i, o in zip(dims, dims[1:])])
    path = tmp_path / "overflow.ckpt"
    save_checkpoint(net, path)
    assert len(load_checkpoint(path).layers) == 9
    return path


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the command's inputs were checked")


class TestGen:
    def test_writes_corpus_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        rc = main(["gen", "--seed", "3", "--count", "2", "--size", "16x16", "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert "manifest.txt" in names
        assert "clean_0000.ppm" in names and "noisy_0001.lumf" in names
        lines = (out / "manifest.txt").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0 25 ")
        # the manifest paths all exist
        for token in lines[0].split()[2:]:
            assert (out / token.split("/")[-1]).exists()

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen", "--seed", "5", "--count", "1", "--size", "16x16", "--out", str(out)])
        assert (a / "clean_0000.ppm").read_bytes() == (b / "clean_0000.ppm").read_bytes()
        assert (a / "noisy_0000.lumf").read_bytes() == (b / "noisy_0000.lumf").read_bytes()

    def test_noisy_file_is_clean_plus_noisy_set_noise(self, tmp_path):
        out = tmp_path / "corpus"
        main(["gen", "--seed", "4", "--count", "2", "--size", "16x16", "--sigma", "30", "--out", str(out)])
        noisy = noisy_chunk(gen_chunk(4, 0, 2, 16, 16), 30.0, 4, 0, 0)
        for i, expected in enumerate(noisy.astype("<f4").astype(np.float64)):
            assert np.array_equal(load_image(out / f"noisy_{i:04d}.lumf"), expected)

    @pytest.mark.parametrize(
        "flag,value",
        [("--sigma", "inf"), ("--sigma", "-1"), ("--sigma", "1e42"), ("--size", "8x8"), ("--count", "0"),
         ("--seed", "-1"), ("--seed", str(2**64))],
    )
    def test_bad_input_exits_1_and_creates_no_directory(self, tmp_path, capsys, flag, value):
        out = tmp_path / "corpus"
        args = {"--count": "1", "--size": "16x16", "--out": str(out), flag: value}
        assert main(["gen"] + [t for kv in args.items() for t in kv]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMetric:
    def test_default_prints_psnr_and_ssim(self, tmp_path, capsys):
        a, b = rand_array(1, 16, 16), rand_array(2, 16, 16)
        pa, pb = tmp_path / "a.lumf", tmp_path / "b.lumf"
        save_image(a, pa)
        save_image(b, pb)
        rc = main(["metric", "--a", str(pa), "--b", str(pb)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("psnr ") and "ssim " in out

    def test_luml1_metric(self, tmp_path, capsys):
        a, b = rand_array(3, 12, 12), rand_array(4, 12, 12)
        pa, pb = tmp_path / "a.lumf", tmp_path / "b.lumf"
        save_image(a, pa)
        save_image(b, pb)
        rc = main(["metric", "--a", str(pa), "--b", str(pb), "--luml1", "--lambda", "2.0"])
        assert rc == 0
        assert "luml1 " in capsys.readouterr().out

    def test_bad_lambda_exits_1_before_any_output(self, tmp_path, capsys):
        pa = tmp_path / "a.lumf"
        save_image(rand_array(3, 12, 12), pa)
        rc = main(["metric", "--a", str(pa), "--b", str(pa), "--lambda", "nan"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and err.startswith("error: ")

    def test_failing_metric_prints_no_value(self, tmp_path, capsys):
        # identical 8x8 images: psnr is inf, then the SSIM window does not fit
        pa = tmp_path / "a.lumf"
        save_image(rand_array(3, 8, 8), pa)
        rc = main(["metric", "--a", str(pa), "--b", str(pa)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and "SSIM window" in err


class TestDenoise:
    def test_roundtrip_with_zero_checkpoint(self, tmp_path):
        ckpt = zero_ckpt(tmp_path)
        img = rand_array(5, 16, 16)
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        save_image(img, src)
        rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(src), "--out", str(dst)])
        assert rc == 0
        assert np.array_equal(load_image(dst), load_image(src))

    def test_tall_image_runs_in_tiles_as_one_pass(self, tmp_path, monkeypatch):
        import luml1.net
        from luml1.net import DENOISE_TILE_ROWS, net_forward

        net = build_tinynet(9, 8, 3)  # five 3x3 layers: each tile reads 5 rows above and below it
        net.layers[-1].kernels *= 300.0  # an estimate far from zero, so the output is not just the input
        ckpt, src, dst = tmp_path / "net.ckpt", tmp_path / "in.lumf", tmp_path / "out.lumf"
        save_checkpoint(net, ckpt)
        img = rand_array(10, 200, 48)
        save_image(img, src)
        built = []
        init = luml1.net.Workspace.__init__
        monkeypatch.setattr(luml1.net.Workspace, "__init__", lambda ws, *args: built.append(args[1:4]) or init(ws, *args))
        assert main(["denoise", "--ckpt", str(ckpt), "--in", str(src), "--out", str(dst)]) == 0
        assert built == [(1, DENOISE_TILE_ROWS + 2 * 5, 48)]  # one workspace for every tile, none of the image
        whole, _ = net_forward(load_checkpoint(ckpt), load_image(src)[None])
        assert np.abs(whole[0] - img).max() > 0.01
        assert np.allclose(load_image(dst), np.clip(whole[0], 0.0, 1.0), rtol=0.0, atol=1e-6)

    def test_corrupt_checkpoint_exits_3_with_checksum_message(self, tmp_path, capsys):
        ckpt = zero_ckpt(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # flip one stored kernel bit
        ckpt.write_bytes(bytes(raw))
        img = rand_array(6, 16, 16)
        src = tmp_path / "in.ppm"
        save_image(img, src)
        rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(src), "--out", str(tmp_path / "o.ppm")])
        assert rc == 3
        assert "checksum" in capsys.readouterr().err

    def test_image_the_net_cannot_take_exits_1_naming_it(self, tmp_path, capsys):
        src, out = tmp_path / "gray.lumf", tmp_path / "o.ppm"
        save_image(rand_array(7, 16, 16, 1), src)
        rc = main(["denoise", "--ckpt", str(zero_ckpt(tmp_path)), "--in", str(src), "--out", str(out)])
        assert rc == 1
        assert "gray.lumf" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_output_extension_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        import luml1.bench as bench

        monkeypatch.setattr(bench, "denoise", _must_not_run)
        src, out = tmp_path / "in.ppm", tmp_path / "x.png"
        save_image(rand_array(8, 16, 16), src)
        rc = main(["denoise", "--ckpt", str(zero_ckpt(tmp_path)), "--in", str(src), "--out", str(out)])
        assert rc == 1
        assert "x.png: unsupported image extension" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCli:
    def test_train_with_config_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "losses=l1\nsteps=5\nbatch_size=2\nsigma_max=25\npatch_size=16\n"
            "corpus_count=4\ncorpus_size=20x20\nseed=3\n"
        )
        ckpt = tmp_path / "net.ckpt"
        log = tmp_path / "log.csv"
        rc = main([
            "train", "--config", str(cfg), "--loss", "luml1:0.5",
            "--out", str(ckpt), "--log", str(log),
        ])
        assert rc == 0
        assert ckpt.exists()
        assert log.read_text().startswith("step,loss,ms")
        assert "luml1-0.5" in capsys.readouterr().out

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stepz=5\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1

    @pytest.mark.parametrize(
        "line,flags",
        [
            ("", ["--sigma-max", "inf"]),
            ("lr=nan", []),
            ("lr=inf", []),
            ("sigma_max=nan", []),
            ("losses=luml1:inf", []),
            ("", ["--loss", "luml1:inf"]),
            ("", ["--loss", "luml1:nan"]),
            ("pixel_base=l3", []),
        ],
    )
    def test_non_finite_number_exits_1_before_training(self, tmp_path, capsys, monkeypatch, line, flags):
        monkeypatch.setattr(cli, "train", _must_not_run)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\n" + line + "\n")
        ckpt = tmp_path / "x.ckpt"
        rc = main(["train", "--config", str(cfg), "--out", str(ckpt), *flags])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not ckpt.exists()

    @pytest.mark.parametrize("sigma_max", ["1e20", "1e41", "1000000.5"])
    def test_sigma_max_beyond_the_bound_exits_1_before_training(self, tmp_path, capsys, monkeypatch, sigma_max):
        # noise this large overflows float32, the precision nets train in: the run would fail at step 1
        monkeypatch.setattr(cli, "train", _must_not_run)
        ckpt = tmp_path / "x.ckpt"
        cfg = REPO_ROOT / "perfbench" / "train.cfg"
        rc = main(["train", "--config", str(cfg), "--loss", "l2", "--sigma-max", sigma_max, "--out", str(ckpt)])
        assert rc == 1
        assert "sigma_max must lie in [0, 1,000,000]" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", ["adam_beta1=0.8", "adam_eps=1e-6", "checkpoint_every=5", "loss=l1"])
    def test_removed_config_key_exits_1_before_training(self, tmp_path, capsys, monkeypatch, line):
        # Adam runs with its published defaults; the checkpoint cadence is the --checkpoint-every flag;
        # a train config names its loss with losses=, like any plan
        monkeypatch.setattr(cli, "train", _must_not_run)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\n" + line + "\n")
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("value,message", [("-1", "checkpoint_every must be >= 0"), ("2.5", "invalid int value")])
    def test_bad_checkpoint_every_exits_1_before_training(self, tmp_path, capsys, monkeypatch, value, message):
        import luml1.trainer

        monkeypatch.setattr(luml1.trainer, "gen_chunk", _must_not_run)
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--checkpoint-every", value, "--out", str(ckpt)]) == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_checkpoint_every_writes_the_same_final_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=10\nbatch_size=2\npatch_size=16\ncorpus_count=2\ncorpus_size=16x16\nseed=4\n")
        a, b, log = tmp_path / "a.ckpt", tmp_path / "b.ckpt", tmp_path / "log.csv"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--checkpoint-every", "5", "--out", str(b), "--log", str(log)]) == 0
        assert a.read_bytes() == b.read_bytes()
        validated = [line.split(",")[0] for line in log.read_text().splitlines()[1:] if not line.endswith(",,")]
        assert validated == ["5", "10"]

    def test_train_without_validation_does_not_import_concurrent_futures(self, tmp_path):
        # only a pool needs it (run_bench's, score_set's), and the import costs `luml1 train` about 0.6 MB of peak RSS
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=4\nbatch_size=2\npatch_size=16\ncorpus_count=2\ncorpus_size=16x16\n")
        code = "import sys; from luml1.cli import main; print(main(sys.argv[1:]), 'concurrent.futures' in sys.modules)"
        seen = []
        for flags in ([], ["--checkpoint-every", "2"]):  # no validation; validation, which scores
            argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "net.ckpt"), *flags]
            result = subprocess.run([sys.executable, "-c", code, *argv], env=CHILD_ENV, capture_output=True, text=True)
            seen.append(result.stdout.split()[-2:])
        assert seen == [["0", "False"], ["0", "True"]]

    def test_only_gradcheck_imports_the_gradient_suite(self, tmp_path):
        # the suite's module is loaded by the one command that runs it, not by every command
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\nbatch_size=2\npatch_size=16\ncorpus_count=2\ncorpus_size=16x16\n")
        code = "import sys; from luml1.cli import main; print(main(sys.argv[1:]), 'luml1.gradcheck' in sys.modules)"
        seen = []
        for argv in (["train", "--config", str(cfg), "--out", str(tmp_path / "net.ckpt")], ["gradcheck"]):
            result = subprocess.run([sys.executable, "-c", code, *argv], env=CHILD_ENV, capture_output=True, text=True)
            seen.append(result.stdout.split()[-2:])
        assert seen == [["0", "False"], ["0", "True"]]

    @pytest.mark.parametrize("flags", [["--lambda", "0.5"], ["--loss", "luml1", "--lambda", "0.5"]])
    def test_lambda_flag_exits_1_before_training(self, tmp_path, capsys, monkeypatch, flags):
        # a luml1 loss's lambda is set by its token, --loss luml1:0.5; there is no second way to set it
        monkeypatch.setattr(cli, "train", _must_not_run)
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--out", str(ckpt), *flags]) == 1
        assert "unrecognized arguments: --lambda 0.5" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_loss_flag_takes_a_loss_token(self, tmp_path, capsys):
        base = "steps=3\nbatch_size=2\npatch_size=16\ncorpus_count=2\ncorpus_size=16x16\n"
        cfg, flag_cfg = tmp_path / "token.cfg", tmp_path / "base.cfg"
        cfg.write_text(base + "losses=luml1:0.5:l2\n")
        flag_cfg.write_text(base)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(flag_cfg), "--loss", "luml1:0.5:l2", "--out", str(b)]) == 0
        assert "luml1-0.5-l2" in capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "line,flags",
        [
            ("losses=l1,luml1", []),
            ("sigma_max=25,50", []),
            ("", ["--sigma-max", "25,50"]),
            ("", ["--loss", "l1,l2"]),
            ("", ["--seed", "-1"]),
            ("seed=18446744073709551616", []),
        ],
    )
    def test_more_than_one_cell_or_a_bad_seed_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, line, flags
    ):
        import luml1.trainer

        monkeypatch.setattr(luml1.trainer, "gen_chunk", _must_not_run)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\n" + line + "\n")
        ckpt = tmp_path / "x.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not ckpt.exists()

    def test_train_config_is_a_one_cell_plan(self, tmp_path, capsys):
        # one file for both commands: luml1 train writes the checkpoint of the bench cell
        plan = tmp_path / "cell.plan"
        plan.write_text(
            "sigma_max=20\nlosses=luml1:0.5:l2\nsteps=6\nbatch_size=2\nlr=0.002\npatch_size=16\ncorpus_count=2\n"
            "corpus_size=16x16\neval_sigmas=15\neval_count=1\neval_size=16x16\nhidden_channels=4\nseed=5\n"
        )
        assert main(["train", "--config", str(plan), "--out", str(tmp_path / "train.ckpt")]) == 0
        bench_dir = tmp_path / "bench"
        assert main(["bench", "--plan", str(plan), "--csv", str(tmp_path / "t.csv"), "--ckpt-dir", str(bench_dir)]) == 0
        assert (tmp_path / "train.ckpt").read_bytes() == (bench_dir / "luml1-0.5-l2_20.ckpt").read_bytes()

    def test_hidden_keys_size_the_trained_net(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("steps=1\nbatch_size=1\npatch_size=16\ncorpus_count=1\nhidden_channels=8\nhidden_depth=1\n")
        ckpt = tmp_path / "small.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        layers = load_checkpoint(ckpt).layers
        assert [layer.kernels.shape[:2] for layer in layers] == [(8, 3), (8, 8), (3, 8)]

    def test_patch_larger_than_corpus_exits_1_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "big_patch.cfg"
        cfg.write_text("steps=2\npatch_size=64\n")
        ckpt = tmp_path / "x.ckpt"
        rc = main(["train", "--config", str(cfg), "--out", str(ckpt)])
        assert rc == 1
        assert "patch_size" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_zero_steps_writes_the_init_net(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        cfg.write_text("steps=0\nseed=5\n")
        ckpt = tmp_path / "init.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        default = Config()  # the config keys leave the net's size at its default
        init = build_tinynet(5, default.hidden_channels, default.hidden_depth)
        for layer, want in zip(load_checkpoint(ckpt).layers, init.layers, strict=True):
            assert np.array_equal(layer.kernels, want.kernels.astype("<f4"))
            assert np.array_equal(layer.bias, want.bias.astype("<f4"))


class TestBenchCli:
    PLAN = (
        "sigma_max=25\neval_sigmas=15\nlosses=l1\nsteps=2\nbatch_size=2\npatch_size=16\n"
        "corpus_count=2\ncorpus_size=16x16\neval_count=2\neval_size=16x16\nhidden_channels=4\nhidden_depth=1\n"
    )

    @pytest.mark.parametrize(
        "line",
        [
            "eval_count=0",
            "eval_size=10x10",
            "hidden_depth=-1",
            "hidden_channels=0",
            "eval_sigmas=-5,15",
            "sigma_max=25,25",
            "sigma_max=inf",
            "eval_sigmas=5,inf",
            "lr=nan",
        ],
    )
    def test_invalid_plan_exits_1_and_writes_no_csv(self, tmp_path, capsys, line):
        # the line replaces the plan's own line for its key: a plan may set a key once
        key = line.split("=", 1)[0]
        kept = [ln for ln in self.PLAN.splitlines() if ln.split("=", 1)[0] != key]
        plan = tmp_path / "bad.plan"
        plan.write_text("\n".join(kept + [line]) + "\n")
        csv = tmp_path / "table.csv"
        rc = main(["bench", "--plan", str(plan), "--csv", str(csv)])
        assert rc == 1
        assert not csv.exists()

    def test_same_bytes_for_any_blas_thread_count(self, tmp_path):
        # 16 channels over 32x32 images make every hidden conv matmul large enough for OpenBLAS to split
        plan = tmp_path / "threads.plan"
        plan.write_text(
            "sigma_max=25\neval_sigmas=15\nlosses=l1,luml1\nsteps=4\nbatch_size=2\npatch_size=32\ncorpus_count=2\n"
            "corpus_size=32x32\neval_count=2\neval_size=32x32\nhidden_channels=16\nhidden_depth=1\n"
        )
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            result = subprocess.run(
                [sys.executable, "-m", "luml1.cli", "bench", "--plan", str(plan),
                 "--csv", str(out / "table.csv"), "--ckpt-dir", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["l1_25.ckpt", "luml1_25.ckpt", "table.csv"]
        assert outputs[0] == outputs[1]

    def test_corpus_below_the_size_floor_exits_1_before_scoring(self, tmp_path, capsys, monkeypatch):
        # patch_size 8 fits a 12x12 corpus, so only the image-size floor rejects it
        import luml1.trainer as trainer

        monkeypatch.setattr(trainer, "score_chunk", _must_not_run)
        kept = [ln for ln in self.PLAN.splitlines() if not ln.startswith(("corpus_size=", "patch_size="))]
        plan = tmp_path / "small.plan"
        plan.write_text("\n".join(kept + ["corpus_size=12x12", "patch_size=8"]) + "\n")
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert "corpus_size at least 16x16" in capsys.readouterr().err
        assert not csv.exists()

    def test_plan_lambda_without_a_luml1_loss_exits_1_before_training(self, tmp_path, capsys, monkeypatch):
        import luml1.bench as bench

        monkeypatch.setattr(bench, "train", _must_not_run)
        kept = [ln for ln in self.PLAN.splitlines() if not ln.startswith(("losses=", "lambda="))]
        plan = tmp_path / "lam.plan"
        plan.write_text("\n".join(kept + ["losses=l1,l2", "lambda=0.5"]) + "\n")
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert "a loss token luml1:lam:pixel_base sets it" in capsys.readouterr().err
        assert not csv.exists()

    def test_lam_zero_token_beside_its_pixel_loss_exits_1_before_training(self, tmp_path, capsys, monkeypatch):
        # luml1:0 is the l1 loss itself, so the two cells would share a label
        import luml1.bench as bench

        monkeypatch.setattr(bench, "train", _must_not_run)
        plan = tmp_path / "zero.plan"
        plan.write_text(self.PLAN.replace("losses=l1\n", "losses=l1,luml1:0\n"))
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert "loss labels collide: ['l1', 'l1']" in capsys.readouterr().err
        assert not csv.exists()

    def test_retired_lambda_and_pixel_base_lines_are_no_ops_and_other_values_exit_1(self, tmp_path, capsys, monkeypatch):
        # a loss token sets lam and pixel base; perfbench/eval.plan still holds the two keys' default lines
        eval_plan = (REPO_ROOT / "perfbench" / "eval.plan").read_text()
        assert "\nlambda=1\n" in eval_plan and "\npixel_base=l1\n" in eval_plan
        without = eval_plan.replace("\nlambda=1\n", "\n").replace("\npixel_base=l1\n", "\n")
        assert parse_config(eval_plan) == parse_config(without)
        assert parse_config(self.PLAN + "lambda=1\npixel_base=l1\n") == parse_config(self.PLAN)
        import luml1.bench as bench

        monkeypatch.setattr(bench, "train", _must_not_run)
        monkeypatch.setattr(cli, "train", _must_not_run)
        for line in ("lambda=0.5", "lambda=1.0", "lambda=0", "pixel_base=l2", "pixel_base=L1"):
            plan = tmp_path / "retired.plan"
            plan.write_text(self.PLAN.replace("losses=l1", "losses=luml1") + line + "\n")
            csv = tmp_path / "table.csv"
            assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1, line
            assert main(["train", "--config", str(plan), "--out", str(tmp_path / "x.ckpt")]) == 1, line
            assert "luml1:lam:pixel_base" in capsys.readouterr().err
            assert not csv.exists() and not (tmp_path / "x.ckpt").exists()

    def test_eval_sigma_beyond_the_bound_exits_1_before_training(self, tmp_path, capsys, monkeypatch):
        import luml1.bench as bench

        assert parse_config(self.PLAN.replace("eval_sigmas=15", "eval_sigmas=15,1e6")).eval_sigmas == (15.0, 1e6)
        monkeypatch.setattr(bench, "train", _must_not_run)
        plan = tmp_path / "big.plan"
        plan.write_text(self.PLAN.replace("eval_sigmas=15", "eval_sigmas=15,1e41"))
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert "eval_sigmas must lie in [0, 1,000,000]" in capsys.readouterr().err
        assert not csv.exists()

    def test_plan_that_is_not_utf8_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        import luml1.bench as bench

        monkeypatch.setattr(bench, "train", _must_not_run)
        monkeypatch.setattr(cli, "train", _must_not_run)
        plan = tmp_path / "latin1.plan"
        plan.write_bytes(self.PLAN.encode() + b"# caf\xe9\n")
        offset = len(self.PLAN) + len("# caf")
        csv, ckpt = tmp_path / "table.csv", tmp_path / "x.ckpt"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert main(["train", "--config", str(plan), "--out", str(ckpt)]) == 1
        message = f"error: {plan}: not UTF-8 text at byte {offset}\n"
        assert capsys.readouterr().err == message * 2
        assert not csv.exists() and not ckpt.exists()

    def test_valid_plan_writes_csv(self, tmp_path, capsys):
        plan = tmp_path / "ok.plan"
        plan.write_text(self.PLAN)
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[-1].startswith("mean,")


class TestEvalCli:
    def test_eval_over_directory(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            save_image(rand_array(20 + i, 16, 16), data / f"img_{i}.lumf")
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data),
            "--sigmas", "10,25", "--csv", str(csv),
        ])
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "sigma,psnr,ssim,noisy_psnr,noisy_ssim"
        assert len(lines) == 3
        # a zero net passes the noisy input through: psnr == noisy_psnr
        for line in lines[1:]:
            _, p, _, np_, _ = line.split(",")
            assert p == np_

    def test_tall_image_is_scored_in_tiles_as_one_pass(self, tmp_path, monkeypatch):
        import luml1.net
        from luml1.bench import eval_noise, fmt_val
        from luml1.metrics import psnr, ssim
        from luml1.net import DENOISE_TILE_ROWS, net_forward

        net = build_tinynet(9, 8, 3)  # five 3x3 layers: each tile reads 5 rows above and below it
        net.layers[-1].kernels *= 300.0  # an estimate far from zero, so the output is not just the input
        ckpt, data, csv = tmp_path / "net.ckpt", tmp_path / "data", tmp_path / "eval.csv"
        save_checkpoint(net, ckpt)
        data.mkdir()
        save_image(rand_array(11, 200, 48), data / "tall.lumf")
        built = []
        init = luml1.net.Workspace.__init__
        monkeypatch.setattr(luml1.net.Workspace, "__init__", lambda ws, *args: built.append(args[1:4]) or init(ws, *args))
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(data), "--sigmas", "10,40", "--seed", "3", "--csv", str(csv)]
        assert main(argv) == 0
        tasks = min(2, cli.usable_cpus())  # the image's two sigmas, split over the workers
        assert built == [(1, DENOISE_TILE_ROWS + 2 * 5, 48)] * tasks  # a tile workspace per task, none of the image
        net, clean = load_checkpoint(ckpt), load_image(data / "tall.lumf")
        noisy_of = eval_noise((10.0, 40.0), 3)
        tiled = score_images([net], [clean], noisy_of, 2)
        for level, ((scores,), row) in enumerate(zip(tiled, csv.read_text().splitlines()[1:])):
            assert row.split(",")[1:3] == [fmt_val(v) for v in scores]
            noisy = noisy_of(clean[None], first=0, level=level)
            whole, _ = net_forward(net, noisy)
            assert np.abs(whole[0] - noisy[0]).max() > 0.01
            out = np.clip(whole[0], 0.0, 1.0)
            assert np.allclose(scores, (psnr(out, clean), ssim(out, clean)), rtol=0.0, atol=1e-6)

    def test_sigmas_equal_to_six_digits_are_two_rows(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(22, 16, 16), data / "img.lumf")
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data),
            "--sigmas", "12.3456781,12.3456789", "--csv", str(csv),
        ])
        assert rc == 0
        rows = csv.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["12.3456781", "12.3456789"]

    @pytest.mark.parametrize("shape", [(20, 20, 1), (10, 20, 3)])  # not RGB; below the 11x11 SSIM window
    def test_image_the_net_or_ssim_cannot_take_exits_1_naming_it_before_scoring(self, tmp_path, capsys, monkeypatch, shape):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(23, 20, 20), data / "a.lumf")  # sorts first: a check made while scoring would follow its scores
        save_image(rand_array(24, *shape), data / "b.lumf")
        monkeypatch.setattr(cli, "score_set", _must_not_run)
        csv = tmp_path / "eval.csv"
        rc = main(["eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data), "--sigmas", "10", "--csv", str(csv)])
        assert rc == 1
        assert "b.lumf" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("sigmas", ["5,abc", "-5,5", "5,nan", "", "25,25"])
    def test_bad_sigmas_exit_1_before_any_work(self, tmp_path, capsys, sigmas):
        # the checkpoint and data paths do not exist: the sigma list must fail first
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(tmp_path / "none"),
            f"--sigmas={sigmas}", "--csv", str(csv),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not csv.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_1_before_any_work(self, tmp_path, capsys, seed):
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(tmp_path / "none"),
            f"--seed={seed}", "--csv", str(csv),
        ])
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        assert not csv.exists()


class TestNonFiniteNetworkOutput:
    def test_denoise_exits_2_naming_a_layer(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.lumf"
        save_image(rand_array(30, 12, 12), noisy)
        out = tmp_path / "out.ppm"
        rc = main(["denoise", "--ckpt", str(overflow_ckpt(tmp_path)), "--in", str(noisy), "--out", str(out)])
        assert rc == 2
        assert re.search(r"layer\d", capsys.readouterr().err)
        assert not out.exists()

    def test_eval_exits_2_naming_a_layer(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(31, 16, 16), data / "img.lumf")
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(overflow_ckpt(tmp_path)), "--data", str(data),
            "--sigmas", "10", "--csv", str(csv),
        ])
        assert rc == 2
        assert re.search(r"layer\d", capsys.readouterr().err)
        assert not csv.exists()

    def test_inference_overflow_raises_no_numpy_warning(self, tmp_path, capsys):
        ckpt = str(overflow_ckpt(tmp_path))
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(34, 16, 16), data / "img.lumf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["denoise", "--ckpt", ckpt, "--in", str(data / "img.lumf"), "--out", str(tmp_path / "o.ppm")]) == 2
            assert main(["eval", "--ckpt", ckpt, "--data", str(data), "--sigmas", "10", "--csv", str(tmp_path / "e.csv")]) == 2


class TestOutputLocations:
    @pytest.mark.parametrize("command", ["train --out", "train --log", "eval --csv", "bench --csv", "denoise --out"])
    def test_missing_output_directory_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        for name in ("run_bench", "train", "score_set", "denoise_file"):
            monkeypatch.setattr(cli, name, _must_not_run)
        missing = str(tmp_path / "missing" / "out")
        ok = str(tmp_path / "out")
        plan = tmp_path / "ok.plan"
        plan.write_text(TestBenchCli.PLAN)
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(32, 16, 16), data / "img.lumf")
        argv = {
            "train --out": ["train", "--out", missing],
            "train --log": ["train", "--out", ok, "--log", missing],
            "eval --csv": ["eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data), "--csv", missing],
            "bench --csv": ["bench", "--plan", str(plan), "--csv", missing],
            "denoise --out": ["denoise", "--ckpt", str(zero_ckpt(tmp_path)), "--in", str(data / "img.lumf"), "--out", missing],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "directory of output file" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", ["bench --csv", "bench --ckpt-dir", "train --out", "train --log", "eval --csv", "denoise --out"]
    )
    def test_existing_directory_as_output_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        import luml1.bench as bench
        import luml1.trainer as trainer

        stubbed = ((cli, ("train", "score_set", "denoise_file")), (bench, ("train",)), (trainer, ("score_chunk",)))
        for module, names in stubbed:
            for name in names:
                monkeypatch.setattr(module, name, _must_not_run)
        taken = tmp_path / "taken"
        taken.mkdir()
        plan = tmp_path / "ok.plan"
        plan.write_text(TestBenchCli.PLAN)
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(35, 16, 16), data / "img.lumf")
        (tmp_path / "ckpts" / "l1_25.ckpt").mkdir(parents=True)  # the plan's one cell file
        ok = str(tmp_path / "out")
        argv = {
            "bench --csv": ["bench", "--plan", str(plan), "--csv", str(taken)],
            "bench --ckpt-dir": ["bench", "--plan", str(plan), "--csv", ok, "--ckpt-dir", str(tmp_path / "ckpts")],
            "train --out": ["train", "--out", str(taken)],
            "train --log": ["train", "--out", ok, "--log", str(taken)],
            "eval --csv": ["eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data), "--csv", str(taken)],
            "denoise --out": ["denoise", "--ckpt", str(zero_ckpt(tmp_path)), "--in", str(data / "img.lumf"), "--out", str(taken)],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is an existing directory" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["train --out --log", "bench --csv --ckpt-dir"])
    def test_two_outputs_naming_one_file_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        for name in ("run_bench", "train"):
            monkeypatch.setattr(cli, name, _must_not_run)
        plan = tmp_path / "ok.plan"
        plan.write_text(TestBenchCli.PLAN)
        (tmp_path / "ck").mkdir()
        argv = {  # each pair is one file by another name: realpath, not the text, decides
            "train --out --log": ["train", "--out", str(tmp_path / "m.ckpt"), "--log", f"{tmp_path}/./m.ckpt"],
            "bench --csv --ckpt-dir": [
                "bench", "--plan", str(plan), "--csv", str(tmp_path / "ck" / "l1_25.ckpt"), "--ckpt-dir", f"{tmp_path}/ck/",
            ],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert "two outputs name one file" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_existing_non_regular_output_path_is_accepted(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_array(33, 16, 16), data / "img.lumf")
        rc = main([
            "eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data), "--sigmas", "10", "--csv", "/dev/null",
        ])
        assert rc == 0


class TestExitCodes:
    def test_unknown_subcommand_is_invalid_input(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["pixopt"]) == 1

    def test_missing_required_flag_is_invalid_input(self, capsys):
        assert main(["denoise", "--ckpt", "x"]) == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["metric", "--a", str(tmp_path / "nope.ppm"), "--b", str(tmp_path / "nope.ppm")])
        assert rc == 3

    def test_bad_image_format_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"not an image")
        rc = main(["metric", "--a", str(bad), "--b", str(bad)])
        assert rc == 3

    def test_gradcheck_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0

    def test_gradcheck_keeps_its_checks_names_and_element_counts(self):
        # the counts follow from each check's seeded inputs, so a moved stream id shows here
        _, lines = run_gradcheck(9)
        masked = [re.sub(r"\d\.\d{3}e[-+]\d+", "E", re.sub(r" in [\d.]+s$", " in Ts", line)) for line in lines]
        assert masked == [
            "ok   l1                           max_rel_err E (tol 0.0001, 1919 checked, 1 excluded)",
            "ok   l2                           max_rel_err E (tol 1e-06, 1920 checked, 0 excluded)",
            "ok   luminance_term               max_rel_err E (tol 0.0001, 1914 checked, 6 excluded)",
            "ok   luml1(lam=0.5)               max_rel_err E (tol 0.0001, 1910 checked, 10 excluded)",
            "ok   luml1(lam=1)                 max_rel_err E (tol 0.0001, 1911 checked, 9 excluded)",
            "ok   luml1(lam=2)                 max_rel_err E (tol 0.0001, 1906 checked, 14 excluded)",
            "ok   conv_forward/backward        max_rel_err E (tol 1e-05, 131 checked, 0 excluded)",
            "ok   tinynet end-to-end           max_rel_err E (tol 0.0001, 443 checked, 0 excluded)",
            "ok   conv adjoint identity        |<Ax,u>-<x,A'u>| = E (tol 1e-09)",
            "all gradient checks passed in Ts",
        ]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gradcheck_seed_outside_64_bits_exits_1(self, seed, capsys):
        # rng.stream would fold the seed onto one in [0, 2^64) and run its cases under another name
        assert main(["gradcheck", "--seed", seed]) == 1
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err

    def test_module_entrypoint_runs_in_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "luml1.cli", "gen", "--seed", "1", "--count", "1",
             "--size", "16x16", "--out", str(tmp_path / "c")],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "c" / "manifest.txt").exists()
