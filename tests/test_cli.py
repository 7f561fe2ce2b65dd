import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from luml1.checkpoint import load_checkpoint, save_checkpoint
import luml1.cli as cli
from luml1.cli import main
from luml1.dataset import gen_clean, noisy_set
from luml1.net import ConvLayer, TinyNet, build_tinynet
from luml1.pnm import load_image, save_image
from luml1.rng import train_seed

from conftest import rand_image


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
        clean = gen_clean(4, 2, 16, 16)
        expected = noisy_set(clean, 30.0, 4)[0].data.astype("<f4").astype(np.float64)
        assert np.array_equal(load_image(out / "noisy_0000.lumf").data, expected)

    @pytest.mark.parametrize("flag,value", [("--sigma", "inf"), ("--sigma", "-1"), ("--size", "8x8")])
    def test_bad_input_exits_1_and_creates_no_directory(self, tmp_path, capsys, flag, value):
        out = tmp_path / "corpus"
        args = {"--count": "1", "--size": "16x16", "--out": str(out), flag: value}
        assert main(["gen"] + [t for kv in args.items() for t in kv]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMetric:
    def test_default_prints_psnr_and_ssim(self, tmp_path, capsys):
        a, b = rand_image(1, 16, 16), rand_image(2, 16, 16)
        pa, pb = tmp_path / "a.lumf", tmp_path / "b.lumf"
        save_image(a, pa)
        save_image(b, pb)
        rc = main(["metric", "--a", str(pa), "--b", str(pb)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("psnr ") and "ssim " in out

    def test_luml1_metric(self, tmp_path, capsys):
        a, b = rand_image(3, 12, 12), rand_image(4, 12, 12)
        pa, pb = tmp_path / "a.lumf", tmp_path / "b.lumf"
        save_image(a, pa)
        save_image(b, pb)
        rc = main(["metric", "--a", str(pa), "--b", str(pb), "--luml1", "--lambda", "2.0"])
        assert rc == 0
        assert "luml1 " in capsys.readouterr().out

    def test_bad_lambda_exits_1_before_any_output(self, tmp_path, capsys):
        pa = tmp_path / "a.lumf"
        save_image(rand_image(3, 12, 12), pa)
        rc = main(["metric", "--a", str(pa), "--b", str(pa), "--lambda", "nan"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and err.startswith("error: ")


class TestDenoise:
    def test_roundtrip_with_zero_checkpoint(self, tmp_path):
        ckpt = zero_ckpt(tmp_path)
        img = rand_image(5, 16, 16)
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        save_image(img, src)
        rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(src), "--out", str(dst)])
        assert rc == 0
        assert np.array_equal(load_image(dst).data, load_image(src).data)

    def test_corrupt_checkpoint_exits_3_with_checksum_message(self, tmp_path, capsys):
        ckpt = zero_ckpt(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # flip one stored kernel bit
        ckpt.write_bytes(bytes(raw))
        img = rand_image(6, 16, 16)
        src = tmp_path / "in.ppm"
        save_image(img, src)
        rc = main(["denoise", "--ckpt", str(ckpt), "--in", str(src), "--out", str(tmp_path / "o.ppm")])
        assert rc == 3
        assert "checksum" in capsys.readouterr().err


class TestTrainCli:
    def test_train_with_config_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "loss=l1\nsteps=5\nbatch_size=2\nsigma_max=25\npatch_size=16\n"
            "corpus_count=4\ncorpus_size=20x20\nseed=3\n"
        )
        ckpt = tmp_path / "net.ckpt"
        log = tmp_path / "log.csv"
        rc = main([
            "train", "--config", str(cfg), "--loss", "luml1", "--lambda", "0.5",
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
            ("adam_eps=nan", []),
            ("adam_eps=inf", []),
            ("", ["--loss", "luml1", "--lambda", "inf"]),
            ("", ["--lambda", "inf"]),
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

    def test_loss_flag_takes_a_loss_token(self, tmp_path, capsys):
        base = "steps=3\nbatch_size=2\npatch_size=16\ncorpus_count=2\ncorpus_size=16x16\n"
        cfg, flag_cfg = tmp_path / "token.cfg", tmp_path / "base.cfg"
        cfg.write_text(base + "loss=luml1:0.5:l2\n")
        flag_cfg.write_text(base)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(flag_cfg), "--loss", "luml1:0.5:l2", "--out", str(b)]) == 0
        assert "luml1-0.5-l2" in capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()

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
        init = build_tinynet(train_seed(5))
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
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
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
        import luml1.bench as bench

        monkeypatch.setattr(bench, "mean_scores", _must_not_run)
        kept = [ln for ln in self.PLAN.splitlines() if not ln.startswith(("corpus_size=", "patch_size="))]
        plan = tmp_path / "small.plan"
        plan.write_text("\n".join(kept + ["corpus_size=12x12", "patch_size=8"]) + "\n")
        csv = tmp_path / "table.csv"
        assert main(["bench", "--plan", str(plan), "--csv", str(csv)]) == 1
        assert "corpus_size at least 16x16" in capsys.readouterr().err
        assert not csv.exists()

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
            save_image(rand_image(20 + i, 16, 16), data / f"img_{i}.lumf")
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

    def test_sigmas_equal_to_six_digits_are_two_rows(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_image(22, 16, 16), data / "img.lumf")
        csv = tmp_path / "eval.csv"
        rc = main([
            "eval", "--ckpt", str(zero_ckpt(tmp_path)), "--data", str(data),
            "--sigmas", "12.3456781,12.3456789", "--csv", str(csv),
        ])
        assert rc == 0
        rows = csv.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["12.3456781", "12.3456789"]

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


class TestNonFiniteNetworkOutput:
    def test_denoise_exits_2_naming_a_layer(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.lumf"
        save_image(rand_image(30, 12, 12), noisy)
        out = tmp_path / "out.ppm"
        rc = main(["denoise", "--ckpt", str(overflow_ckpt(tmp_path)), "--in", str(noisy), "--out", str(out)])
        assert rc == 2
        assert re.search(r"layer\d", capsys.readouterr().err)
        assert not out.exists()

    def test_eval_exits_2_naming_a_layer(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_image(31, 16, 16), data / "img.lumf")
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
        save_image(rand_image(34, 16, 16), data / "img.lumf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["denoise", "--ckpt", ckpt, "--in", str(data / "img.lumf"), "--out", str(tmp_path / "o.ppm")]) == 2
            assert main(["eval", "--ckpt", ckpt, "--data", str(data), "--sigmas", "10", "--csv", str(tmp_path / "e.csv")]) == 2


class TestOutputLocations:
    @pytest.mark.parametrize("command", ["train --out", "train --log", "eval --csv", "bench --csv", "denoise --out"])
    def test_missing_output_directory_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        for name in ("run_bench", "train", "mean_scores", "denoise_file"):
            monkeypatch.setattr(cli, name, _must_not_run)
        missing = str(tmp_path / "missing" / "out")
        ok = str(tmp_path / "out")
        plan = tmp_path / "ok.plan"
        plan.write_text(TestBenchCli.PLAN)
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_image(32, 16, 16), data / "img.lumf")
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

    def test_existing_non_regular_output_path_is_accepted(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_image(rand_image(33, 16, 16), data / "img.lumf")
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

    def test_module_entrypoint_runs_in_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "luml1.cli", "gen", "--seed", "1", "--count", "1",
             "--size", "16x16", "--out", str(tmp_path / "c")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "c" / "manifest.txt").exists()
