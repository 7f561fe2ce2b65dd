import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luml1.bench import (
    BenchPlan,
    fmt_val,
    format_config,
    load_plan,
    parse_config,
    parse_report_csv,
    report_to_csv,
    run_bench,
    denoise_file,
)
from luml1.checkpoint import load_checkpoint, save_checkpoint
from luml1.dataset import MIN_IMAGE_SIZE, noisy_set
from luml1.errors import InvalidInputError
from luml1.fnv import fnv1a64
from luml1.image import clamp01
from luml1.losses import LossSpec, parse_loss
from luml1.metrics import psnr
from luml1.net import ConvLayer, TinyNet
from luml1.pnm import load_image, save_image
from luml1.rng import eval_seed, train_seed
from luml1.trainer import TrainConfig, mean_scores

from conftest import rand_image

REPO_ROOT = Path(__file__).resolve().parents[1]
FAST_PLAN, FULL_PLAN = (REPO_ROOT / "plans" / f"{name}.plan" for name in ("fast", "full"))


def micro_plan(**overrides) -> BenchPlan:
    base = dict(
        sigma_max_list=(25.0,),
        eval_sigmas=(10.0, 30.0),
        losses=(LossSpec("l1"), LossSpec("luml1", lam=1.0)),
        steps=25,
        batch_size=4,
        patch_size=16,
        corpus_count=6,
        corpus_h=24,
        corpus_w=24,
        eval_count=4,
        eval_h=24,
        eval_w=24,
        hidden_channels=6,
        hidden_depth=0,
        seed=11,
    )
    base.update(overrides)
    knobs = {f.name for f in fields(TrainConfig)}
    train = TrainConfig(**{k: v for k, v in base.items() if k in knobs})
    return BenchPlan(train=train, **{k: v for k, v in base.items() if k not in knobs})


_sigmas = st.floats(0.0, 100.0, allow_nan=False)


@st.composite
def losses(draw):
    lum = st.builds(
        lambda lam, base: LossSpec("luml1", lam=lam, pixel_base=base),
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from(["l1", "l2"]),
    )
    plain = st.sampled_from([LossSpec("l1"), LossSpec("l2")])
    return tuple(draw(st.lists(st.one_of(plain, lum), min_size=1, max_size=4, unique_by=LossSpec.label)))


@st.composite
def train_configs(draw, plan=False):
    h, w = draw(st.integers(MIN_IMAGE_SIZE, 64)), draw(st.integers(MIN_IMAGE_SIZE, 64))
    cfg = TrainConfig(
        steps=draw(st.integers(0, 10**6)),
        batch_size=draw(st.integers(1, 64)),
        lr=draw(st.floats(1e-9, 1.0)),
        seed=draw(st.integers(0, 2**64)),
        patch_size=draw(st.integers(1, min(h, w))),
        corpus_count=draw(st.integers(1, 1000)),
        corpus_h=h,
        corpus_w=w,
    )
    if plan:
        return cfg
    return replace(
        cfg,
        loss=draw(losses())[0],
        adam_beta1=draw(st.floats(0.01, 0.99)),
        adam_beta2=draw(st.floats(0.01, 0.99)),
        adam_eps=draw(st.floats(1e-12, 1e-3)),
        sigma_max_255=draw(_sigmas),
        checkpoint_every=draw(st.integers(0, 1000)),
    )


@st.composite
def plans(draw):
    return BenchPlan(
        sigma_max_list=tuple(draw(st.lists(_sigmas, min_size=1, max_size=3, unique=True))),
        eval_sigmas=tuple(sorted(draw(st.lists(_sigmas, min_size=1, max_size=5, unique=True)))),
        losses=draw(losses()),
        train=draw(train_configs(plan=True)),
        eval_count=draw(st.integers(1, 500)),
        eval_h=draw(st.integers(MIN_IMAGE_SIZE, 64)),
        eval_w=draw(st.integers(MIN_IMAGE_SIZE, 64)),
        hidden_channels=draw(st.integers(1, 64)),
        hidden_depth=draw(st.integers(0, 8)),
    )


@pytest.fixture(scope="module")
def micro_report():
    return run_bench(micro_plan())


@pytest.fixture(scope="module")
def trained_cell(tmp_path_factory):
    """One modestly trained cell, loaded from the checkpoint its benchmark run saved, plus its evaluation context."""
    from luml1.dataset import gen_clean

    plan = micro_plan(
        steps=150,
        hidden_channels=8,
        hidden_depth=1,
        seed=17,
        losses=(LossSpec("l1"),),
        eval_sigmas=(5.0, 15.0, 30.0),
    )
    ckpt_dir = tmp_path_factory.mktemp("trained_cell")
    report = run_bench(plan, ckpt_dir=ckpt_dir)
    net = load_checkpoint(ckpt_dir / "l1_25.ckpt")
    clean = gen_clean(eval_seed(plan.train.seed), plan.eval_count, plan.eval_h, plan.eval_w)
    return {"plan": plan, "report": report, "net": net, "clean": clean}


class TestPlanFiles:
    def test_round_trip(self):
        for plan in (load_plan(FAST_PLAN), load_plan(FULL_PLAN), micro_plan()):
            assert parse_config(format_config(plan), "plan") == plan

    def test_shipped_fast_plan_matches_preset(self):
        # the desk-scale preset: one sigma_max, every other value a BenchPlan default
        assert load_plan(FAST_PLAN) == BenchPlan(sigma_max_list=(25.0,))

    def test_shipped_full_plan_matches_preset(self):
        # the two training noise ceilings of the reference table layout, with more steps
        assert load_plan(FULL_PLAN) == BenchPlan(train=replace(BenchPlan().train, steps=1500))

    def test_default_structure_mirrors_reference_table(self):
        plan = BenchPlan()
        assert plan.sigma_max_list == (55.0, 75.0)
        assert plan.eval_sigmas == tuple(float(s) for s in range(5, 80, 5))
        assert [s.label() for s in plan.losses] == ["l1", "luml1"]

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config("bogus=1\n", "plan")

    def test_repeated_key_rejected(self):
        with pytest.raises(InvalidInputError, match=r"line 3: key 'steps'"):
            parse_config("steps=10\n# a comment\nsteps=20\n", "plan")
        with pytest.raises(InvalidInputError, match="'lr'"):
            parse_config("lr=0.001\nlr = 0.002\n", "train")
        # a flag override is merged after parsing, so it still wins over the file
        assert parse_config("steps=10\n", "train", {"steps": "20"}).steps == 20

    def test_non_increasing_sigmas_rejected(self):
        with pytest.raises(InvalidInputError):
            micro_plan(eval_sigmas=(10.0, 10.0))

    def test_lambda_sweep_tokens(self):
        plan = parse_config("losses=l1,luml1:0.5,luml1:2\nsigma_max=25\n", "plan")
        assert [s.label() for s in plan.losses] == ["l1", "luml1-0.5", "luml1-2"]
        assert parse_config(format_config(plan), "plan") == plan

    def test_luml1_tokens_carry_their_own_pixel_base(self):
        plan = parse_config("losses=luml1,luml1:0.5:l2\npixel_base=l1\n", "plan")
        assert [(s.lam, s.pixel_base) for s in plan.losses] == [(1.0, "l1"), (0.5, "l2")]
        assert parse_config(format_config(plan), "plan") == plan

    def test_labels_name_a_non_default_pixel_base(self):
        plan = parse_config("losses=l2,luml1,luml1:1:l2,luml1:0.5:l2,luml1:0.5\n", "plan")
        assert [s.label() for s in plan.losses] == ["l2", "luml1", "luml1-l2", "luml1-0.5-l2", "luml1-0.5"]
        assert parse_config(format_config(plan), "plan") == plan
        both = replace(micro_plan(steps=1, eval_sigmas=(10.0,)), losses=plan.losses[1:3])
        csv = report_to_csv(run_bench(both))
        assert "luml1_25_psnr" in csv and "delta-luml1-l2_25_psnr" in csv

    def test_labels_name_the_exact_lam(self):
        assert parse_loss("luml1:1.0000001").label() == "luml1-1.0000001"
        plan = parse_config("losses=luml1:1.0000001,luml1:1.0000002\n", "plan")
        assert [s.label() for s in plan.losses] == ["luml1-1.0000001", "luml1-1.0000002"]

    @pytest.mark.parametrize("token", ["l1:0.5", "luml1:1:l1:x", "luml1:abc", "luml1:1:l3"])
    def test_bad_loss_token_rejected(self, token):
        with pytest.raises(InvalidInputError):
            parse_config(f"losses={token}\n", "plan")

    @pytest.mark.parametrize("line", ["lambda=nan", "lambda=inf", "lambda=-1", "pixel_base=foo"])
    def test_bad_default_loss_rejected_without_a_luml1_token(self, line):
        # lambda and pixel_base are checked even when no bare luml1 token reads them
        with pytest.raises(InvalidInputError):
            parse_config(f"losses=l1\n{line}\n", "plan")

    def test_shipped_plans_keep_their_config_hash(self):
        for name, digest in (("fast", 0x6F9EA8CBE7AA4EEF), ("full", 0x67D5BCA62BFCEB1D)):
            text = (REPO_ROOT / "plans" / f"{name}.plan").read_text()
            assert format_config(parse_config(text, "plan")) == text
            assert fnv1a64(text.encode()) == digest

    def test_nearby_learning_rates_hash_differently(self):
        base = load_plan(FAST_PLAN)
        a, b = (replace(base, train=replace(base.train, lr=lr)) for lr in (1.2345678e-4, 1.23457e-4))
        assert fnv1a64(format_config(a).encode()) != fnv1a64(format_config(b).encode())
        assert parse_config(format_config(a), "plan") == a

    @settings(max_examples=200, deadline=None)
    @given(plans())
    def test_plan_round_trip_property(self, plan):
        assert parse_config(format_config(plan), "plan") == plan

    @settings(max_examples=200, deadline=None)
    @given(train_configs())
    def test_train_config_round_trip_property(self, cfg):
        assert parse_config(format_config(cfg), "train") == cfg

    def test_shipped_input_files_parse(self):
        for path in sorted((REPO_ROOT / "plans").glob("*.plan")):
            assert isinstance(load_plan(path), BenchPlan)
        eval_plan = parse_config((REPO_ROOT / "perfbench" / "eval.plan").read_text() + "seed=4\n", "plan")
        assert eval_plan.train.seed == 4 and [s.label() for s in eval_plan.losses] == ["luml1"]
        train_cfg = (REPO_ROOT / "perfbench" / "train.cfg").read_text()
        cfg = parse_config(train_cfg, "train", {"loss": "luml1", "seed": "3"})
        assert (cfg.loss, cfg.steps, cfg.seed) == (LossSpec("luml1"), 250, 3)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eval_count=0),
            dict(eval_sigmas=(-5.0, 5.0)),
            dict(sigma_max_list=(25.0, float("nan"))),
            dict(eval_h=10),
            dict(hidden_depth=-1),
            dict(hidden_channels=0),
            dict(checkpoint_every=5),
            dict(adam_beta1=0.8),
            # a repeated sigma or loss would share a CSV column or row and a checkpoint name
            dict(sigma_max_list=(25.0, 10.0, 25.0)),
            dict(eval_sigmas=(25.0, 25.0)),
            dict(sigma_max_list=(25.0, 25.0)),
            dict(sigma_max_list=(math.inf,)),
            dict(eval_sigmas=(5.0, math.inf)),
            dict(losses=(LossSpec("l1"), LossSpec("l1"))),
            dict(losses=()),
        ],
    )
    def test_plan_rejects_what_it_cannot_run_or_write(self, overrides):
        with pytest.raises(InvalidInputError):
            micro_plan(**overrides)


class TestRunBench:
    def test_cells_cover_the_grid(self, micro_report):
        plan = micro_report.plan
        for sm in plan.sigma_max_list:
            for loss in plan.losses:
                for sigma in plan.eval_sigmas:
                    assert np.all(np.isfinite(micro_report.cells[(loss.label(), sm, sigma)]))

    def test_sigmas_equal_to_six_digits_keep_their_own_labels(self, tmp_path):
        # :g would write both as 12.3457: one checkpoint name, one column name, one row
        near = (12.3456781, 12.3456789)
        plan = micro_plan(sigma_max_list=near, eval_sigmas=near, losses=(LossSpec("l1"),), steps=1)
        parsed = parse_report_csv(report_to_csv(run_bench(plan, ckpt_dir=tmp_path)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l1_12.3456781.ckpt", "l1_12.3456789.ckpt"]
        assert parsed["columns"] == [f"l1_{sm}_{t}" for sm in near for t in ("psnr", "ssim")]
        assert list(parsed["rows"]) == list(near) and list(parsed["noisy"]) == list(near)

    def test_single_loss_plan_has_no_delta_columns(self):
        report = run_bench(micro_plan(losses=(LossSpec("l1"),), steps=4))
        csv = report_to_csv(report)
        header = [l for l in csv.splitlines() if not l.startswith("#")][0]
        assert "delta" not in header

    def test_determinism_byte_identical_csv(self):
        plan = micro_plan(steps=8)
        a = report_to_csv(run_bench(plan))
        b = report_to_csv(run_bench(plan))
        assert a == b

    def test_training_uses_train_domain_and_eval_uses_eval_domain(self, micro_report):
        plan = micro_report.plan
        cfg = replace(plan.train, loss=plan.losses[0], sigma_max_255=plan.sigma_max_list[0])
        assert cfg.blind_spec().seed & 1 == 0
        assert train_seed(plan.train.seed) & 1 == 0
        assert eval_seed(plan.train.seed) & 1 == 1

    def test_noisy_baseline_present_per_sigma(self, micro_report):
        for sigma in micro_report.plan.eval_sigmas:
            assert 0 < micro_report.noisy[sigma][0] < 100


class TestReportCsv:
    def test_header_format(self, micro_report):
        csv = report_to_csv(micro_report)
        header = [l for l in csv.splitlines() if not l.startswith("#")][0]
        assert header.split(",") == [
            "sigma",
            "l1_25_psnr", "l1_25_ssim",
            "luml1_25_psnr", "luml1_25_ssim",
            "delta-luml1_25_psnr", "delta-luml1_25_ssim",
        ]

    def test_values_are_fixed_four_decimals(self, micro_report):
        csv = report_to_csv(micro_report)
        data_rows = [l for l in csv.splitlines() if not l.startswith("#")][1:]
        for row in data_rows:
            for cell in row.split(",")[1:]:
                whole, frac = cell.lstrip("-").split(".")
                assert len(frac) == 4

    def test_delta_equals_ours_minus_base(self, micro_report):
        parsed = parse_report_csv(report_to_csv(micro_report))
        cols = parsed["columns"]
        i_base = cols.index("l1_25_psnr")
        i_ours = cols.index("luml1_25_psnr")
        i_delta = cols.index("delta-luml1_25_psnr")
        for sigma, vals in parsed["rows"].items():
            assert abs(vals[i_delta] - round(vals[i_ours] - vals[i_base], 4)) < 5e-4

    def test_mean_row_is_column_mean(self, micro_report):
        # printed mean uses full precision, so it may differ from the mean of
        # the rounded cells by one rounding step on each side
        parsed = parse_report_csv(report_to_csv(micro_report))
        rows = list(parsed["rows"].values())
        for j, m in enumerate(parsed["mean"]):
            assert abs(m - np.mean([r[j] for r in rows])) <= 1.01e-4

    def test_parse_back_recovers_cells_exactly(self, micro_report):
        csv = report_to_csv(micro_report)
        parsed = parse_report_csv(csv)
        again_lines = []
        for sigma in micro_report.plan.eval_sigmas:
            cells = ",".join(f"{v:.4f}" for v in parsed["rows"][sigma])
            again_lines.append(f"{sigma:g},{cells}")
        original_data = [
            l for l in csv.splitlines() if not l.startswith("#") and not l.startswith("sigma") and not l.startswith("mean")
        ]
        assert again_lines == original_data

    def test_no_signed_zero(self):
        assert [fmt_val(v) for v in (-4e-5, -0.0, 0.0, 4e-5, -6e-5)] == ["0.0000"] * 4 + ["-0.0001"]

    def test_non_finite_values_keep_their_sign(self):
        assert [fmt_val(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]

    def test_comment_mentions_ssim_extension(self, micro_report):
        assert "ssim columns extend" in report_to_csv(micro_report).splitlines()[0]


class TestTrainedModelSanity:
    def test_clean_input_is_barely_perturbed(self, trained_cell):
        # denoising an already-clean image must beat the easiest noisy cell
        from luml1.net import net_forward

        net, clean = trained_cell["net"], trained_cell["clean"]
        report, plan = trained_cell["report"], trained_cell["plan"]
        score = np.mean([psnr(np.clip(net_forward(net, c.data)[0], 0.0, 1.0), c.data) for c in clean])
        easiest = report.cells[("l1", plan.sigma_max_list[0], plan.eval_sigmas[0])][0]
        assert score > easiest

    def test_never_degrades_more_than_1db_vs_identity(self, trained_cell):
        report, plan = trained_cell["report"], trained_cell["plan"]
        for sigma in plan.eval_sigmas:
            cell = report.cells[("l1", plan.sigma_max_list[0], sigma)][0]
            assert cell >= report.noisy[sigma][0] - 1.0

    def test_saved_checkpoint_reproduces_the_reported_numbers(self, trained_cell):
        net, clean = trained_cell["net"], trained_cell["clean"]
        report, plan = trained_cell["report"], trained_cell["plan"]
        for si, sigma in enumerate(plan.eval_sigmas):
            noisy = noisy_set(clean, sigma, eval_seed(plan.train.seed), si)
            assert mean_scores(net, noisy, clean) == report.cells[("l1", plan.sigma_max_list[0], sigma)]


class TestDenoiseFile:
    def test_zero_checkpoint_is_clamped_identity(self, tmp_path):
        zero = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero, ckpt)
        img = rand_image(80, 16, 16)
        src = tmp_path / "in.lumf"
        dst = tmp_path / "out.lumf"
        save_image(img, src)
        denoise_file(ckpt, src, dst)
        out = load_image(dst)
        expected = clamp01(load_image(src))
        assert np.array_equal(out.data, expected.data.astype("<f4").astype(np.float64))

    def test_deterministic_output_bytes(self, tmp_path):
        zero = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero, ckpt)
        img = rand_image(81, 16, 16)
        src = tmp_path / "in.ppm"
        save_image(img, src)
        outs = []
        for name in ("a.ppm", "b.ppm"):
            denoise_file(ckpt, src, tmp_path / name)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
