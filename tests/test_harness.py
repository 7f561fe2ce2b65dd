import math
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import luml1.bench
import luml1.cli
import luml1.dataset
import luml1.trainer
from luml1.bench import (
    CONFIG_KEYS,
    Config,
    fmt_val,
    format_config,
    load_plan,
    parse_config,
    parse_kv,
    report_to_csv,
    denoise_file,
    eval_noise,
    run_bench,
)
from luml1.checkpoint import load_checkpoint, save_checkpoint
from luml1.dataset import MIN_IMAGE_SIZE, gen_chunk
from luml1.errors import InvalidInputError, NumericalError
from luml1.fnv import fnv1a64
from luml1.losses import LossSpec, parse_loss
from luml1.metrics import psnr
from luml1.net import ConvLayer, TinyNet, Workspace
from luml1.pnm import load_image, save_image
from luml1.rng import DOMAIN_CLEAN, DOMAIN_EVAL_NOISE, DOMAIN_TRAIN_CLEAN, eval_seed
from luml1.trainer import train

from conftest import rand_array, score_images
from oracles import parse_report_csv

REPO_ROOT = Path(__file__).resolve().parents[1]
FAST_PLAN, FULL_PLAN = (REPO_ROOT / "plans" / f"{name}.plan" for name in ("fast", "full"))


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


def parse_from(source: str, text: str) -> Config:
    """The keys of ``text`` as lines of a plan file ("plan") or as the overrides of luml1 train's flags ("train")."""
    return parse_config(text) if source == "plan" else parse_config("", parse_kv(text))


def micro_plan(**overrides) -> Config:
    base = dict(
        sigma_max=(25.0,),
        eval_sigmas=(10.0, 30.0),
        losses=(LossSpec("l1"), LossSpec(lam=1.0)),
        steps=25,
        batch_size=4,
        patch_size=16,
        corpus_count=6,
        corpus_size=(24, 24),
        eval_count=4,
        eval_size=(24, 24),
        hidden_channels=6,
        hidden_depth=0,
        seed=11,
    )
    base.update(overrides)
    return Config(**base)


_sigmas = st.floats(0.0, 100.0, allow_nan=False)


@st.composite
def losses(draw):
    lum = st.builds(
        lambda lam, base: LossSpec(base, lam),
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from(["l1", "l2"]),
    )
    plain = st.sampled_from([LossSpec("l1"), LossSpec("l2")])
    return tuple(draw(st.lists(st.one_of(plain, lum), min_size=1, max_size=4, unique_by=LossSpec.label)))


@st.composite
def shared_knobs(draw) -> dict:
    """Values of the fields that a training run reads, sigma_max and losses aside."""
    h, w = draw(st.integers(MIN_IMAGE_SIZE, 64)), draw(st.integers(MIN_IMAGE_SIZE, 64))
    return dict(
        steps=draw(st.integers(0, 10**6)),
        batch_size=draw(st.integers(1, 64)),
        lr=draw(st.floats(1e-9, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        patch_size=draw(st.integers(1, min(h, w))),
        corpus_count=draw(st.integers(1, 1000)),
        corpus_size=(h, w),
    )


@st.composite
def train_configs(draw):
    return Config(
        sigma_max=(draw(_sigmas),),
        losses=draw(losses())[:1],
        **draw(shared_knobs()),
    )


@st.composite
def plans(draw):
    return Config(
        sigma_max=tuple(draw(st.lists(_sigmas, min_size=1, max_size=3, unique=True))),
        eval_sigmas=tuple(sorted(draw(st.lists(_sigmas, min_size=1, max_size=5, unique=True)))),
        losses=draw(losses()),
        eval_count=draw(st.integers(1, 500)),
        eval_size=(draw(st.integers(MIN_IMAGE_SIZE, 64)), draw(st.integers(MIN_IMAGE_SIZE, 64))),
        hidden_channels=draw(st.integers(1, 64)),
        hidden_depth=draw(st.integers(0, 8)),
        **draw(shared_knobs()),
    )


@pytest.fixture(scope="module")
def micro_report():
    return run_bench(micro_plan())


@pytest.fixture(scope="module")
def trained_cell(tmp_path_factory):
    """One modestly trained cell, loaded from the checkpoint its benchmark run saved, plus its evaluation context."""
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
    clean = gen_chunk(eval_seed(plan.seed), 0, plan.eval_count, *plan.eval_size)
    return {"plan": plan, "report": report, "net": net, "clean": clean}


class TestPlanFiles:
    def test_round_trip(self):
        for plan in (load_plan(FAST_PLAN), load_plan(FULL_PLAN), micro_plan()):
            assert parse_config(format_config(plan)) == plan

    def test_shipped_fast_plan_matches_preset(self):
        # the desk-scale preset: l1 against luml1 under the benchmark seed, every other value a default
        assert load_plan(FAST_PLAN) == Config(losses=(LossSpec("l1"), LossSpec(lam=1.0)), seed=909)

    def test_shipped_full_plan_matches_preset(self):
        # the two training noise ceilings of the reference table layout, with more steps
        assert load_plan(FULL_PLAN) == replace(load_plan(FAST_PLAN), sigma_max=(55.0, 75.0), steps=1500)

    def test_default_structure_mirrors_reference_table(self):
        plan = load_plan(FULL_PLAN)
        assert (plan.sigma_max, plan.seed) == ((55.0, 75.0), 909)
        assert plan.eval_sigmas == Config().eval_sigmas == tuple(float(s) for s in range(5, 80, 5))
        assert [s.label() for s in plan.losses] == ["l1", "luml1"]

    def test_empty_file_is_the_default_config(self):
        cfg = parse_config("")
        assert cfg == Config() and (cfg.sigma_max, cfg.losses, cfg.seed) == ((25.0,), (LossSpec("l1"),), 0)

    def test_every_field_has_a_key_and_every_key_a_field(self):
        # every field is a key, so any Config, a train config included, has a plan text that names it
        assert sorted(key for key, _ in CONFIG_KEYS) == sorted(f.name for f in fields(Config))

    def test_negative_zero_is_written_as_zero(self):
        assert parse_loss("luml1:-0").label() == "l1"  # lam 0 is the pixel loss itself
        a, b = (parse_config(f"sigma_max={v}\neval_sigmas={v},5\nlosses=luml1:{v}\n") for v in ("-0", "0"))
        assert format_config(a) == format_config(b)

    @pytest.mark.parametrize("source", ["plan", "train"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 909)])
    def test_seed_outside_64_bits_rejected(self, source, seed):
        # stream and eval_seed reduce a seed modulo 2^64: such a seed would rerun another seed's streams
        with pytest.raises(InvalidInputError, match="seed"):
            parse_from(source, f"seed={seed}\n")

    def test_largest_seed_round_trips(self):
        plan = parse_config(f"seed={2**64 - 1}\n")
        assert parse_config(format_config(plan)) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config("bogus=1\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(InvalidInputError, match=r"line 3: key 'steps'"):
            parse_config("steps=10\n# a comment\nsteps=20\n")
        with pytest.raises(InvalidInputError, match="'lr'"):
            parse_config("lr=0.001\nlr = 0.002\n")
        # a flag override is merged after parsing, so it still wins over the file
        assert parse_config("steps=10\n", {"steps": "20"}).steps == 20

    def test_non_increasing_sigmas_rejected(self):
        with pytest.raises(InvalidInputError):
            micro_plan(eval_sigmas=(10.0, 10.0))

    def test_lambda_sweep_tokens(self):
        plan = parse_config("losses=l1,luml1:0.5,luml1:2\nsigma_max=25\n")
        assert [s.label() for s in plan.losses] == ["l1", "luml1-0.5", "luml1-2"]
        assert parse_config(format_config(plan)) == plan

    def test_luml1_tokens_carry_their_own_pixel_base(self):
        plan = parse_config("losses=luml1,luml1:0.5:l2\n")
        assert [(s.lam, s.pixel_base) for s in plan.losses] == [(1.0, "l1"), (0.5, "l2")]
        assert parse_config(format_config(plan)) == plan

    def test_labels_name_a_non_default_pixel_base(self):
        plan = parse_config("losses=l2,luml1,luml1:1:l2,luml1:0.5:l2,luml1:0.5\n")
        assert [s.label() for s in plan.losses] == ["l2", "luml1", "luml1-l2", "luml1-0.5-l2", "luml1-0.5"]
        assert parse_config(format_config(plan)) == plan
        both = replace(micro_plan(steps=1, eval_sigmas=(10.0,)), losses=plan.losses[1:3])
        csv = report_to_csv(run_bench(both))
        assert "luml1_25_psnr" in csv and "delta-luml1-l2_25_psnr" in csv

    @pytest.mark.parametrize(
        "text,source", [("lambda=0.5\n", "train"), ("pixel_base=l2\n", "train"), ("losses=l1,l2\nlambda=0.5\n", "plan")]
    )
    def test_lambda_or_pixel_base_without_a_luml1_loss_rejected(self, text, source):
        # a loss token sets lam and pixel base; the retired keys read only their defaults, as no-ops
        with pytest.raises(InvalidInputError, match="a loss token luml1:lam:pixel_base sets it"):
            parse_from(source, text)
        assert parse_from(source, "lambda=1\npixel_base=l1\n") == parse_config("")

    @pytest.mark.parametrize(
        "text", ["losses=luml1:0.5,l1\nlambda=0.7\n", "losses=luml1:0.5:l2\npixel_base=l2\n", "lambda=0.5\nlosses=luml1:1\n"]
    )
    def test_lambda_or_pixel_base_that_no_loss_token_reads_rejected(self, text):
        # a bare luml1 token reads neither key either: it is lam 1 on an L1 base
        for losses in ("losses=", "losses=luml1,"):
            with pytest.raises(InvalidInputError, match="a loss token luml1:lam:pixel_base sets it"):
                parse_config(text.replace("losses=", losses))

    def test_labels_name_the_exact_lam(self):
        assert parse_loss("luml1:1.0000001").label() == "luml1-1.0000001"
        plan = parse_config("losses=luml1:1.0000001,luml1:1.0000002\n")
        assert [s.label() for s in plan.losses] == ["luml1-1.0000001", "luml1-1.0000002"]

    @pytest.mark.parametrize("token", ["l1:0.5", "luml1:1:l1:x", "luml1:abc", "luml1:1:l3"])
    def test_bad_loss_token_rejected(self, token):
        with pytest.raises(InvalidInputError):
            parse_config(f"losses={token}\n")

    @pytest.mark.parametrize("line", ["lambda=nan", "lambda=inf", "lambda=-1", "pixel_base=foo"])
    def test_bad_default_loss_rejected_without_a_luml1_token(self, line):
        # a retired key's value other than its default is rejected, whatever the losses
        with pytest.raises(InvalidInputError):
            parse_config(f"losses=l1\n{line}\n")

    def test_shipped_plans_keep_their_config_hash(self):
        for name, digest in (("fast", 0xD11D14D0F2B98A60), ("full", 0x16499789BA017E16)):
            text = (REPO_ROOT / "plans" / f"{name}.plan").read_text()
            assert format_config(parse_config(text)) == text
            assert fnv1a64(text.encode()) == digest

    def test_shipped_plans_are_canonical(self):
        # plans/paper-dncnn.plan included: its text is the plan it names, so its hash is that plan's
        for path in sorted((REPO_ROOT / "plans").glob("*.plan")):
            text = path.read_text()
            assert format_config(parse_config(text)) == text, path.name

    def test_mixed_loss_plan_keeps_its_config_hash(self):
        plan = parse_config("losses=l2,l1,luml1,luml1:1:l2,luml1:0.5:l2,luml1:0.5\n")
        assert [s.label() for s in plan.losses] == ["l2", "l1", "luml1", "luml1-l2", "luml1-0.5-l2", "luml1-0.5"]
        assert fnv1a64(format_config(plan).encode()) == 0x1E405D666AD5E41C

    def test_nearby_learning_rates_hash_differently(self):
        base = load_plan(FAST_PLAN)
        a, b = (replace(base, lr=lr) for lr in (1.2345678e-4, 1.23457e-4))
        assert fnv1a64(format_config(a).encode()) != fnv1a64(format_config(b).encode())
        assert parse_config(format_config(a)) == a

    @settings(max_examples=200, deadline=None)
    @given(plans())
    def test_plan_round_trip_property(self, plan):
        assert parse_config(format_config(plan)) == plan

    @settings(max_examples=200, deadline=None)
    @given(train_configs())
    def test_train_config_round_trip_property(self, cfg):
        # a train config is a one-cell plan, and its canonical text is that plan's
        assert parse_config(format_config(cfg)) == cfg

    def test_shipped_input_files_parse(self):
        for path in sorted((REPO_ROOT / "plans").glob("*.plan")):
            assert isinstance(load_plan(path), Config)

    def test_benchmark_inputs_are_pinned(self):
        # perfbench/run.py runs luml1 train on train.cfg with --loss luml1 --seed <n>, and luml1 bench
        # on eval.plan with seed=<n> appended: a codec change must not move what either run computes
        perfbench = REPO_ROOT / "perfbench"
        cfg = load_plan(perfbench / "train.cfg", {"losses": "luml1", "seed": "6"})
        assert cfg == Config(sigma_max=(25.0,), losses=(LossSpec(lam=1.0),), steps=250, batch_size=8, lr=0.001,
                             seed=6, patch_size=32, corpus_count=64, corpus_size=(40, 40))
        plan = parse_config((perfbench / "eval.plan").read_text() + "seed=8\n")
        assert plan == Config(
            sigma_max=(25.0,), eval_sigmas=tuple(float(s) for s in range(5, 80, 5)), losses=(LossSpec(lam=1.0),),
            steps=200, batch_size=8, lr=0.001, seed=8, patch_size=16, corpus_count=64, corpus_size=(40, 40),
            eval_count=48, eval_size=(40, 40), hidden_channels=16, hidden_depth=3,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eval_count=0),
            dict(eval_sigmas=(-5.0, 5.0)),
            dict(sigma_max=(25.0, float("nan"))),
            dict(eval_size=(10, 40)),
            dict(hidden_depth=-1),
            dict(hidden_channels=0),
            dict(sigma_max=()),
            dict(eval_sigmas=()),
            # a repeated sigma or loss would share a CSV column or row and a checkpoint name
            dict(sigma_max=(25.0, 10.0, 25.0)),
            dict(eval_sigmas=(25.0, 25.0)),
            dict(sigma_max=(25.0, 25.0)),
            dict(sigma_max=(math.inf,)),
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
        assert len(micro_report.rows) == len(plan.eval_sigmas)
        for row in micro_report.rows:
            assert len(row) == 1 + len(plan.sigma_max) * len(plan.losses)
            assert np.all(np.isfinite(row))

    def test_sigmas_equal_to_six_digits_keep_their_own_labels(self, tmp_path):
        # :g would write both as 12.3457: one checkpoint name, one column name, one row
        near = (12.3456781, 12.3456789)
        plan = micro_plan(sigma_max=near, eval_sigmas=near, losses=(LossSpec("l1"),), steps=1)
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

    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}"
            out.mkdir()
            monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: workers)
            csv = report_to_csv(run_bench(micro_plan(steps=8), ckpt_dir=out))
            outputs.append((csv, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert sorted(outputs[0][1]) == ["l1_25.ckpt", "luml1_25.ckpt"]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_diverging_plan_raises_the_same_error_for_any_worker_count(self, monkeypatch):
        texts = []
        for workers in (1, 2):
            monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: workers)
            with pytest.raises(NumericalError) as info:
                run_bench(micro_plan(lr=1e300, steps=3))
            texts.append(str(info.value))
        assert texts[0] == texts[1] and "aborted at step 1" in texts[0]

    def test_first_failing_cell_in_plan_order_is_raised(self, monkeypatch):
        # the second cell fails first in time; the error raised is still the first cell's
        second_failed = threading.Event()

        def failing_train(cfg, **kwargs):
            label = cfg.losses[0].label()
            if label == "l1":
                assert second_failed.wait(10)
            else:
                second_failed.set()
            raise NumericalError(f"cell {label} diverged")

        monkeypatch.setattr(luml1.bench, "train", failing_train)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        with pytest.raises(NumericalError, match="cell l1 diverged"):
            run_bench(micro_plan())

    def test_failing_cell_leaves_no_checkpoint_of_a_later_cell(self, tmp_path, monkeypatch):
        # the second cell finishes training while the first is still running, and then the first fails
        second_trained = threading.Event()
        train = luml1.bench.train

        def first_fails(cfg, **kwargs):
            if cfg.losses[0].label() == "l1":
                assert second_trained.wait(10)
                raise NumericalError("cell l1 diverged")
            trained = train(cfg, **kwargs)
            second_trained.set()
            return trained

        monkeypatch.setattr(luml1.bench, "train", first_fails)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        with pytest.raises(NumericalError, match="cell l1 diverged"):
            run_bench(micro_plan(steps=1), ckpt_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_cells_beside_a_failed_cell_stop_at_their_next_step(self, monkeypatch):
        # the l1 cell diverges at step 1; the luml1 cell beside it would train for minutes
        def l1_diverges(cfg, **kwargs):
            return train(replace(cfg, lr=1e300) if cfg.losses[0] == LossSpec("l1") else cfg, **kwargs)

        monkeypatch.setattr(luml1.bench, "train", l1_diverges)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(NumericalError, match="aborted at step 1"):
            run_bench(micro_plan(steps=10_000))
        assert time.perf_counter() - t0 < 5.0

    def test_cells_stop_at_their_next_step_on_ctrl_c(self, tmp_path, monkeypatch):
        steps = []

        def interrupted(cfg, stop, **kwargs):
            def stop_after_a_step():
                steps.append(cfg.losses[0].label())
                if steps.count("l1") == 3 and cfg.losses[0].label() == "l1":  # once, while training: Ctrl-C
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                return stop()

            return train(cfg, stop=stop_after_a_step, **kwargs)

        monkeypatch.setattr(luml1.bench, "train", interrupted)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_bench(micro_plan(steps=10_000), ckpt_dir=tmp_path)
        assert time.perf_counter() - t0 < 5.0
        assert len(steps) < 100 and list(tmp_path.iterdir()) == []

    def test_only_the_cells_after_a_failed_cell_stop(self, tmp_path, monkeypatch):
        # 4 cells on 4 workers (more than cores), threads switching often: cell 1 fails at its first
        # step; cells 2 and 3 must stop then, while cell 0 still trains, and cell 0 must finish and be saved
        ended = {}

        def second_fails(cfg, **kwargs):
            cell = (cfg.losses[0].label(), cfg.sigma_max[0])
            steps = 300 if cell == ("l1", 25.0) else cfg.steps
            lr = 1e300 if cell == ("luml1", 25.0) else cfg.lr
            try:
                trained = train(replace(cfg, steps=steps, lr=lr), **kwargs)
            except BaseException as exc:
                ended[cell] = type(exc).__name__
                raise
            ended[cell] = "finished"
            return trained

        monkeypatch.setattr(luml1.bench, "train", second_fails)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            t0 = time.perf_counter()
            with pytest.raises(NumericalError, match="aborted at step 1"):
                run_bench(micro_plan(sigma_max=(25.0, 30.0), steps=10_000), ckpt_dir=tmp_path)
            assert time.perf_counter() - t0 < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert ended == {("l1", 25.0): "finished", ("luml1", 25.0): "NumericalError",
                         ("l1", 30.0): "CancelledError", ("luml1", 30.0): "CancelledError"}
        assert list(ended)[-1] == ("l1", 25.0)  # the later cells stopped before cell 0 finished
        assert [p.name for p in tmp_path.iterdir()] == ["l1_25.ckpt"]

    def test_noisy_sets_are_made_per_sigma_after_training(self, monkeypatch):
        made = []
        stream = luml1.dataset.stream
        train = luml1.bench.train

        def eval_noise_stream(seed, *ids):  # (DOMAIN_EVAL_NOISE, sigma index, image index): one test image's noise
            if ids[0] == DOMAIN_EVAL_NOISE:
                made.append(ids[1])
            return stream(seed, *ids)

        monkeypatch.setattr(luml1.dataset, "stream", eval_noise_stream)
        monkeypatch.setattr(luml1.bench, "train", lambda cfg, **kw: made.append("train") or train(cfg, **kw))
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        plan = micro_plan(steps=1)
        run_bench(plan)
        assert made[:2] == ["train", "train"] and sorted(made[2:]) == [0] * plan.eval_count + [1] * plan.eval_count

    @staticmethod
    def record_gen_chunk(monkeypatch, into: list) -> None:
        """Append the stream domain of every gen_chunk call that run_bench and train make to ``into``."""
        def recording(seed, first, count, h, w, domain=DOMAIN_CLEAN):
            into.append(domain)
            return gen_chunk(seed, first, count, h, w, domain)

        for module in (luml1.bench, luml1.trainer):
            monkeypatch.setattr(module, "gen_chunk", recording)

    def test_cells_share_one_training_corpus(self, monkeypatch):
        made = []
        self.record_gen_chunk(monkeypatch, made)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        run_bench(micro_plan(steps=1))  # two cells
        # one corpus; one chunk of test images, made by each of the two tasks that its two sigmas are split over
        assert sorted(made) == sorted([DOMAIN_TRAIN_CLEAN, DOMAIN_CLEAN, DOMAIN_CLEAN])

    def test_test_set_is_built_after_the_last_training_step(self, monkeypatch):
        events = []  # gen_chunk domains and "step" per Adam update, in time order
        self.record_gen_chunk(monkeypatch, events)
        adam_step = luml1.trainer.adam_step
        monkeypatch.setattr(luml1.trainer, "adam_step", lambda *args: events.append("step") or adam_step(*args))
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        plan = micro_plan(steps=3)
        run_bench(plan)
        last_step = max(i for i, event in enumerate(events) if event == "step")
        assert events.count("step") == 2 * plan.steps and events.count(DOMAIN_CLEAN) == 2  # a task per sigma
        assert events.index(DOMAIN_CLEAN) > last_step

    def test_scoring_builds_no_workspace_with_backward_maps(self, monkeypatch):
        built, scoring = [], []  # (built while scoring, workspace); scoring turns true at the first score_chunk
        init, score = Workspace.__init__, luml1.trainer.score_chunk

        def recording_init(ws, *args, **kwargs):
            init(ws, *args, **kwargs)
            built.append((bool(scoring), ws))

        monkeypatch.setattr(Workspace, "__init__", recording_init)
        monkeypatch.setattr(luml1.trainer, "score_chunk", lambda *args: scoring.append(1) or score(*args))
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 2)
        plan = micro_plan(steps=1, eval_count=12)  # 24x24 images go 11 to a chunk: chunks of two shapes
        run_bench(plan)
        trained, scored = ([ws for s, ws in built if s == phase] for phase in (False, True))
        assert len(trained) == 2 and all(ws.backward for ws in trained)  # one per cell
        assert sorted(ws.shape[0] for ws in scored) == [1, 11]  # per chunk, at every sigma: the cells' nets share one
        assert not any(ws.backward or ws.grads for ws in scored)

    def test_training_uses_train_domain_and_eval_uses_eval_domain(self, micro_report, monkeypatch):
        plan = micro_report.plan
        assert plan.seed & 1 and plan.corpus_size == plan.eval_size  # an odd seed is its own eval_seed
        drawn = []
        monkeypatch.setattr(luml1.trainer, "make_blind_batches", lambda clean, sigma, count, seed, *batch: drawn.append((clean, seed)) or iter(()))
        train(replace(plan, losses=plan.losses[:1], steps=0))
        corpus, seed = drawn[0]
        assert seed == plan.seed  # the run seed itself: seeds 2k and 2k+1 train different nets
        test_images = gen_chunk(eval_seed(plan.seed), 0, plan.eval_count, *plan.eval_size)
        assert not any(np.array_equal(c, t) for c in corpus for t in test_images)

    def test_seeds_that_differ_in_the_low_bit_train_different_nets(self):
        # one-cell plans at seeds 2 and 3 share their test set (eval_seed sets the low bit) but not their training
        bodies = []
        for seed in (2, 3):
            csv = report_to_csv(run_bench(micro_plan(seed=seed, losses=(LossSpec("l1"),), steps=5)))
            bodies.append([ln for ln in csv.splitlines() if not ln.startswith("# seed=")])
        noisy = [[ln for ln in body if ln.startswith("# noisy_baseline")] for body in bodies]
        assert noisy[0] == noisy[1] and bodies[0] != bodies[1]

    @pytest.mark.parametrize("cell", [dict(sigma_max=(25.0, 50.0)), dict(losses=(LossSpec("l1"), LossSpec("l2")))])
    def test_train_takes_one_cell_only(self, monkeypatch, cell):
        monkeypatch.setattr(luml1.trainer, "gen_chunk", _must_not_run)
        with pytest.raises(InvalidInputError, match="exactly one loss and one sigma_max"):
            train(replace(micro_plan(), **cell))

    def test_noisy_baseline_present_per_sigma(self, micro_report):
        for (baseline_psnr, _), *_ in micro_report.rows:
            assert 0 < baseline_psnr < 100


class TestChunkMajorScoring:
    """run_bench scores each chunk of test images at every sigma as one task, which makes the chunk itself."""

    @staticmethod
    def plan(**overrides) -> Config:
        return micro_plan(**{"steps": 2, "eval_size": (40, 40), "eval_sigmas": (5.0, 20.0, 45.0), **overrides})

    @pytest.mark.parametrize("eval_count", [7, 48])  # chunks of 4 and 3; twelve chunks of 4
    def test_csv_is_the_same_bytes_at_any_worker_count(self, monkeypatch, tmp_path, eval_count):
        plan, csvs = self.plan(eval_count=eval_count), []
        for workers in (1, 2, 3):
            monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: workers)
            report = run_bench(plan, ckpt_dir=tmp_path)
            csvs.append(report_to_csv(report))
        assert csvs[0] == csvs[1] == csvs[2]
        # the means of the per-image scores of the whole test set, scored a chunk at a time in one pass
        nets = [load_checkpoint(path) for path in luml1.bench.cell_files(plan, tmp_path)]
        clean = gen_chunk(eval_seed(plan.seed), 0, plan.eval_count, *plan.eval_size)
        noisy_of = eval_noise(plan.eval_sigmas, plan.seed)
        assert score_images([None, *nets], clean, noisy_of, len(plan.eval_sigmas)) == report.rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_bench_makes_one_chunk_of_test_images_at_a_time(self, monkeypatch, workers):
        made, alive, domains = [], [], []  # per test chunk made: (its images, earlier ones alive); a weak reference to each

        def recording(seed, first, count, h, w, domain=DOMAIN_CLEAN):
            domains.append(domain)
            chunk = gen_chunk(seed, first, count, h, w, domain)
            if domain == DOMAIN_CLEAN:
                made.append((count, sum(ref() is not None for ref in alive)))
                alive.append(weakref.ref(chunk))
            return chunk

        monkeypatch.setattr(luml1.bench, "gen_chunk", recording)
        monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: workers)
        run_bench(self.plan(eval_count=10, eval_sigmas=(5.0, 20.0)))
        assert domains[0] == DOMAIN_TRAIN_CLEAN and DOMAIN_TRAIN_CLEAN not in domains[1:]  # the corpus, made once
        assert len(domains) == 1 + len(made)  # no test image is made whole-set
        assert sorted(count for count, _ in made) == [2, 4, 4]
        assert max(earlier for _, earlier in made) <= workers - 1  # each worker holds one chunk

    def test_scorings_traced_peak_does_not_grow_with_eval_count(self, monkeypatch):
        # from the end of training to the end of the run: the test chunks, their noise, a workspace, the scores
        rises = []
        for eval_count in (8, 64):
            base = []

            def training(*args, **kwargs):
                result = train(*args, **kwargs)
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
                return result

            monkeypatch.setattr(luml1.bench, "train", training)
            monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: 1)
            plan = self.plan(steps=1, eval_count=eval_count, losses=(LossSpec("l1"),), eval_sigmas=(5.0, 45.0))
            tracemalloc.start()
            try:
                run_bench(plan)
                rises.append(tracemalloc.get_traced_memory()[1] - base[-1])
            finally:
                tracemalloc.stop()
        one_chunk = 4 * 40 * 40 * 3 * 8  # bytes of four float64 40x40 images; the test set of 64 is sixteen
        assert abs(rises[1] - rises[0]) < one_chunk, rises

    def test_fewer_chunks_than_workers_split_a_chunks_sigmas(self, monkeypatch, tmp_path):
        # run_bench's test set, then the same images as `luml1 eval` files: one chunk, three sigmas
        plan, tasks = self.plan(eval_count=4), []
        score = luml1.trainer.score_chunk
        monkeypatch.setattr(luml1.trainer, "score_chunk", lambda *args: tasks.append(list(args[-1])) or score(*args))
        data, csv = tmp_path / "data", tmp_path / "eval.csv"
        data.mkdir()
        for i, im in enumerate(gen_chunk(eval_seed(plan.seed), 0, plan.eval_count, *plan.eval_size)):
            save_image(im, data / f"{i}.lumf")
        ckpt = luml1.bench.cell_files(plan, tmp_path)[0]
        argv = ["eval", "--ckpt", ckpt, "--data", str(data), "--sigmas", "5,20,45", "--csv", str(csv)]
        for command in ("bench", "eval"):
            csvs = []
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(luml1.bench, "usable_cpus", lambda: workers)
                monkeypatch.setattr(luml1.cli, "usable_cpus", lambda: workers)
                tasks.clear()
                if command == "bench":
                    csvs.append(report_to_csv(run_bench(plan, ckpt_dir=tmp_path)))
                else:
                    assert luml1.cli.main(argv) == 0
                    csvs.append(csv.read_text())
                assert sorted(tasks) == {1: [[0, 1, 2]], 2: [[0], [1, 2]]}.get(workers, [[0], [1], [2]]), command
            assert len(set(csvs)) == 1, command


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

        net, clean, report = trained_cell["net"], trained_cell["clean"], trained_cell["report"]
        score = np.mean([psnr(np.clip(net_forward(net, c[None])[0][0], 0.0, 1.0), c) for c in clean])
        easiest = report.rows[0][1][0]  # the one cell at the first eval sigma
        assert score > easiest

    def test_never_degrades_more_than_1db_vs_identity(self, trained_cell):
        for baseline, cell in trained_cell["report"].rows:
            assert cell[0] >= baseline[0] - 1.0

    def test_saved_checkpoint_reproduces_the_reported_numbers(self, trained_cell):
        net, clean = trained_cell["net"], trained_cell["clean"]
        report, plan = trained_cell["report"], trained_cell["plan"]
        scores = score_images([net], clean, eval_noise(plan.eval_sigmas, plan.seed), len(plan.eval_sigmas))
        assert [row[0] for row in scores] == [row[1] for row in report.rows]


class TestFloat32Scoring:
    def test_a_checkpoint_scores_as_its_float64_copy_does(self, trained_cell):
        # a checkpoint's net is float32, as trained; widening it would change the means by less than this
        net, clean, plan = trained_cell["net"], trained_cell["clean"], trained_cell["plan"]
        wide = TinyNet([ConvLayer(k.astype(np.float64), b.astype(np.float64)) for k, b in net.split(net.theta)])
        assert net.theta.dtype == np.float32 and np.array_equal(wide.theta, net.theta)
        noisy_of, n_levels = eval_noise(plan.eval_sigmas, plan.seed), len(plan.eval_sigmas)
        for (psnr32, ssim32), (psnr64, ssim64) in score_images([net, wide], clean, noisy_of, n_levels):
            assert abs(psnr32 - psnr64) < 1e-6 and abs(ssim32 - ssim64) < 1e-7


class TestDenoiseFile:
    def test_zero_checkpoint_is_clamped_identity(self, tmp_path):
        zero = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero, ckpt)
        img = rand_array(80, 16, 16)
        src = tmp_path / "in.lumf"
        dst = tmp_path / "out.lumf"
        save_image(img, src)
        denoise_file(ckpt, src, dst)
        out = load_image(dst)
        expected = np.clip(load_image(src), 0.0, 1.0)
        assert np.array_equal(out, expected.astype("<f4").astype(np.float64))

    def test_deterministic_output_bytes(self, tmp_path):
        zero = TinyNet([ConvLayer(np.zeros((3, 3, 3, 3)), np.zeros(3))])
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero, ckpt)
        img = rand_array(81, 16, 16)
        src = tmp_path / "in.ppm"
        save_image(img, src)
        outs = []
        for name in ("a.ppm", "b.ppm"):
            denoise_file(ckpt, src, tmp_path / name)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
