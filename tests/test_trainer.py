import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import luml1.trainer

from luml1.checkpoint import checkpoint_bytes, load_checkpoint, parse_checkpoint
from luml1.dataset import gen_clean, noisy_chunk
from luml1.errors import InvalidInputError, NumericalError
from luml1.image import Image
from luml1.losses import LossSpec
from luml1.metrics import SSIM_WINDOW, psnr, psnrs, ssim, ssims
from luml1.net import ConvLayer, TinyNet, Workspace, build_tinynet, net_forward
from luml1.rng import DOMAIN_EVAL_NOISE, DOMAIN_VAL_CLEAN, DOMAIN_VAL_NOISE, eval_seed, normal, stream
from luml1.bench import Config, load_plan
from luml1.trainer import SCORE_PIXELS, AdamState, adam_step, train

from conftest import score_images


def small_config(loss=LossSpec("l1"), sigma_max=25.0, **overrides) -> Config:
    base = dict(
        losses=(loss,),
        sigma_max=(sigma_max,),
        steps=40,
        batch_size=4,
        seed=21,
        patch_size=16,
        corpus_count=6,
        corpus_size=(24, 24),
        hidden_channels=4,
        hidden_depth=0,
    )
    base.update(overrides)
    return Config(**base)

class TestAdam:
    """Adam on one parameter vector, as train runs it on net.theta."""

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = stream(1, 30).random(16)
        before = p.copy()
        state = AdamState.for_params(p)
        adam_step(p, np.zeros_like(p), state, lr=1e-3)
        assert np.array_equal(p, before)

    def test_moments_decay_toward_zero_under_zero_gradient(self):
        p = stream(2, 30).random((4,))
        state = AdamState.for_params(p)
        adam_step(p, np.ones_like(p), state, lr=1e-3)
        m_after_grad = np.abs(state.m).max()
        for _ in range(5):
            adam_step(p, np.zeros_like(p), state, lr=1e-3)
        assert np.abs(state.m).max() < m_after_grad

    def test_first_step_closed_form(self):
        lr, eps = 1e-3, 1e-8
        p = stream(3, 30).random((8,))
        g = stream(3, 31).normal(size=8)
        before = p.copy()
        state = AdamState.for_params(p)
        adam_step(p, g, state, lr=lr)
        expected = before - lr * g / (np.abs(g) + eps)
        assert np.max(np.abs(p - expected)) < 1e-15
        # magnitude is ~lr in every coordinate
        assert np.allclose(np.abs(p - before), lr, atol=lr * 1e-4)

    def test_gradient_of_another_length_rejected(self):
        p = np.ones(3)
        with pytest.raises(InvalidInputError, match="must match"):
            adam_step(p, np.ones(4), AdamState.for_params(p), lr=1e-3)


class TestTrainLoop:
    def test_zero_steps_leaves_net_unchanged(self):
        cfg = small_config(steps=0)
        net, log = train(cfg)
        assert log.steps == []
        assert net.theta.dtype == np.float32
        assert np.array_equal(net.theta, build_tinynet(cfg.seed, 4, 0).theta.astype(np.float32))

    def test_trains_in_float32(self, monkeypatch):
        states = []

        def recording_adam(params, grads, state, lr, **kw):
            states.append(state)
            adam_step(params, grads, state, lr, **kw)

        monkeypatch.setattr(luml1.trainer, "adam_step", recording_adam)
        net, _ = train(small_config(loss=LossSpec(lam=1.0), steps=3))
        assert len(states) == 3 and states[0].t == 3
        for arr in (net.theta, states[0].m, states[0].v):
            assert arr.dtype == np.float32

    def test_checkpoint_holds_the_trained_parameters_bit_for_bit(self):
        net, _ = train(small_config(steps=5))
        parsed = parse_checkpoint(checkpoint_bytes(net), "trained net")
        assert parsed.theta.dtype == net.theta.dtype == np.float32
        assert parsed.theta.tobytes() == net.theta.tobytes()  # so run_bench scores the trained net as its checkpoint

    def test_validation_images_and_noise_are_not_test_images_or_noise(self, monkeypatch):
        cfg = small_config(steps=2, corpus_size=(40, 40))  # run_bench scores eval_size images: 40x40 here
        seen = []

        def scores(nets, shapes, chunk_of, noisy_of, n_levels, workers):
            clean = chunk_of(0, len(shapes))
            seen.append((noisy_of(clean, first=0, level=0), clean))
            return [[(0.0, 0.0)]]

        monkeypatch.setattr(luml1.trainer, "score_set", scores)
        train(cfg, checkpoint_every=1)
        val_noisy, val_clean = seen[0]
        es = eval_seed(cfg.seed)
        test_clean = gen_clean(es, cfg.eval_count, *cfg.eval_size)
        for j, (n, c) in enumerate(zip(val_noisy, val_clean)):
            assert not any(np.array_equal(c, t.data) for t in test_clean)
            unit = (n - c) / (cfg.sigma_max[0] / 2.0 / 255.0)  # the deviates, whatever the sigma
            for level in range(len(cfg.eval_sigmas)):
                assert not np.allclose(unit, normal(stream(es, DOMAIN_EVAL_NOISE, level, j), c.shape, 1.0))

    def test_validation_scores_are_the_final_checkpoints_scores(self, tmp_path):
        # on any BLAS kernel: the logged scores are those of the net the checkpoint holds, on the validation stream
        cfg, ckpt = small_config(steps=6), tmp_path / "net.ckpt"
        _, log = train(cfg, ckpt, checkpoint_every=cfg.steps)
        val_clean = gen_clean(cfg.seed, 4, *cfg.corpus_size, DOMAIN_VAL_CLEAN)
        noisy_of = partial(noisy_chunk, sigma_255=cfg.sigma_max[0] / 2.0, seed=cfg.seed, level=0, domain=DOMAIN_VAL_NOISE)
        [((p, q),)] = score_images([load_checkpoint(ckpt)], val_clean, noisy_of)
        assert [s for s, _, _ in log.validations] == [cfg.steps]
        assert log.to_csv().splitlines()[-1].split(",")[-2:] == [f"{p:.4f}", f"{q:.4f}"]

    def test_determinism_bit_identical_checkpoints(self):
        cfg = small_config(hidden_channels=8)
        runs = []
        for _ in range(2):
            net, _ = train(cfg)
            runs.append(checkpoint_bytes(net))
        assert runs[0] == runs[1]

    def test_loss_decreases_over_training(self):
        cfg = small_config(steps=250, batch_size=4, hidden_channels=8, hidden_depth=1)
        net, log = train(cfg)
        losses = [v for _, v, _ in log.steps]
        leading = np.mean(losses[:100])
        trailing = np.mean(losses[-100:])
        assert trailing < leading

    def test_loss_is_only_varying_factor(self, monkeypatch):
        # identical seeds: both runs start from the same net and see the same data; parameters differ
        inits = []
        build = luml1.trainer.build_tinynet

        def recording_build(*args):
            net = build(*args)
            inits.append(checkpoint_bytes(net))
            return net

        monkeypatch.setattr(luml1.trainer, "build_tinynet", recording_build)
        net_a, _ = train(small_config(loss=LossSpec("l1")))
        net_b, _ = train(small_config(loss=LossSpec(lam=1.0)))
        assert len(inits) == 2 and inits[0] == inits[1]  # same init
        assert checkpoint_bytes(net_a) != checkpoint_bytes(net_b)

    def test_runaway_parameters_abort(self):
        # an absurd lr pushes parameters past checkpointable range immediately
        cfg = small_config(loss=LossSpec("l2"), steps=50, lr=1e160)
        with pytest.raises(NumericalError, match="runaway|not finite|NaN or Inf"):
            train(cfg)

    def test_nan_loss_aborts_and_preserves_checkpoint(self, tmp_path, monkeypatch):
        import luml1.trainer as train_mod
        from luml1.losses import LossOutput

        real = train_mod.eval_loss
        calls = {"n": 0}

        def poisoned(spec, pred, target):
            calls["n"] += 1
            out = real(spec, pred, target)
            if calls["n"] > 20:
                return LossOutput(float("nan"), out.grad)
            return out

        monkeypatch.setattr(train_mod, "eval_loss", poisoned)
        cfg = small_config(steps=50)
        path = tmp_path / "last.ckpt"
        with pytest.raises(NumericalError, match="not finite"):
            train(cfg, ckpt_path=path, checkpoint_every=1)
        assert path.exists()
        load_checkpoint(path)

    @pytest.mark.parametrize("offset,name", [(0, "layer0.kernels"), (4 * 27 + 1, "layer0.bias"), (-1, "layer1.bias")])
    def test_non_finite_gradient_aborts_naming_its_parameter(self, monkeypatch, offset, name):
        backward = luml1.trainer.net_backward

        def poisoned(net, cache, grad_out):
            grad = backward(net, cache, grad_out)
            grad[offset] = np.inf
            return grad

        monkeypatch.setattr(luml1.trainer, "net_backward", poisoned)
        with pytest.raises(NumericalError, match=rf"step 1: non-finite gradient for {name}$"):
            train(small_config(steps=2))

    def test_overflowing_forward_pass_aborts_at_step_1_naming_a_layer(self, monkeypatch):
        # every parameter is finite, but nine layers of 3e38 kernels overflow float64
        build = luml1.trainer.build_tinynet

        def overflowing_build(*args):
            net = build(*args)
            for layer in net.layers:
                layer.kernels[...] = 3e38
            return net

        monkeypatch.setattr(luml1.trainer, "build_tinynet", overflowing_build)
        with pytest.raises(NumericalError, match=r"step 1: .*layer\d"):
            train(small_config(steps=2, hidden_depth=7))

    def test_invalid_input_inside_the_step_loop_stays_invalid_input(self, monkeypatch):
        import luml1.trainer as train_mod

        def rejecting(spec, pred, target):
            raise InvalidInputError("rejected by the loss")

        monkeypatch.setattr(train_mod, "eval_loss", rejecting)
        with pytest.raises(InvalidInputError, match="rejected by the loss"):
            train(small_config(steps=2))

    def test_log_csv_shape(self):
        _, log = train(small_config(steps=10), checkpoint_every=5)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "step,loss,ms,val_psnr,val_ssim"
        assert len(lines) == 11
        assert len(log.validations) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidInputError):
            small_config(batch_size=0)
        with pytest.raises(InvalidInputError):
            small_config(patch_size=25)
        with pytest.raises(InvalidInputError):
            small_config(corpus_count=0)
        with pytest.raises(InvalidInputError, match="checkpoint_every"):
            train(small_config(), checkpoint_every=-3)
        with pytest.raises(InvalidInputError):
            small_config(corpus_size=(12, 12), patch_size=8)
        for bad in (float("nan"), float("inf")):
            for name in ("lr", "sigma_max"):
                with pytest.raises(InvalidInputError):
                    small_config(**{name: bad})
        with pytest.raises(InvalidInputError):
            small_config(sigma_max=-1.0)


class TestTypeBoundary:
    """Whole images are Images; training patches and scored outputs are plain arrays."""

    @staticmethod
    def count_images(monkeypatch) -> list:
        built = []
        init = Image.__post_init__

        def counting(img):
            built.append(1)
            init(img)

        monkeypatch.setattr(Image, "__post_init__", counting)
        return built

    def test_train_builds_only_the_corpus(self, monkeypatch):
        cfg = small_config(loss=LossSpec(lam=1.0), steps=5, batch_size=2)
        built = self.count_images(monkeypatch)
        train(cfg)
        assert len(built) == cfg.corpus_count

    @pytest.mark.parametrize("with_net", [True, False], ids=["net", "noisy-baseline"])
    def test_score_set_builds_none(self, monkeypatch, with_net):
        # score_set's means: its noise, net pass and metrics build no Image
        clean = gen_clean(5, 3, 16, 16)
        net = build_tinynet(7, 4, 0) if with_net else None
        built = self.count_images(monkeypatch)
        [((psnr_mean, ssim_mean),)] = score_images([net], clean, partial(noisy_chunk, sigma_255=25.0, seed=5))
        assert built == []
        assert np.isfinite(psnr_mean) and np.isfinite(ssim_mean)


def test_a_training_step_draws_its_batch_without_a_float64_batch(monkeypatch):
    # at perfbench/train.cfg's (8, 32, 32, 3) batch, a step's draw from the stream peaks at 67 kB of traced
    # allocations; when the stream yielded fresh float64 batches for the trainer to cast, it peaked at 394 kB
    cfg = load_plan(Path(__file__).resolve().parents[1] / "perfbench" / "train.cfg", {"steps": "12", "losses": "l1"})
    one_batch = cfg.batch_size * cfg.patch_size**2 * 3 * 8  # bytes of a float64 batch: 196,608
    stream, peaks = luml1.trainer.make_blind_batches, []

    def measured(*args):
        batches = stream(*args)
        while True:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batch = next(batches, None)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            if batch is None:
                return
            yield batch
            del batch  # the trainer holds no batch of the stream's while it draws the next

    monkeypatch.setattr(luml1.trainer, "make_blind_batches", measured)
    tracemalloc.start()
    try:
        train(cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == cfg.steps
    assert max(peaks[2:]) < one_batch, peaks  # the first draw builds the stream's buffers


def recording(fn, into: list):
    def wrapper(a, b):
        into.append(fn(a, b))
        return into[-1]

    return wrapper


class TestScoringWorkspace:
    @staticmethod
    def pair_scores(monkeypatch, net, noisy, clean) -> list[tuple[float, float]]:
        """(PSNR, SSIM) of every pair, in the order score_set scores them."""
        ps, ss = [], []
        monkeypatch.setattr(luml1.trainer, "psnrs", recording(psnrs, ps))
        monkeypatch.setattr(luml1.trainer, "ssims", recording(ssims, ss))
        score_images([net], clean, lambda c, first, level: np.stack(noisy[first : first + len(c)]))
        return list(zip(np.concatenate(ps).tolist(), np.concatenate(ss).tolist()))

    def test_order_and_fresh_workspaces_give_identical_pair_scores(self, monkeypatch):
        # 11 images of two sizes go in chunks of 4, 4, 1 and 2, reversed in chunks of 2, 4, 4 and 1; a second
        # chunk of four runs in the workspace the first left, so stale buffer values would show
        net = build_tinynet(23, 16, 3)
        net.layers[-1].kernels *= 300.0  # a large noise estimate, so stale buffer values would show
        clean = gen_clean(24, 9, 40, 40) + gen_clean(25, 2, 16, 20)  # a second size: a second workspace
        noisy = [*noisy_chunk(np.stack([c.data for c in clean[:9]]), 15.0, 24, 0, 0),
                 *noisy_chunk(np.stack([c.data for c in clean[9:]]), 60.0, 24, 1, 0)]
        for scored in (net, None):  # a net, and the noisy input
            forward = self.pair_scores(monkeypatch, scored, noisy, clean)
            backward = self.pair_scores(monkeypatch, scored, noisy[::-1], clean[::-1])
            alone = [self.pair_scores(monkeypatch, scored, [n], [c])[0] for n, c in zip(noisy, clean)]
            assert len(forward) == 11
            assert forward == backward[::-1] == alone
            for (p, q), n, c in zip(alone, noisy, clean):  # as the one-image metrics score the one-image pass
                out = np.clip(n if scored is None else net_forward(scored, n[None])[0][0], 0.0, 1.0)
                assert (p, q) == (psnr(out, c.data), ssim(out, c.data))

    @staticmethod
    def float32_net(seed: int, width: int) -> TinyNet:
        """A net of hidden width ``width`` and depth 3 in float32, as training leaves it and a checkpoint loads it."""
        net = build_tinynet(seed, width, 3)
        return TinyNet([ConvLayer(lay.kernels.astype(np.float32), lay.bias.astype(np.float32)) for lay in net.layers])

    def test_nets_of_one_shape_share_a_workspace_and_score_as_alone(self, monkeypatch):
        # the first net's noise estimate is large, so values it left in the shared workspace would show in the
        # next net's scores; an 8-wide net between two 16-wide ones scores as alone too
        nets = [self.float32_net(31, 16), self.float32_net(32, 16), self.float32_net(33, 8), self.float32_net(34, 16)]
        nets[0].layers[-1].kernels *= 300.0
        clean = gen_clean(35, 6, 40, 40)  # chunks of four and two images
        noisy_of = partial(noisy_chunk, sigma_255=25.0, seed=35, level=0)
        alone = [score_images([net], clean, noisy_of)[0][0] for net in [None, *nets]]  # each in fresh workspaces
        assert score_images([None, *nets], clean, noisy_of) == [alone]
        built = []
        init = Workspace.__init__
        monkeypatch.setattr(Workspace, "__init__", lambda ws, *args: built.append(ws) or init(ws, *args))
        one_width = [nets[0], nets[1], nets[3]]
        assert score_images([None, *one_width], clean, noisy_of) == [[alone[0], *(alone[i + 1] for i in (0, 1, 3))]]
        assert [ws.shape for ws in built] == [(4, 40, 40), (2, 40, 40)]  # one per chunk shape
        assert all(len({id(m.buf.base) for m in ws.maps}) == 1 for ws in built)  # each holds its maps in one buffer

    def test_more_nets_of_one_shape_hold_no_more_workspaces(self):
        # four 16x3 nets peak within one workspace (1.43 MB at four 40x40 images) of one net
        nets = [self.float32_net(40 + i, 16) for i in range(4)]
        clean = gen_clean(44, 4, 40, 40)
        noisy_of = partial(noisy_chunk, sigma_255=25.0, seed=44, level=0)
        score_images(nets[:1], clean, noisy_of)  # SSIM's band matrices are built once and kept
        rises = []
        tracemalloc.start()
        try:
            for scored in (nets[:1], nets, Workspace):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if scored is Workspace:
                    Workspace(nets[0].layers, 4, 40, 40, backward=False)
                else:
                    score_images(scored, clean, noisy_of)
                rises.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        one, four, workspace = rises
        assert 1.35e6 < workspace < 1.5e6 and four - one < workspace, rises

    def test_a_chunk_shape_change_drops_the_old_workspace_first(self):
        # seven 40x40 images go in chunks of four and three: at most one of their two workspaces is alive at a time
        net = self.float32_net(45, 32)  # wide, so a workspace outweighs a chunk's other arrays
        clean = gen_clean(46, 7, 40, 40)
        noisy_of = partial(noisy_chunk, sigma_255=25.0, seed=46)
        score_images([net], clean, noisy_of)  # SSIM's band matrices are built once and kept
        rises = []
        tracemalloc.start()
        try:
            for k in (4, 3, None):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if k is None:
                    score_images([net], clean, noisy_of)
                else:
                    Workspace(net.layers, k, 40, 40, backward=False)
                rises.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        four, three, scoring = rises
        assert four < scoring < four + three, rises

    def test_a_chunk_holds_at_most_four_40x40_images_of_pixels(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(luml1.trainer, "ssims", lambda a, b: sizes.append(len(a)) or ssims(a, b))
        clean = gen_clean(28, 5, 40, 40) + gen_clean(29, 3, 48, 48) + gen_clean(30, 22, 16, 20)
        score_images([None], clean, partial(noisy_chunk, sigma_255=25.0, seed=28))
        assert sizes == [4, 1, 2, 1, 20, 2]  # runs of one shape; 48x48 images go two at a time, 16x20 twenty

    def test_a_chunks_ssim_never_holds_every_stage_at_once(self):
        # its grayscale pair, five maps, band rows and means: each is freed once the next is made from it
        k, h, w, n = 4, 40, 40, SSIM_WINDOW
        clean = np.stack([im.data for im in gen_clean(29, k, h, w)])
        out = np.clip(clean + 0.1, 0.0, 1.0)
        ssims(out, clean)  # the band matrices are built once and kept
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ssims(out, clean)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stages = k * (2 * h * w + 5 * h * w + 5 * h * (w - n + 1) + 5 * (h - n + 1) * (w - n + 1)) * 8
        assert rise < stages, rise

    def test_scoring_one_more_pair_allocates_no_im2col_sized_array(self, monkeypatch):
        # one more chunk: its noise, net pass, clamp, PSNR and SSIM allocate less than one chunk's im2col matrix
        net = build_tinynet(26, 16, 3)
        clean = gen_clean(27, 12, 40, 40)  # three chunks
        rises = []

        def psnrs_marking(a, b):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - current)  # the largest transient since the previous chunk's psnrs
            tracemalloc.reset_peak()
            return psnrs(a, b)

        monkeypatch.setattr(luml1.trainer, "psnrs", psnrs_marking)
        tracemalloc.start()
        try:
            score_images([net], clean, partial(noisy_chunk, sigma_255=25.0, seed=27))
        finally:
            tracemalloc.stop()
        im2col = 3 * 3 * 3 * SCORE_PIXELS * 8  # layer 0's (27, H*W) matrix over a chunk, the smallest of the five
        assert len(rises) == 3 and max(rises[1:]) < im2col, rises
