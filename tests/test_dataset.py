import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import luml1.rng
from luml1.bench import check_sigmas
from luml1.dataset import (
    _draw_patch_params,
    gen_chunk,
    gen_clean,
    make_blind_batches,
    noisy_chunk,
)
from luml1.errors import InvalidInputError
from luml1.rng import DOMAIN_BATCH, DOMAIN_EVAL_NOISE, DOMAIN_TRAIN_CLEAN, box_muller, eval_seed, normal, stream

from conftest import rand_image
from oracles import ks_statistic_uniform, patch_by_patch_stream


class TestGenClean:
    def test_determinism_bit_identical(self):
        a = gen_clean(42, 4, 20, 24)
        b = gen_clean(42, 4, 20, 24)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_zero_count(self):
        assert gen_clean(1, 0, 16, 16) == []

    def test_values_in_unit_range(self):
        for img in gen_clean(7, 4, 16, 16):
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_per_channel_variance_above_floor(self):
        for seed in range(8):
            for img in gen_clean(seed, 2, 24, 24):
                for c in range(3):
                    assert img.data[:, :, c].var() > 1e-3

    def test_different_seeds_differ(self):
        a = gen_clean(1, 1, 16, 16)[0]
        b = gen_clean(2, 1, 16, 16)[0]
        assert not np.array_equal(a.data, b.data)

    def test_tiny_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_clean(1, 1, 8, 8)
        with pytest.raises(InvalidInputError):
            gen_chunk(1, 0, 1, 8, 8)

    def test_images_are_views_of_one_read_only_block(self):
        images = gen_clean(42, 3, 20, 24)
        assert all(im.data.base is images[0].data.base for im in images)
        assert images[0].data.base.shape == (3, 20, 24, 3) and not images[0].data.base.flags.writeable

    def test_a_chunk_is_the_same_images_bit_for_bit(self):
        images = gen_clean(42, 6, 20, 24, DOMAIN_TRAIN_CLEAN)
        for first, count in ((0, 6), (2, 3), (5, 1), (4, 0)):
            chunk = gen_chunk(42, first, count, 20, 24, DOMAIN_TRAIN_CLEAN)
            assert chunk.shape == (count, 20, 24, 3)
            assert all(np.array_equal(c, im.data) for c, im in zip(chunk, images[first : first + count]))


class TestAddNoise:
    """noisy_chunk, the package's one path that adds Gaussian noise to images."""

    def test_zero_sigma_is_identity(self):
        img = rand_image(1, 16, 16)
        (out,) = noisy_chunk(img.data[None], 0.0, 123, 0, 0)
        assert np.array_equal(out, img.data)

    def test_same_seed_same_noise(self):
        img = rand_image(2, 16, 16)
        (a,) = noisy_chunk(img.data[None], 25.0, 9, 0, 0)
        (b,) = noisy_chunk(img.data[None], 25.0, 9, 0, 0)
        assert np.array_equal(a, b)

    def test_each_level_and_image_draws_its_own_noise(self):
        img = rand_image(3, 16, 16)
        draws = [noisy_chunk(np.stack([img.data, img.data]), 25.0, 9, level, 0) for level in (0, 1)]
        noise = [(n - img.data).tobytes() for pair in draws for n in pair]
        assert len(set(noise)) == 4

    def test_sample_std_matches_sigma(self):
        # law of large numbers on 200*200*3 = 120k elements
        img = gen_clean(5, 1, 200, 200)[0]
        (noisy,) = noisy_chunk(img.data[None], 25.0, 77, 0, 0)
        measured = (noisy - img.data).std()
        target = 25.0 / 255.0
        assert abs(measured - target) / target < 0.05

    def test_noise_mean_near_zero(self):
        img = gen_clean(6, 1, 128, 128)[0]
        (noisy,) = noisy_chunk(img.data[None], 50.0, 3, 0, 0)
        assert abs((noisy - img.data).mean()) < 3 * (50 / 255) / np.sqrt(img.data.size)

    def test_negative_sigma_rejected(self):
        # noisy_chunk does not check sigma; every caller (gen, eval, bench, train) runs this check first
        with pytest.raises(InvalidInputError):
            check_sigmas("sigma", (-1.0,))

    def test_a_chunk_is_its_images_noised_alone(self):
        # one Box-Muller pass over the stacked streams gives each image the noise rng.normal gives it alone
        clean = gen_clean(7, 5, 17, 19)  # 17*19*3 deviates: odd, so each stream's last one is dropped
        alone = [im.data + normal(stream(9, DOMAIN_EVAL_NOISE, 3, j), im.data.shape, 37.5 / 255.0) for j, im in enumerate(clean)]
        for a, b in ((0, 4), (1, 5), (2, 3)):
            chunk = noisy_chunk(np.stack([im.data for im in clean[a:b]]), 37.5, 9, 3, first=a)
            assert np.array_equal(chunk, np.stack(alone[a:b]))

    def test_noise_is_scaled_and_added_in_the_uniforms_buffer(self):
        # the uniforms, then a little of Box-Muller's and the finite check's: no chunk-sized noise or sum array more
        clean = np.stack([im.data for im in gen_clean(12, 4, 40, 40)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            noisy = noisy_chunk(clean, 25.0, 9, 0, 0)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert noisy.shape == clean.shape and rise < 1.5 * clean.nbytes, rise

    def test_non_finite_chunk_rejected(self):
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            noisy_chunk(np.full((2, 16, 16, 3), np.nan), 25.0, 1, 0, 0)

    def test_output_not_clamped(self):
        img = gen_clean(8, 1, 32, 32)[0]
        (noisy,) = noisy_chunk(img.data[None], 75.0, 4, 0, 0)
        assert noisy.min() < 0.0 or noisy.max() > 1.0


def batch_arrays(batch_size: int, patch_size: int, dtype=np.float64) -> list[np.ndarray]:
    """A (noisy, target) pair for make_blind_batches to fill."""
    return [np.empty((batch_size, patch_size, patch_size, 3), dtype) for _ in range(2)]


def drawn(batches) -> list[tuple[np.ndarray, np.ndarray]]:
    """Copies of every batch of a stream, which refills one pair of arrays."""
    return [(noisy.copy(), target.copy()) for noisy, target in batches]


class TestBlindBatches:
    @staticmethod
    def batches(clean, count=10, seed=5, batch_size=2):
        return make_blind_batches(clean, 50.0, count, seed, *batch_arrays(batch_size, 12))

    def test_exact_count(self):
        clean = gen_clean(1, 3, 20, 20)
        for batch_size in (1, 3):
            batches = list(self.batches(clean, count=17, batch_size=batch_size))
            assert len(batches) == 17

    def test_patch_shapes_and_blindness(self):
        clean = gen_clean(1, 3, 20, 20)
        for batch_size in (1, 3):
            for noisy, target in self.batches(clean, count=5, batch_size=batch_size):
                assert noisy.shape == target.shape == (batch_size, 12, 12, 3)
                assert noisy.dtype == target.dtype == np.float64
                # the batch carries no noise-level information beyond the pixels
                assert not hasattr(noisy, "sigma_255")

    def test_clean_patch_is_a_crop(self):
        clean = gen_clean(2, 2, 20, 20)
        for _, targets in self.batches(clean, count=4):
            for target in targets:
                found = any(
                    np.array_equal(img.data[y : y + 12, x : x + 12], target)
                    for img in clean
                    for y in range(9)
                    for x in range(9)
                )
                assert found

    def test_same_seed_identical_sequence(self):
        clean = gen_clean(3, 2, 20, 20)
        a = drawn(self.batches(clean, count=6))
        b = drawn(self.batches(clean, count=6))
        for (na, ca), (nb, cb) in zip(a, b):
            assert np.array_equal(na, nb)
            assert np.array_equal(ca, cb)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_batches_are_the_patch_by_patch_stream_bit_for_bit(self, batch_size):
        # at P = 5 a patch has 75 values, an odd count, so each patch drops its last Box-Muller deviate
        clean = gen_clean(4, 3, 16, 16)
        batches = drawn(make_blind_batches(clean, 40.0, 4, 6, *batch_arrays(batch_size, 5)))
        pairs = patch_by_patch_stream(clean, 40.0, 5, 4 * batch_size, 6)
        items = [(n, c) for noisy, target in batches for n, c in zip(noisy, target)]
        assert len(items) == len(pairs)
        for (n, c), (on, oc) in zip(items, pairs):
            assert np.array_equal(n, on) and np.array_equal(c, oc)

    def test_every_batch_is_the_oracle_in_float64_and_its_cast_in_float32(self):
        # several batches through one pair of arrays: each batch's writes leave nothing of the last one behind
        clean = gen_clean(7, 3, 20, 20)
        pairs = patch_by_patch_stream(clean, 30.0, 6, 5 * 3, 8)
        for dtype in (np.float64, np.float32):
            arrays = batch_arrays(3, 6, dtype)
            batches = drawn(make_blind_batches(clean, 30.0, 5, 8, *arrays))
            assert len(batches) == 5 and all(a.dtype == dtype for pair in batches for a in pair)
            items = [(n, c) for noisy, target in batches for n, c in zip(noisy, target)]
            for (n, c), (on, oc) in zip(items, pairs, strict=True):
                assert np.array_equal(n, on.astype(dtype)) and np.array_equal(c, oc.astype(dtype))

    def test_yields_the_callers_arrays(self):
        noisy, target = batch_arrays(2, 12)
        for n, t in make_blind_batches(gen_clean(1, 2, 20, 20), 50.0, 3, 5, noisy, target):
            assert n is noisy and t is target

    @pytest.mark.parametrize("shapes", [((2, 12, 12, 3), (2, 12, 12, 1)), ((2, 12, 11, 3),) * 2, ((1, 12, 12, 3), (2, 12, 12, 3))])
    def test_batch_arrays_of_other_shapes_rejected(self, shapes):
        noisy, target = (np.empty(shape) for shape in shapes)
        with pytest.raises(InvalidInputError, match="batch arrays"):
            next(make_blind_batches(gen_clean(1, 1, 16, 16), 10.0, 1, 0, noisy, target))

    def test_patch_larger_than_image_rejected(self):
        clean = gen_clean(1, 1, 16, 16)
        with pytest.raises(InvalidInputError):
            list(make_blind_batches(clean, 10.0, 1, 0, *batch_arrays(1, 17)))

    @pytest.mark.parametrize(
        "sigma_max,patch_size,count,batch_size",
        [(float("nan"), 12, 1, 2), (-1.0, 12, 1, 2), (10.0, 0, 1, 2), (10.0, 12, -1, 2), (10.0, 12, 1, 0)],
        ids=["nan-12-1", "-1.0-12-1", "10.0-0-1", "10.0-12--1", "batch_size-0"],  # the first four named as before
    )
    def test_bad_stream_arguments_rejected(self, sigma_max, patch_size, count, batch_size):
        with pytest.raises(InvalidInputError):
            list(make_blind_batches(gen_clean(1, 1, 16, 16), sigma_max, count, 0, *batch_arrays(batch_size, patch_size)))

    def test_sigma_draws_uniform_ks(self):
        # white-box: the same draw helper the batch stream consumes
        rng = stream(5, DOMAIN_BATCH)
        dims = [(20, 20)]
        sigmas = [_draw_patch_params(rng, dims, 12, 50.0)[3] for _ in range(10_000)]
        assert 0.0 <= min(sigmas) and max(sigmas) <= 50.0
        assert ks_statistic_uniform(sigmas, 50.0) < 0.02

    def test_draw_helper_drives_the_stream(self):
        # reconstructing the first patch from the helper's draws must match
        clean = gen_clean(3, 2, 20, 20)
        (noisy,), (target,) = next(self.batches(clean, count=1, seed=8, batch_size=1))
        rng = stream(8, DOMAIN_BATCH)
        idx, y0, x0, sigma = _draw_patch_params(rng, [(20, 20), (20, 20)], 12, 50.0)
        expected_clean = clean[idx].data[y0 : y0 + 12, x0 : x0 + 12]
        assert np.array_equal(target, expected_clean)
        noise = normal(rng, (12, 12, 3), sigma / 255.0)
        assert np.array_equal(noisy, expected_clean + noise)


class TestSeedDomains:
    def test_train_and_eval_seeds_disjoint(self):
        # training streams take the run seed, test images eval_seed's in another domain, so an odd
        # seed, its own eval_seed, still trains on images that are not its test images
        for seed in (0, 1, 2, 3, 12345, 2**40 + 7):
            assert eval_seed(seed) & 1 == 1 and eval_seed(seed) - seed in (0, 1)
            corpus = gen_clean(seed, 2, 16, 16, DOMAIN_TRAIN_CLEAN)
            test_images = gen_clean(eval_seed(seed), 2, 16, 16)
            assert not any(np.array_equal(c.data, t.data) for c in corpus for t in test_images)

    def test_streams_with_different_ids_differ(self):
        a = stream(7, 1, 0).random(8)
        b = stream(7, 1, 1).random(8)
        c = stream(7, 2, 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domains_are_distinct_and_named_at_every_stream_call(self):
        # a domain id written as a literal at a call is missing from rng's table, where the next new domain could take it
        domains = {name: v for name, v in vars(luml1.rng).items() if name.startswith("DOMAIN_")}
        assert len(set(domains.values())) == len(domains)
        literal = []
        for path in sorted(Path(luml1.rng.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if func == "stream" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                    literal.append(f"{path.name}:{node.lineno}")
        assert literal == []

    def test_box_muller_computes_in_its_uniforms(self):
        u = stream(12, 2).random((3, 2, 5))
        first = u.copy()
        z = box_muller(u, 9)
        assert z.shape == (3, 9) and np.shares_memory(z, u)
        r, theta = np.sqrt(-2.0 * np.log(1.0 - first[:, 0])), 2.0 * np.pi * first[:, 1]  # the two-array form
        assert np.array_equal(z, np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[:, :9])

    def test_box_muller_determinism(self):
        a = normal(stream(11, 2), (64,), 2.0)
        b = normal(stream(11, 2), (64,), 2.0)
        assert np.array_equal(a, b)
