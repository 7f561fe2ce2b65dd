"""Per-layer spans for a traced run, recorded around calls into luml1.

The tracer replaces module attributes that the program calls through (for
example ``luml1.bench.net_forward`` and ``luml1.net.conv_forward``) with
wrappers, so the program's files stay untouched. Each wrapper times one
span; a span's self time is its duration minus the spans it caused, so
``net.net_forward_s`` excludes its ``conv_forward`` children. Spans stay in
memory and become the per-layer metrics when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

N_LAYERS = 5  # the 16-channel, depth-3 net of every workload: l0 .. l4

SPAN_METRICS = {  # metric -> span whose total self time it reports
    "trainer.adam_s": "adam_step",
    "net.net_forward_s": "net_forward",
    "net.net_backward_s": "net_backward",
    "net.conv_forward_s": "conv_forward",
    "net.conv_backward_s": "conv_backward",
    "losses.eval_loss_s": "eval_loss",
    "losses.luminance_term_s": "luminance_term",
    "image.construct_s": "image",
    "dataset.gen_clean_s": "gen_clean",
    "dataset.patch_draw_s": "patch_draw",
    "rng.normal_s": "normal",
    "metrics.ssim_s": "ssim",
    "metrics.psnr_s": "psnr",
    "checkpoint.save_s": "save_checkpoint",
    "fnv.hash_s": "fnv1a64",
}
CALL_METRICS = {  # metric -> span whose call count it reports
    "net.conv_forward_calls": "conv_forward",
    "net.conv_backward_calls": "conv_backward",
    "image.constructions": "image",
    "dataset.patches": "patch_draw",
    "metrics.ssim_calls": "ssim",
}
COUNTERS = (  # metric -> summed by the wrappers
    "net.eval_conv_backward_calls",
    "net.conv_gflop",
    "rng.deviates",
    "checkpoint.bytes",
    "fnv.bytes_hashed",
)


def patch_luml1(wrappers: dict) -> list[tuple[object, str, object]]:
    """Point every luml1 module attribute that is a key of ``wrappers`` at its wrapper.

    Functions are matched by identity in every loaded ``luml1.*`` module, so
    a name another module imported (``from .net import conv_forward``) is
    replaced too. Returns (module, attribute, original) for each attribute
    replaced, so that the caller can put the originals back.
    """
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers.items()}
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "luml1" and not name.startswith("luml1."):
            continue
        for attr, value in list(vars(module).items()):
            fn, wrapper = by_id.get(id(value), (None, None))
            if fn is value:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patched


class Tracer:
    def __init__(self):
        self.self_s: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_ms: dict[str, list[float]] = defaultdict(list)
        self._child_time: list[float] = []  # one accumulator per open span
        self._layer_index: dict[int, tuple[int, object]] = {}
        self._train_calls: list[list] = []  # [start, end]; end is None while it runs
        self._bench: list | None = None  # [start, end] of run_bench, likewise
        self._in_cell_eval = False
        self._last_adam_end: float | None = None
        self._steps_ms: list[float] = []

    # -- spans -------------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        start = time.perf_counter()
        self._child_time.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            children = self._child_time.pop()
            self.self_s[name].append(end - start - children)
            if self._child_time:
                self._child_time[-1] += end - start

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- hooks on particular calls -------------------------------------------

    def _register_net(self, net):
        for i, layer in enumerate(net.layers):
            self._layer_index[id(layer)] = (i, layer)  # keep layer alive: ids stay unique

    def _layer_of(self, layer) -> int | None:
        entry = self._layer_index.get(id(layer))
        return entry[0] if entry is not None and entry[1] is layer else None

    def _conv_forward_done(self, args, result):
        layer, out = args[1], result[0]
        k = layer.kernels.shape
        self.counters["net.conv_gflop"] += 2.0 * out.size * k[1] * k[2] * k[3] / 1e9
        self._layer_sample("fwd", layer, "conv_forward")

    def _conv_backward_done(self, args, result):
        grad_out, cache = args[0], args[1]
        layer = getattr(cache, "layer", None)
        if layer is not None:
            k = layer.kernels.shape
            # kernel gradient plus input gradient, each as costly as the forward
            self.counters["net.conv_gflop"] += 4.0 * grad_out.size * k[1] * k[2] * k[3] / 1e9
            self._layer_sample("bwd", layer, "conv_backward")
        if self._in_cell_eval:
            self.counters["net.eval_conv_backward_calls"] += 1

    def _layer_sample(self, direction, layer, span):
        i = self._layer_of(layer)
        if i is not None:
            self.layer_ms[f"{direction}{i}"].append(self.self_s[span][-1] * 1e3)

    def _adam_done(self, args, result):
        now = time.perf_counter()
        if self._last_adam_end is not None:
            self._steps_ms.append((now - self._last_adam_end) * 1e3)
        self._last_adam_end = now

    def _train(self, fn):
        def wrapper(*args, **kwargs):
            self._in_cell_eval = False
            self._last_adam_end = None
            self._train_calls.append([time.perf_counter(), None])
            try:
                return fn(*args, **kwargs)
            finally:
                self._train_calls[-1][1] = time.perf_counter()
                self._in_cell_eval = self._bench is not None

        return wrapper

    def _run_bench(self, fn):
        def wrapper(*args, **kwargs):
            self._bench = [time.perf_counter(), None]
            try:
                return fn(*args, **kwargs)
            finally:
                self._bench[1] = time.perf_counter()
                self._in_cell_eval = False

        return wrapper

    def _batches(self, fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def draw():
                end = object()
                while True:
                    item = self._timed("patch_draw", next, (gen, end), {})
                    if item is end:
                        self.self_s["patch_draw"].pop()
                        return
                    yield item

            return draw()

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every luml1 module attribute that names a traced function."""
        import luml1.bench
        import luml1.checkpoint
        import luml1.dataset
        import luml1.fnv
        import luml1.image
        import luml1.losses
        import luml1.metrics
        import luml1.net
        import luml1.rng
        import luml1.trainer

        net, image = luml1.net, luml1.image

        def count(metric, of):
            def after(args, result):
                self.counters[metric] += of(args, result)
            return after

        wrappers = {
            net.conv_forward: self.span("conv_forward", net.conv_forward, self._conv_forward_done),
            net.conv_backward: self.span("conv_backward", net.conv_backward, self._conv_backward_done),
            net.net_forward: self.span("net_forward", net.net_forward),
            net.net_backward: self.span("net_backward", net.net_backward),
            luml1.trainer.adam_step: self.span("adam_step", luml1.trainer.adam_step, self._adam_done),
            luml1.trainer.train: self._train(luml1.trainer.train),
            luml1.bench.run_bench: self._run_bench(luml1.bench.run_bench),
            luml1.losses.eval_loss: self.span("eval_loss", luml1.losses.eval_loss),
            luml1.losses.luminance_term: self.span("luminance_term", luml1.losses.luminance_term),
            luml1.dataset.gen_clean: self.span("gen_clean", luml1.dataset.gen_clean),
            luml1.dataset.make_blind_batches: self._batches(luml1.dataset.make_blind_batches),
            luml1.rng.normal: self.span(
                "normal", luml1.rng.normal, count("rng.deviates", lambda a, r: r.size)
            ),
            luml1.metrics.ssim: self.span("ssim", luml1.metrics.ssim),
            luml1.metrics.psnr: self.span("psnr", luml1.metrics.psnr),
            luml1.checkpoint.save_checkpoint: self.span(
                "save_checkpoint",
                luml1.checkpoint.save_checkpoint,
                count("checkpoint.bytes", lambda a, r: os.path.getsize(a[1])),
            ),
            luml1.fnv.fnv1a64: self.span(
                "fnv1a64", luml1.fnv.fnv1a64, count("fnv.bytes_hashed", lambda a, r: len(a[0]))
            ),
        }
        patch_luml1(wrappers)

        image_init = image.Image.__post_init__
        image.Image.__post_init__ = self.span("image", image_init)
        net_init = net.TinyNet.__post_init__

        def tinynet_init(obj):
            net_init(obj)
            self._register_net(obj)

        net.TinyNet.__post_init__ = tinynet_init

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        import statistics  # here, not at the top: child.py imports this module during set-up

        out = {m: sum(self.self_s.get(span, ())) for m, span in SPAN_METRICS.items()}
        out.update({m: len(self.self_s.get(span, ())) for m, span in CALL_METRICS.items()})
        out.update({m: self.counters.get(m, 0.0) for m in COUNTERS})
        conv_s = out["net.conv_forward_s"] + out["net.conv_backward_s"]
        out["net.conv_gflop_per_s"] = out["net.conv_gflop"] / conv_s if conv_s else 0.0
        for direction, label in (("fwd", "forward"), ("bwd", "backward")):
            for i in range(N_LAYERS):
                samples = self.layer_ms.get(f"{direction}{i}")
                out[f"net.conv_{label}_ms.l{i}"] = statistics.median(samples) if samples else 0.0
        out["trainer.step_ms"] = statistics.median(self._steps_ms) if self._steps_ms else 0.0
        now = time.perf_counter()  # the end of whatever still runs (a run stopped early)
        calls = [(start, now if end is None else end) for start, end in self._train_calls]
        cell_train = sum(end - start for start, end in calls)
        cell_eval = baseline = 0.0
        if self._bench is not None:
            bench_start, bench_end = self._bench
            starts = [s for s, _ in calls] + [now if bench_end is None else bench_end]
            baseline = starts[0] - bench_start
            cell_eval = sum(nxt - end for (_, end), nxt in zip(calls, starts[1:]))
        out["bench.baseline_s"] = baseline
        out["bench.cell_train_s"] = cell_train if self._bench is not None else 0.0
        out["bench.cell_eval_s"] = cell_eval
        return out
