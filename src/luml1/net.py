"""Small residual convolutional denoiser with hand-written backprop.

The network is a plain conv/ReLU stack that estimates the noise field; the
denoised output is input minus that estimate, so a zero-initialized network
is exactly the identity map.

Passes run on a batch, layer by layer: feature maps are (batch, channels,
height, width), kernels (out_ch, in_ch, k, k), all in the parameters' dtype:
float32 for a net whose parameters are all float32 (the net train trains,
and every net a checkpoint loads, so training and scoring both run in
float32), else float64 (build_tinynet's). The residual subtraction runs in
np.result_type of the input and the net, so a float64 image is denoised to
float64. Convolution is zero same-padded cross-correlation as one im2col
matrix product per item; the backward pass is its exact transpose,
whose input gradient is again such a product and whose kernel gradient is
one stacked product for the batch.
Passes run in a Workspace: each conv writes straight into the next layer's
zero-bordered input, where its ReLU runs in place, and gradients are masked
in place. A workspace fits a batch shape, kernel shapes and a dtype, so any
net of those shapes may run in it. Training's layout, net_forward's
default, keeps every layer's input and the gradients, which the backward
pass of the net that ran last reads. Inference's (denoise asks for it)
keeps every map in one buffer, so its memory does not grow with depth; it
has no backward pass. A net's parameters are one
vector, ``theta``, of which each layer's kernels and bias are views;
net_backward returns a vector like it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidInputError, NumericalError
from .rng import DOMAIN_INIT, normal, stream


@dataclass
class ConvLayer:
    """One convolution: kernels (out_ch, in_ch, k, k) and per-channel bias."""

    kernels: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        f32 = np.asarray(self.kernels).dtype == np.asarray(self.bias).dtype == np.float32
        self.kernels = np.asarray(self.kernels, dtype=np.float32 if f32 else np.float64)
        self.bias = np.asarray(self.bias, dtype=self.kernels.dtype)
        if self.kernels.ndim != 4 or self.kernels.shape[2] != self.kernels.shape[3]:
            raise InvalidInputError(f"kernels must be (out, in, k, k), got {self.kernels.shape}")
        if self.k % 2 == 0:
            raise InvalidInputError(f"kernel size must be odd, got {self.k}")
        if self.bias.shape != (self.out_ch,):
            raise InvalidInputError(f"bias shape {self.bias.shape} != ({self.out_ch},)")
        if not (np.all(np.isfinite(self.kernels)) and np.all(np.isfinite(self.bias))):
            raise InvalidInputError("layer parameters must be finite")

    @property
    def out_ch(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_ch(self) -> int:
        return self.kernels.shape[1]

    @property
    def k(self) -> int:
        return self.kernels.shape[2]


@dataclass
class TinyNet:
    """Residual conv/ReLU stack (ReLU after every layer but the last), 3 channels in and out."""

    layers: list[ConvLayer]
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise InvalidInputError("network needs at least one layer")
        if self.layers[0].in_ch != 3 or self.layers[-1].out_ch != 3:
            raise InvalidInputError("first layer must take 3 channels and last layer emit 3")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_ch != b.in_ch:
                raise InvalidInputError(f"channel mismatch between layers: {a.out_ch} -> {b.in_ch}")
            if a.kernels.dtype != b.kernels.dtype:
                raise InvalidInputError(f"layers must share one dtype, got {a.kernels.dtype} and {b.kernels.dtype}")
        # theta is [kernels0, bias0, kernels1, ...], each C order: the checkpoint payload's order; ends[j] is where
        # array j ends in it. The layers become views of it, so a layer belongs to the last net made from it.
        arrays = [a for layer in self.layers for a in (layer.kernels, layer.bias)]
        self.theta, self.ends = np.concatenate([a.ravel() for a in arrays]), np.cumsum([a.size for a in arrays])
        for layer, (kernels, bias) in zip(self.layers, self.split(self.theta)):
            layer.kernels, layer.bias = kernels, bias

    def split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, the (kernels, bias) views of a vector laid out like ``theta``."""
        parts = np.split(vec, self.ends[:-1])
        return [(k.reshape(layer.kernels.shape), b) for layer, k, b in zip(self.layers, parts[::2], parts[1::2])]

    def require_finite(self, vec: np.ndarray, what: str) -> None:
        """Raise NumericalError naming the first parameter at which ``vec``, laid out like ``theta``, is not finite."""
        finite = np.isfinite(vec)
        if not finite.all():
            j = int(np.searchsorted(self.ends, np.argmin(finite), side="right"))
            raise NumericalError(f"{what} layer{j // 2}.{('kernels', 'bias')[j % 2]}")


def build_tinynet(seed: int, hidden_channels: int, hidden_depth: int) -> TinyNet:
    """Seeded network of 3x3 convolutions: 3 -> hidden (x hidden_depth) -> 3, He-initialized.

    The final layer starts near zero (scale 1e-3) so the residual network
    begins close to the identity map, which stabilizes early training.
    """
    rng = stream(seed, DOMAIN_INIT)
    dims = [3] + [hidden_channels] * (hidden_depth + 1) + [3]
    layers = []
    for i, (cin, cout) in enumerate(zip(dims, dims[1:])):
        scale = 1e-3 if i == len(dims) - 2 else np.sqrt(2.0 / (cin * 3 * 3))
        layers.append(ConvLayer(normal(rng, (cout, cin, 3, 3), scale), np.zeros(cout)))
    return TinyNet(layers)


def relu(pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = np.where(pre > 0, pre, 0.0) bit for bit; ``pre`` keeps its values, its -0.0 becomes +0.0."""
    np.add(pre, 0.0, out=pre)  # fmax drops a NaN, but numpy's scalar tail would keep a -0.0
    return np.fmax(pre, 0.0, out=out)


class Map(NamedTuple):
    """A zero-bordered (B, C, size) buffer and the views of it that passes use, all built with it."""

    buf: np.ndarray
    span: np.ndarray  # (B, C, H*s) from the first interior pixel: the interior rows, each followed by 2p junk
    inner: np.ndarray  # (B, C, H, W) interior
    junk: np.ndarray  # (B, C, H, 2p) junk after each row
    # of a map that a k x k kernel reads: the (B, C, k, k, H*s) view whose [b] is item b's im2col matrix, rows
    # (c, dy, dx); the (C*k*k, H*s) rows of the shared im2col matrix that [b] fills; those rows shaped like [b]
    windows: np.ndarray | None = None
    cols: np.ndarray | None = None
    unfolded: np.ndarray | None = None


class Workspace:
    """The buffers for running layers of given kernel shapes and dtype on (B, C, H, W) batches, refilled by each pass.

    Map j, the input of layer j (map n is the output), is a zero-bordered (B, C, size) buffer whose rows of W
    pixels and a 2p border follow each other at stride s = W + 2p. So row (c, dy, dx) of an item's im2col matrix
    is one run of H*s values of the map, and a product with it fills the interior's run (the span) but for 2p
    junk values per row, which land on the border and are zeroed. All layers and items share one im2col matrix,
    whose first rows also hold a layer's bias on every pixel once its products are written.
    Without ``backward``, map j is the first C channels of one (B, max C, size) buffer, which each layer overwrites
    (correlate); with it, each map has a buffer of its own for the backward pass, and all gradients share one more.
    No pass writes a border outside a span, so borders stay zero and any layers of the same kernel shapes and dtype
    may run here (fits); ``layers`` ran last. Each buffer's views are built with it (Map).
    """

    def __init__(self, layers: list[ConvLayer], b: int, h: int, w: int, backward: bool = True):
        self.shape = (b, h, w)
        self.pad = max(layer.k // 2 for layer in layers)
        self.stride = w + 2 * self.pad
        self.channels = [layers[0].in_ch] + [layer.out_ch for layer in layers]
        self.size = (h + 2 * self.pad) * self.stride + 2 * self.pad  # of a map's channel: the windows fit inside
        self.dtype = layers[0].kernels.dtype
        rows = max(max(lay.in_ch, lay.out_ch) * lay.k**2 for lay in layers)
        self.cols = np.empty((rows, h * self.stride), self.dtype)  # conv_forward also spreads a bias over its rows
        self.layers, self.backward = list(layers), backward
        ks = [layer.k for layer in layers]
        if not backward:
            self.maps, self.grads = self.stacked([*ks, None]), []
            return
        self.maps = [self.views(np.zeros((b, c, self.size), self.dtype), k) for c, k in zip(self.channels, [*ks, None])]
        self.grads = self.stacked([None, *ks])  # gradient j + 1 is read by layer j's kernel
        # reused, not made per pass: a fresh vector per training step cost some 30 page faults a step
        self.param_grad = np.empty(sum(lay.kernels.size + lay.out_ch for lay in layers), self.dtype)

    def views(self, buf: np.ndarray, k: int | None) -> Map:
        """The Map of a (B, C, size) buffer, with the windows of a k x k kernel unless ``k`` is None."""
        (b, c), (h, w), s = buf.shape[:2], self.shape[1:], self.stride
        start = self.pad * (s + 1)
        span = buf[:, :, start : start + h * s]
        rows = span.reshape(b, c, h, s)
        if k is None:
            return Map(buf, span, rows[..., :w], rows[..., w:])
        e, first = buf.itemsize, (self.pad - k // 2) * (s + 1)
        windows = as_strided(buf[:, :, first:], (b, c, k, k, h * s), (*buf.strides[:2], s * e, e, e))
        cols = self.cols[: c * k * k]
        return Map(buf, span, rows[..., :w], rows[..., w:], windows, cols, cols.reshape(windows.shape[1:]))

    def stacked(self, ks: list[int | None]) -> list[Map]:
        """Map j as the first channels[j] channels of one (B, max C, size) buffer, with a ks[j] kernel's windows."""
        buf = np.zeros((self.shape[0], max(self.channels), self.size), self.dtype)
        return [self.views(buf[:, :c], k) for c, k in zip(self.channels, ks)]

    def fits(self, layers: list[ConvLayer], shape: tuple[int, ...]) -> bool:
        """Whether a pass of ``layers`` on (B, H, W) ``shape`` batches can run here: their kernel shapes and dtype."""
        kinds = [[(lay.kernels.shape, lay.kernels.dtype) for lay in ls] for ls in (self.layers, layers)]
        return self.shape == shape and kinds[0] == kinds[1]

    def work(self, i: int) -> ConvWork:
        return ConvWork(self, i, self.layers[i])


def correlate(src: Map, kmat: np.ndarray, dst: Map) -> np.ndarray:
    """Item by item, ``kmat`` (rows, C*k*k) times map ``src``'s im2col matrix, into map ``dst``'s span, which it
    returns: the caller zeroes the junk once done with it. Each item is unfolded whole before its product is
    written, so ``dst`` may share ``src``'s buffer: a layer may write over its own input item by item. A form that
    writes before it has read an item's whole input must give the forward-only layout its second buffer back."""
    for item, window in zip(dst.span, src.windows):
        np.copyto(src.unfolded, window)
        np.matmul(kmat, src.cols, out=item)
    return dst.span


@dataclass
class ConvWork:
    """Layer ``i`` of a Workspace: it reads map i and writes map i + 1. Made per call, so no cycle holds buffers."""

    ws: Workspace
    i: int
    layer: ConvLayer


def conv_forward(x: np.ndarray, layer: ConvLayer, work: ConvWork | None = None) -> tuple[np.ndarray, ConvWork]:
    """Same-padded cross-correlation of a (B, C, H, W) batch with the layer, in ``work`` (fresh if None).

    The output is a view of the next map, which the next pass through ``work`` overwrites.
    """
    if x.ndim != 4 or x.shape[1] != layer.in_ch:
        raise InvalidInputError(f"input shape {x.shape} does not match layer in_ch {layer.in_ch} (B, C, H, W)")
    shape = (x.shape[0], *x.shape[2:])
    work = Workspace([layer], *shape).work(0) if work is None else work
    if work.layer is not layer or work.ws.shape != shape:
        raise InvalidInputError(f"workspace was not built for this layer at {shape}")
    src, dst = work.ws.maps[work.i], work.ws.maps[work.i + 1]
    if x is not src.inner:  # net_forward hands each layer after the first its input in place
        np.copyto(src.inner, x)
    out = correlate(src, layer.kernels.reshape(layer.out_ch, -1), dst)
    # the bias on every pixel, in im2col rows that are dead once the products are written (out_ch <= out_ch*k*k)
    np.copyto(plane := work.ws.cols[: layer.out_ch], layer.bias[:, None])
    out += plane  # on the span, from a contiguous plane: faster than a stride-0 bias or an add on the interior view
    dst.junk[...] = 0.0  # the border is zero again
    return dst.inner, work


def conv_backward(
    grad_out: np.ndarray, cache: ConvWork, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv_forward summed over the batch: (d/d input or None without ``input_grad``, d/d kernels,
    d/d bias).

    The kernel gradient is one stacked product of the output gradient with the k*k shifted runs of the padded
    input, summed over items in item order. The input gradient is the same-padded cross-correlation of
    ``grad_out`` with the kernels flipped in both spatial axes and in and out channels swapped; it lands in the
    workspace's gradient buffer over the output gradient, until the next backward pass overwrites it.
    """
    ws, i, layer = cache.ws, cache.i, cache.layer
    shape = (ws.shape[0], layer.out_ch, *ws.shape[1:])
    if grad_out.shape != shape:
        raise InvalidInputError(f"grad shape {grad_out.shape} != output shape {shape}")
    if not ws.backward:
        raise RuntimeError("workspace was built for forward passes only")
    gout, gin = ws.grads[i + 1], ws.grads[i]
    if grad_out is not gout.inner:  # net_backward hands each layer its output gradient in place
        np.copyto(gout.inner, grad_out)
    g = gout.span
    grad_bias = g.sum(axis=(0, 2))
    shifted = ws.maps[i].windows.transpose(0, 2, 3, 4, 1)  # [b, dy, dx] is (H*s, C)
    grad_kernels = np.matmul(g[:, None, None], shifted).sum(axis=0).transpose(2, 3, 0, 1)
    if not input_grad:
        return None, grad_kernels, grad_bias
    correlate(gout, layer.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(layer.in_ch, -1), gin)
    gin.junk[...] = 0.0
    return gin.inner, grad_kernels, grad_bias


def layer_outputs(ws: Workspace, noisy: np.ndarray):
    """Run ``ws``'s layers on a (B, H, W, 3) batch, yielding each conv output before its ReLU runs in place."""
    t = noisy.transpose(0, 3, 1, 2)
    for i, layer in enumerate(ws.layers):
        t, _ = conv_forward(t, layer, ws.work(i))
        yield t
        if i < len(ws.layers) - 1:
            relu(ws.maps[i + 1].buf, ws.maps[i + 1].buf)  # the whole map, border too: its zero border stays zero


def net_forward(
    net: TinyNet, noisy: np.ndarray, ws: Workspace | None = None, backward: bool = True
) -> tuple[np.ndarray, Workspace]:
    """Denoise a (B, H, W, 3) batch; returns the (B, H, W, 3) output and the workspace it ran in.

    A single image is a batch of one, and each item's output is the same bit for bit in any batch. ``ws`` is used
    if it fits this net at this shape (Workspace.fits), else a fresh one is: pass the returned one back in to
    allocate no conv buffers. The pass points ``ws`` at this net, whichever net of these shapes ran in it before. A
    fresh one has training's layout, the cache net_backward reads until the next pass through it, or without
    ``backward`` the one-buffer layout that denoise, which scoring and denoise_file call, asks for. The
    output is the same bit for bit in either layout and after any earlier pass. The stack output is a noise
    estimate, subtracted from the input; no clamping happens here. A non-finite output raises NumericalError naming
    the first layer whose conv output is not finite, found by running the batch again.
    """
    if noisy.ndim != 4 or noisy.shape[3] != 3:
        raise InvalidInputError(f"network input must be (B, H, W, 3), got shape {noisy.shape}")
    if ws is None or not ws.fits(net.layers, noisy.shape[:3]):
        ws = Workspace(net.layers, *noisy.shape[:3], backward)
    ws.layers = list(net.layers)  # it may have run another net of these shapes
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked below
        *_, t = layer_outputs(ws, noisy)
        # row-major like every image: to_grayscale's matmul would sum a transposed view in another order
        out = np.subtract(noisy, t.transpose(0, 2, 3, 1), out=np.empty(noisy.shape, np.result_type(noisy, t)))
        if not np.all(np.isfinite(out)):
            bad = (f"layer{i}" for i, t in enumerate(layer_outputs(ws, noisy)) if not np.all(np.isfinite(t)))
            raise NumericalError(f"network output is not finite, first at {next(bad, 'the residual subtraction')}")
    return out, ws


# output rows per denoise pass: a 1024x1024 image through the 16x3 net peaked at 200 MB RSS, against 832 MB in one pass
DENOISE_TILE_ROWS = 64


def denoise(net: TinyNet, noisy: np.ndarray, ws: Workspace | None = None) -> tuple[np.ndarray, Workspace]:
    """net_forward without ``backward`` of a (B, H, W, 3) batch, in tiles of DENOISE_TILE_ROWS output rows; returns
    the output and the workspace it ran in, which the next call may reuse.

    Each tile is read with sum(k // 2) rows of halo on both sides, or up to the batch's edge, so each output row sees
    every input row it depends on. The slabs read are of one height and share one forward-only workspace, which
    scales with the tile; a batch one slab covers is one net_forward pass.
    """
    h, halo = noisy.shape[1], sum(layer.k // 2 for layer in net.layers)
    rows = DENOISE_TILE_ROWS + 2 * halo
    if h <= rows:
        return net_forward(net, noisy, ws, backward=False)
    out = np.empty(noisy.shape, np.result_type(noisy, net.theta))
    for r0 in range(0, h, DENOISE_TILE_ROWS):
        a = min(max(r0 - halo, 0), h - rows)  # the slab's first row
        tile, ws = net_forward(net, noisy[:, a : a + rows], ws, backward=False)
        out[:, r0 : r0 + DENOISE_TILE_ROWS] = tile[:, r0 - a : r0 - a + DENOISE_TILE_ROWS]
    return out, ws


def net_backward(net: TinyNet, cache: Workspace, grad_out: np.ndarray) -> np.ndarray:
    """Exact parameter gradient of the forward map, summed over the batch, as a vector laid out like ``theta``: the
    workspace's own, which the next backward pass through ``cache`` overwrites.

    ``grad_out`` is shaped like the output; ``cache`` is the training-layout workspace of net_forward's last pass
    on this net: one whose last pass ran another net raises.
    """
    if not cache.backward:
        raise RuntimeError("workspace was built for forward passes only")
    if list(map(id, cache.layers)) != list(map(id, net.layers)):
        raise RuntimeError("forward cache does not match this network")
    shape = (*cache.shape, net.layers[-1].out_ch)
    if grad_out.shape != shape:
        raise RuntimeError(f"gradient shape {grad_out.shape} does not match the output shape {shape}")
    s = np.negative(grad_out.transpose(0, 3, 1, 2), out=cache.grads[-1].inner)  # output = input - stack(input)
    views = net.split(cache.param_grad)
    for i in range(len(net.layers) - 1, -1, -1):
        s, gk, gb = conv_backward(s, cache.work(i), input_grad=i > 0)  # nothing reads the input's gradient
        views[i][0][...], views[i][1][...] = gk, gb
        if s is not None:  # ReLU: the gradient at exactly 0 is 0; map i holds relu(pre), and zero in its border
            g = cache.grads[i].buf
            np.multiply(g, cache.maps[i].buf > 0, out=g)
    return cache.param_grad
