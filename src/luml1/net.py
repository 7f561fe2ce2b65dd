"""Small residual convolutional denoiser with hand-written backprop.

The network is a plain conv/ReLU stack that estimates the noise field; the
denoised output is input minus that estimate, so a zero-initialized network
is exactly the identity map.

Passes run on a batch, layer by layer: feature maps are (batch, channels,
height, width), kernels (out_ch, in_ch, k, k), all in the parameters' dtype:
float32 for a net whose parameters are all float32 (the net train trains),
else float64 (build_tinynet's, and every net a checkpoint loads, so scoring
runs in float64). Convolution is zero same-padded cross-correlation as one
im2col matrix product per item; the backward pass is its exact transpose,
whose input gradient is again such a product and whose kernel gradient is
one stacked product for the batch.
Passes run in a Workspace: each conv writes straight into the next layer's
zero-bordered input, where its ReLU runs in place, and gradients are masked
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [kernels0, bias0, kernels1, bias1, ...]."""
        return [arr for layer in self.layers for arr in (layer.kernels, layer.bias)]

    def parameter_names(self) -> list[str]:
        return [f"layer{i}.{n}" for i in range(len(self.layers)) for n in ("kernels", "bias")]


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


class Workspace:
    """The buffers for running ``layers`` on (B, C, H, W) batches, refilled by every pass.

    Map j, the input of layer j (map n is the output), is one zero-bordered (B, C, size) buffer whose rows of W
    pixels and a 2p border follow each other at stride s = W + 2p; ``views[j]`` is its (B, C, H, W) interior. So
    row (c, dy, dx) of an item's im2col matrix is one run of H*s values of the map, and a product with it fills the
    interior's run (``span``) but for 2p junk values per row, which land on the border and are zeroed. All layers
    and items share one im2col matrix. The gradients of all maps share one more map, made by the first backward
    pass: each item's input gradient overwrites its output gradient once that item is unfolded.
    """

    def __init__(self, layers: list[ConvLayer], b: int, h: int, w: int):
        self.shape = (b, h, w)
        self.pad = max(layer.k // 2 for layer in layers)
        self.stride = w + 2 * self.pad
        self.channels = [layers[0].in_ch] + [layer.out_ch for layer in layers]
        self.size = (h + 2 * self.pad) * self.stride + 2 * self.pad  # of a map's channel: the windows fit inside
        self.dtype = layers[0].kernels.dtype
        self.maps = [np.zeros((b, c, self.size), self.dtype) for c in self.channels]
        self.views = [self.interior(m) for m in self.maps]
        rows = max(max(lay.in_ch, lay.out_ch) * lay.k**2 for lay in layers)
        self.cols = np.empty((rows, h * self.stride), self.dtype)
        self.layers = list(layers)
        self.grads: list[tuple[np.ndarray, np.ndarray]] = []  # grad_maps(), once made

    def span(self, m: np.ndarray) -> np.ndarray:
        """(B, C, H*s) view of a map from its first interior pixel: the interior rows, each followed by 2p junk."""
        start = self.pad * (self.stride + 1)
        return m[:, :, start : start + self.shape[1] * self.stride]

    def interior(self, m: np.ndarray, junk: bool = False) -> np.ndarray:
        """(B, C, H, W) view of a map's interior, or with ``junk`` the (B, C, H, 2p) junk after each row."""
        rows = self.span(m).reshape(*m.shape[:2], self.shape[1], self.stride)
        return rows[..., self.shape[2] :] if junk else rows[..., : self.shape[2]]

    def grad_maps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(map, interior view) per map's gradient, in one buffer made on first use: scoring never makes it."""
        if not self.grads:
            buf = np.zeros((self.shape[0], max(self.channels), self.size), self.dtype)
            self.grads = [(buf[:, :c], self.interior(buf[:, :c])) for c in self.channels]
        return self.grads

    def windows(self, m: np.ndarray, k: int) -> np.ndarray:
        """(B, C, k, k, H*s) view of a map: [b] is item b's im2col matrix for a k x k kernel, rows (c, dy, dx)."""
        s, e, start = self.stride, m.itemsize, (self.pad - k // 2) * (self.stride + 1)
        return as_strided(m[:, :, start:], (*m.shape[:2], k, k, self.shape[1] * s), (*m.strides[:2], s * e, e, e))

    def correlate(self, src: np.ndarray, kmat: np.ndarray, k: int, dst: np.ndarray) -> np.ndarray:
        """Item by item, ``kmat`` (rows, C*k*k) times map ``src``'s im2col matrix, into map ``dst``'s span, which
        it returns: the caller zeroes the junk once done with it."""
        cols = self.cols[: kmat.shape[1]]
        out = self.span(dst)
        for item, window in zip(out, self.windows(src, k)):
            np.copyto(cols.reshape(window.shape), window)
            np.matmul(kmat, cols, out=item)
        return out

    def fits(self, layers: list[ConvLayer], shape: tuple[int, ...]) -> bool:
        return self.shape == shape and list(map(id, self.layers)) == list(map(id, layers))  # these very layers

    def work(self, i: int) -> ConvWork:
        return ConvWork(self, i, self.layers[i])


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
    ws, i = work.ws, work.i
    if x is not ws.views[i]:  # net_forward hands each layer after the first its input in place
        np.copyto(ws.views[i], x)
    out = ws.correlate(ws.maps[i], layer.kernels.reshape(layer.out_ch, -1), layer.k, ws.maps[i + 1])
    out += layer.bias[:, None]  # on the span: an in-place add on the interior view would copy it
    ws.interior(ws.maps[i + 1], junk=True)[...] = 0.0  # the border is zero again
    return ws.views[i + 1], work


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
    grads = ws.grad_maps()
    (gmap, gview), k = grads[i + 1], layer.k
    if grad_out is not gview:  # net_backward hands each layer its output gradient in place
        np.copyto(gview, grad_out)
    g = ws.span(gmap)
    grad_bias = g.sum(axis=(0, 2))
    shifted = ws.windows(ws.maps[i], k).transpose(0, 2, 3, 4, 1)  # [b, dy, dx] is (H*s, C)
    grad_kernels = np.matmul(g[:, None, None], shifted).sum(axis=0).transpose(2, 3, 0, 1).copy()
    if not input_grad:
        return None, grad_kernels, grad_bias
    ws.correlate(gmap, layer.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(layer.in_ch, -1), k, grads[i][0])
    ws.interior(grads[i][0], junk=True)[...] = 0.0
    return grads[i][1], grad_kernels, grad_bias


def layer_outputs(ws: Workspace, noisy: np.ndarray):
    """Run ``ws``'s layers on a (B, H, W, 3) batch, yielding each conv output before its ReLU runs in place."""
    t = noisy.transpose(0, 3, 1, 2)
    for i, layer in enumerate(ws.layers):
        t, _ = conv_forward(t, layer, ws.work(i))
        yield t
        if i < len(ws.layers) - 1:
            relu(ws.maps[i + 1], ws.maps[i + 1])  # the whole map, contiguous: its zero border stays zero


def net_forward(net: TinyNet, noisy: np.ndarray, ws: Workspace | None = None) -> tuple[np.ndarray, Workspace]:
    """Denoise a (B, H, W, 3) batch; returns the (B, H, W, 3) output and the workspace it ran in.

    A single image is a batch of one, and each item's output is the same bit for bit in any batch. ``ws`` is used
    if it was built for this net at this shape, else a fresh one is: pass the returned one back in to allocate no
    conv buffers. It is the cache net_backward reads until the next pass through it. The stack output is a noise
    estimate, subtracted from the input; no clamping happens here. A non-finite output raises NumericalError
    naming the first layer whose conv output is not finite, found by running the batch again.
    """
    if noisy.ndim != 4 or noisy.shape[3] != 3:
        raise InvalidInputError(f"network input must be (B, H, W, 3), got shape {noisy.shape}")
    if ws is None or not ws.fits(net.layers, noisy.shape[:3]):
        ws = Workspace(net.layers, *noisy.shape[:3])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked below
        *_, t = layer_outputs(ws, noisy)
        # row-major like every image: to_grayscale's matmul would sum a transposed view in another order
        out = np.subtract(noisy, t.transpose(0, 2, 3, 1), out=np.empty(noisy.shape, np.result_type(noisy, t)))
        if not np.all(np.isfinite(out)):
            bad = (f"layer{i}" for i, t in enumerate(layer_outputs(ws, noisy)) if not np.all(np.isfinite(t)))
            raise NumericalError(f"network output is not finite, first at {next(bad, 'the residual subtraction')}")
    return out, ws


def net_backward(net: TinyNet, cache: Workspace, grad_out: np.ndarray) -> list[np.ndarray]:
    """Exact parameter gradients of the forward map, summed over the batch, in TinyNet.parameters() order.

    ``grad_out`` is shaped like the output; ``cache`` is the workspace of net_forward's last pass on this net.
    """
    if not cache.fits(net.layers, cache.shape):
        raise RuntimeError("forward cache does not match this network")
    shape = (*cache.shape, net.layers[-1].out_ch)
    if grad_out.shape != shape:
        raise RuntimeError(f"gradient shape {grad_out.shape} does not match the output shape {shape}")
    s = np.negative(grad_out.transpose(0, 3, 1, 2), out=cache.grad_maps()[-1][1])  # output = input - stack(input)
    grads: list[np.ndarray] = []
    for i in range(len(net.layers) - 1, -1, -1):
        s, gk, gb = conv_backward(s, cache.work(i), input_grad=i > 0)  # nothing reads the input's gradient
        if s is not None:  # ReLU: the gradient at exactly 0 is 0; map i holds relu(pre), and zero in its border
            g = cache.grad_maps()[i][0]
            np.multiply(g, cache.maps[i] > 0, out=g)
        grads += [gb, gk]
    return grads[::-1]
