"""Small residual convolutional denoiser with hand-written backprop.

The network is a plain conv/ReLU stack that estimates the noise field; the
denoised output is input minus that estimate, so a zero-initialized network
is exactly the identity map.

Feature tensors are (channels, height, width) float64, kernels (out_ch,
in_ch, k, k). Convolution is zero same-padded cross-correlation as an im2col
matrix product; the backward pass is its exact transpose, whose input
gradient is again such a product. Passes run in a Workspace: each ReLU lands
in the next layer's zero-bordered input, and gradients are masked in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, NumericalError
from .rng import DOMAIN_INIT, normal, stream


@dataclass
class ConvLayer:
    """One convolution: kernels (out_ch, in_ch, k, k) and per-channel bias."""

    kernels: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.kernels = np.asarray(self.kernels, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
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

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [kernels0, bias0, kernels1, bias1, ...]."""
        return [arr for layer in self.layers for arr in (layer.kernels, layer.bias)]

    def parameter_names(self) -> list[str]:
        return [f"layer{i}.{n}" for i in range(len(self.layers)) for n in ("kernels", "bias")]


def build_tinynet(seed: int, hidden_channels: int = 16, hidden_depth: int = 3) -> TinyNet:
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


class _Im2col:
    """A (C, H, W) map ``x`` inside a zero border no pass writes, a window view of it and its im2col matrix."""

    def __init__(self, c: int, k: int, h: int, w: int):
        p = k // 2
        self.xp = np.zeros((c, h + k - 1, w + k - 1))
        self.x = self.xp[:, p : p + h, p : p + w]
        self.windows = sliding_window_view(self.xp, (k, k), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
        self.cols = np.empty((c * k * k, h * w))

    def correlate(self, x: np.ndarray, kmat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``kmat`` (rows, C*k*k) times the im2col matrix of ``x``, zero-padded to same size, into ``out``."""
        if x is not self.x:  # a pass that wrote x straight into self.x has nothing to copy
            np.copyto(self.x, x)
        np.copyto(self.cols.reshape(self.windows.shape), self.windows)
        return np.matmul(kmat, self.cols, out=out)


class ConvWork:
    """One layer's buffers at one input size, refilled by every pass: ``input`` pads and unfolds the layer's
    input (net_forward writes the previous layer's ReLU straight into ``input.x``), ``pre`` is the conv output,
    ``grad_out`` pads and unfolds the output gradient, and ``grad_in`` holds the input gradient. Both are made on
    first use and kept in ``grad_buffers``: layers given one dict share them, and scoring never allocates them."""

    def __init__(self, layer: ConvLayer, h: int, w: int, grad_buffers: dict | None = None):
        self.layer = layer
        self.input = _Im2col(layer.in_ch, layer.k, h, w)
        self.pre = np.empty((layer.out_ch, h, w))
        self.grad_buffers = {} if grad_buffers is None else grad_buffers

    @property
    def grad_out(self) -> _Im2col:
        return self._grad_buffer((self.layer.out_ch, self.layer.k), lambda key: _Im2col(*key, *self.pre.shape[1:]))

    @property
    def grad_in(self) -> np.ndarray:
        return self._grad_buffer(self.layer.in_ch, lambda key: np.empty((key, *self.pre.shape[1:])))

    def _grad_buffer(self, key, make):
        if key not in self.grad_buffers:
            self.grad_buffers[key] = make(key)
        return self.grad_buffers[key]


class Workspace:
    """One ConvWork per layer of ``net`` at (h, w): the forward pass's buffers and the backward pass's cache.

    The backward pass works on one layer at a time, so all layers share one dict of gradient buffers.
    """

    def __init__(self, net: TinyNet, h: int, w: int):
        self.net = net
        self.shape = (h, w)
        grad_buffers: dict = {}
        self.layers = [ConvWork(layer, h, w, grad_buffers) for layer in net.layers]


def conv_forward(x: np.ndarray, layer: ConvLayer, work: ConvWork | None = None) -> tuple[np.ndarray, ConvWork]:
    """Same-padded cross-correlation of (C, H, W) input with the layer, into ``work`` (fresh if None).

    The output is ``work.pre``, which the next pass through ``work`` overwrites.
    """
    if x.ndim != 3 or x.shape[0] != layer.in_ch:
        raise InvalidInputError(f"input shape {x.shape} does not match layer in_ch {layer.in_ch}")
    _, h, w = x.shape
    work = ConvWork(layer, h, w) if work is None else work
    if work.layer is not layer or work.pre.shape[1:] != (h, w):
        raise InvalidInputError(f"workspace was not built for this layer at {h}x{w}")
    pre = work.pre.reshape(layer.out_ch, h * w)
    work.input.correlate(x, layer.kernels.reshape(layer.out_ch, -1), out=pre)
    pre += layer.bias[:, None]
    return work.pre, work


def conv_backward(
    grad_out: np.ndarray, cache: ConvWork, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv_forward: (d/d input or None without ``input_grad``, d/d kernels, d/d bias).

    The input gradient, ``cache.grad_in`` until the next backward pass overwrites it, is the same-padded
    cross-correlation of ``grad_out`` with the kernels flipped in both spatial axes and in and out channels swapped.
    """
    layer = cache.layer
    c, h, w = layer.in_ch, *cache.pre.shape[1:]
    if grad_out.shape != (layer.out_ch, h, w):
        raise InvalidInputError(f"grad shape {grad_out.shape} != output shape {(layer.out_ch, h, w)}")
    gmat = grad_out.reshape(layer.out_ch, h * w)
    grad_bias = grad_out.sum(axis=(1, 2))
    grad_kernels = (cache.input.cols @ gmat.T).T.reshape(layer.kernels.shape)
    if not input_grad:
        return None, grad_kernels, grad_bias
    flipped = layer.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    cache.grad_out.correlate(grad_out, flipped, out=cache.grad_in.reshape(c, h * w))
    return cache.grad_in, grad_kernels, grad_bias


def net_forward(net: TinyNet, noisy: np.ndarray, ws: Workspace | None = None) -> tuple[np.ndarray, Workspace]:
    """Denoise one (H, W, 3) array; returns the (H, W, 3) output and the workspace it ran in.

    ``ws`` is used if it was built for this net at this size, else a fresh one
    is: pass the returned one back in to allocate no conv buffers. It is the
    cache net_backward reads until the next pass through it. The stack output
    is a noise estimate, subtracted from the input; no clamping happens here.
    A non-finite output raises NumericalError naming the first non-finite layer.
    """
    if noisy.ndim != 3 or noisy.shape[2] != 3:
        raise InvalidInputError(f"network input must be (H, W, 3), got shape {noisy.shape}")
    if ws is None or ws.net is not net or ws.shape != noisy.shape[:2]:
        ws = Workspace(net, *noisy.shape[:2])
    t = noisy.transpose(2, 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked below
        for i, (layer, work) in enumerate(zip(net.layers, ws.layers)):
            t, _ = conv_forward(t, layer, work)
            if i < len(net.layers) - 1:  # the ReLU lands in the next layer's padded input
                t = relu(t, ws.layers[i + 1].input.x)
        # row-major like every image: to_grayscale's matmul would sum a transposed view in another order
        out = np.subtract(noisy, t.transpose(1, 2, 0), out=np.empty(noisy.shape))
    if not np.all(np.isfinite(out)):
        bad = (f"layer{i}" for i, work in enumerate(ws.layers) if not np.all(np.isfinite(work.pre)))
        raise NumericalError(f"network output is not finite, first at {next(bad, 'the residual subtraction')}")
    return out, ws


def net_backward(net: TinyNet, cache: Workspace, grad_out: np.ndarray) -> list[np.ndarray]:
    """Exact parameter gradients of the forward map, in TinyNet.parameters() order.

    ``grad_out`` is shaped like the output; ``cache`` is the workspace of net_forward's last pass on this net.
    """
    layers = [work.layer for work in cache.layers]
    if len(layers) != len(net.layers) or any(a is not b for a, b in zip(layers, net.layers)):
        raise RuntimeError("forward cache does not match this network")
    shape = (*cache.shape, net.layers[-1].out_ch)
    if grad_out.shape != shape:
        raise RuntimeError(f"gradient shape {grad_out.shape} does not match the output shape {shape}")
    s = -grad_out.transpose(2, 0, 1)  # output = input - stack(input), so the stack sees -grad_out
    grads: list[np.ndarray] = []
    for i in range(len(net.layers) - 1, -1, -1):
        work = cache.layers[i]
        if i < len(net.layers) - 1:  # ReLU: the gradient at exactly 0 is 0; s is the workspace's grad_in
            np.multiply(s, work.pre > 0, out=s)
        s, gk, gb = conv_backward(s, work, input_grad=i > 0)  # nothing reads the input's gradient
        grads += [gb, gk]
    return grads[::-1]
