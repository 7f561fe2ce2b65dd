"""Independent reference implementations used only as test oracles.

Everything here is written in the most literal style possible (explicit
loops, no vectorization) so it shares no code path with the package. The
one exception is the blind patch stream's oracle: the stream is defined by
its per-patch draws, spelled out here, and rng.normal, which it calls. The bench CSV
reader the tests use lives here too: no program path reads a CSV.
"""

import numpy as np

from luml1.metrics import SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WINDOW
from luml1.rng import DOMAIN_BATCH, normal, stream


def loop_conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero same-padded cross-correlation via explicit nested loops."""
    cin, h, w = x.shape
    cout, cin2, k, _ = kernels.shape
    assert cin == cin2
    p = k // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = bias[o]
                for i in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            yy = y + dy - p
                            xw = xx + dx - p
                            if 0 <= yy < h and 0 <= xw < w:
                                acc += kernels[o, i, dy, dx] * x[i, yy, xw]
                out[o, y, xx] = acc
    return out


def loop_conv2d_input_grad(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient of loop_conv2d's output with respect to its input: each output
    gradient scattered back through every tap that read an input pixel."""
    cout, h, w = grad_out.shape
    cout2, cin, k, _ = kernels.shape
    assert cout == cout2
    p = k // 2
    gx = np.zeros((cin, h, w))
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                for i in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            yy = y + dy - p
                            xw = xx + dx - p
                            if 0 <= yy < h and 0 <= xw < w:
                                gx[i, yy, xw] += kernels[o, i, dy, dx] * grad_out[o, y, xx]
    return gx


def loop_conv2d_kernel_grad(x: np.ndarray, grad_out: np.ndarray, k: int) -> np.ndarray:
    """Gradient of loop_conv2d's output with respect to its kernels: each tap's
    input pixel times the output gradient it fed, summed over the output."""
    cin, h, w = x.shape
    cout = grad_out.shape[0]
    p = k // 2
    gk = np.zeros((cout, cin, k, k))
    for o in range(cout):
        for i in range(cin):
            for dy in range(k):
                for dx in range(k):
                    for y in range(h):
                        for xx in range(w):
                            yy = y + dy - p
                            xw = xx + dx - p
                            if 0 <= yy < h and 0 <= xw < w:
                                gk[o, i, dy, dx] += x[i, yy, xw] * grad_out[o, y, xx]
    return gk


def straight_line_net_grads(net, img_data: np.ndarray, grad_out: np.ndarray) -> list:
    """Parameter gradients of straight_line_net for one (H, W, 3) image, in
    TinyNet.parameters() order, by backpropagation through the loop convs."""
    inputs, pres = [], []
    t = img_data.transpose(2, 0, 1)
    for layer in net.layers:
        inputs.append(t)
        pres.append(loop_conv2d(t, layer.kernels, layer.bias))
        t = np.maximum(pres[-1], 0.0)
    g = -grad_out.transpose(2, 0, 1)
    grads = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if i < len(net.layers) - 1:
            g = np.where(pres[i] > 0, g, 0.0)
        gb = np.array([sum(float(v) for v in g[o].ravel()) for o in range(layer.out_ch)])
        grads = [loop_conv2d_kernel_grad(inputs[i], g, layer.k), gb] + grads
        g = loop_conv2d_input_grad(g, layer.kernels)
    return grads


def straight_line_net(net, img_data: np.ndarray) -> np.ndarray:
    """Re-implementation of the denoiser stack on top of loop_conv2d."""
    x = img_data.transpose(2, 0, 1)
    t = x
    n = len(net.layers)
    for i, layer in enumerate(net.layers):
        t = loop_conv2d(t, layer.kernels, layer.bias)
        if i < n - 1:
            t = np.maximum(t, 0.0)
    out = x - t
    return out.transpose(1, 2, 0)


def ssim_bruteforce(x: np.ndarray, y: np.ndarray) -> float:
    """Windowed SSIM of two 2-D arrays with explicit per-window loops and textbook statistics.

    Only the package's SSIM constants are shared; the window and the
    statistics are computed here.
    """
    n = SSIM_WINDOW
    offs = np.arange(n) - (n - 1) / 2.0
    g = np.exp(-(offs**2) / (2.0 * SSIM_SIGMA**2))
    win = np.outer(g, g)
    win = win / win.sum()
    c1, c2 = SSIM_C1, SSIM_C2
    h, w = x.shape
    scores = []
    for i in range(h - n + 1):
        for j in range(w - n + 1):
            wx = x[i : i + n, j : j + n]
            wy = y[i : i + n, j : j + n]
            mux = float((win * wx).sum())
            muy = float((win * wy).sum())
            vx = float((win * (wx - mux) ** 2).sum())
            vy = float((win * (wy - muy) ** 2).sum())
            cov = float((win * (wx - mux) * (wy - muy)).sum())
            scores.append(
                ((2 * mux * muy + c1) * (2 * cov + c2))
                / ((mux**2 + muy**2 + c1) * (vx + vy + c2))
            )
    return float(np.mean(scores))


def ks_statistic_uniform(samples, hi: float) -> float:
    """Kolmogorov-Smirnov distance of samples from U(0, hi)."""
    u = np.sort(np.asarray(samples, dtype=float) / hi)
    n = len(u)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))


def patch_draw(rng, n: int, h: int, w: int, p: int, sigma_max_255: float) -> tuple[int, int, int, float]:
    """One (image index, y0, x0, sigma_255) draw of the blind patch stream over n images of h x w, in its order."""
    idx = int(rng.integers(0, n))
    y0 = int(rng.integers(0, h - p + 1))
    x0 = int(rng.integers(0, w - p + 1))
    return idx, y0, x0, float(rng.uniform(0.0, sigma_max_255))


def patch_by_patch_stream(clean: np.ndarray, sigma_max_255: float, patch_size: int, count: int, seed: int) -> list:
    """The first ``count`` (noisy, clean) patch pairs of the blind stream over the (N, H, W, 3) block ``clean``, one
    patch at a time.

    Each patch draws its crop and sigma, then its noise through one
    rng.normal call on the same generator: the stream's definition, which
    make_blind_batches computes a batch at a time.
    """
    rng = stream(seed, DOMAIN_BATCH)
    n, h, w = clean.shape[:3]
    p = patch_size
    pairs = []
    for _ in range(count):
        idx, y0, x0, sigma = patch_draw(rng, n, h, w, p, sigma_max_255)
        patch = clean[idx, y0 : y0 + p, x0 : x0 + p]
        pairs.append((patch + normal(rng, patch.shape, sigma / 255.0), patch))
    return pairs


def parse_report_csv(text: str) -> dict:
    """Parse a bench report CSV back into its values.

    Returns a dict with ``columns`` (header names after ``sigma``), ``rows``
    mapping sigma -> list of floats, ``mean`` (list of floats), and
    ``noisy`` mapping sigma -> (psnr, ssim) from the baseline comments.
    """
    noisy, rows, header, mean = {}, {}, None, None
    for line in text.splitlines():
        if line.startswith("#"):
            if "noisy_baseline" in line:
                parts = dict(p.split("=") for p in line.split() if "=" in p)
                noisy[float(parts["sigma"])] = (float(parts["psnr"]), float(parts["ssim"]))
            continue
        if not line.strip():
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if cells[0] == "mean":
            mean = [float(c) for c in cells[1:]]
        else:
            rows[float(cells[0])] = [float(c) for c in cells[1:]]
    assert header is not None, "CSV has no header row"
    return {"columns": header[1:], "rows": rows, "mean": mean, "noisy": noisy}
