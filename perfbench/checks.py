"""Independent checkers for the outputs of the luml1 CLI.

Nothing here imports luml1. The checkpoint reader has its own LUMNET1
parser and FNV-1a, the forward pass is a same-padded correlation summed
tap by tap (the program uses an im2col product; the self-test checks this
one against ``scipy.signal.correlate``), and PSNR is recomputed from its
definition, so a fault shared by the program and its own tests cannot
hide here.

Every check raises ``CheckFailed`` with a message naming what was wrong.
"""

from __future__ import annotations

import math
import struct

import numpy as np

LUMNET_MAGIC = b"LUMNET1\n"
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# A CSV cell is rounded to 4 decimals, so it is within 5e-5 of the value.
HALF_ULP_4DP = 0.5e-4
# Clamping only lowers the error, so the noisy-input PSNR of a whole set
# sits at or above 20*log10(255/sigma) up to sampling noise of ~0.01 dB.
NOISY_PSNR_SLACK_DB = 0.1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def read_lumnet(buf: bytes) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """Parse a LUMNET1 checkpoint into [(kernels, bias), ...] and the residual flag."""
    if not buf.startswith(LUMNET_MAGIC):
        raise CheckFailed("checkpoint: bad magic")
    lines = buf[len(LUMNET_MAGIC):].split(b"\n")
    try:
        n_layers, residual = (int(t) for t in lines[0].split())
        shapes = [tuple(int(t) for t in lines[1 + i].split()) for i in range(n_layers)]
    except ValueError as exc:
        raise CheckFailed(f"checkpoint: bad header ({exc})") from None
    header_len = len(LUMNET_MAGIC) + sum(len(ln) + 1 for ln in lines[: 1 + n_layers])
    counts = [o * i * k * k + o for o, i, k in shapes]
    payload = buf[header_len : header_len + 4 * sum(counts)]
    trailer = buf[header_len + len(payload) :]
    if len(payload) != 4 * sum(counts) or len(trailer) != 8:
        raise CheckFailed(f"checkpoint: {len(buf)} bytes do not match its header")
    (stored,) = struct.unpack("<Q", trailer)
    if stored != fnv1a64(payload):
        raise CheckFailed("checkpoint: FNV-1a checksum mismatch")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    layers, off = [], 0
    for (o, i, k), count in zip(shapes, counts):
        chunk = values[off : off + count]
        layers.append((chunk[: o * i * k * k].reshape(o, i, k, k), chunk[o * i * k * k :]))
        off += count
    return layers, bool(residual)


def correlate_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Zero same-padded cross-correlation of (C, H, W) with (O, C, k, k)."""
    _, h, w = x.shape
    k = kernels.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.zeros((kernels.shape[0], h, w))
    for dy in range(k):
        for dx in range(k):
            out += np.tensordot(kernels[:, :, dy, dx], xp[:, dy : dy + h, dx : dx + w], axes=(1, 0))
    return out


def forward(layers, residual: bool, image: np.ndarray) -> np.ndarray:
    """Conv/ReLU stack on one (H, W, 3) image, output clamped to [0, 1]."""
    x = image.transpose(2, 0, 1)
    t = x
    for n, (kernels, bias) in enumerate(layers):
        t = correlate_same(t, kernels) + bias[:, None, None]
        if n < len(layers) - 1:
            t = np.maximum(t, 0.0)
    out = x - t if residual else t
    return np.clip(out.transpose(1, 2, 0), 0.0, 1.0)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((a - b) ** 2)))


def mean_psnr_pair(layers, residual, noisy: list, clean: list) -> tuple[float, float]:
    """Mean PSNR of the denoised and of the clamped noisy images against clean."""
    den = [psnr(forward(layers, residual, n), c) for n, c in zip(noisy, clean)]
    raw = [psnr(np.clip(n, 0.0, 1.0), c) for n, c in zip(noisy, clean)]
    return float(np.mean(den)), float(np.mean(raw))


# ---------------------------------------------------------------------------
# bench CSV


def parse_csv(text: str) -> dict:
    """Split a bench CSV into noisy baselines, header, per-sigma rows and the mean row."""
    noisy, header, rows, mean = {}, None, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# noisy_baseline "):
                kv = dict(tok.split("=", 1) for tok in line.split()[2:])
                noisy[float(kv["sigma"])] = (float(kv["psnr"]), float(kv["ssim"]))
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        elif cells[0] == "mean":
            if mean is not None:
                raise CheckFailed("csv: two mean rows")
            mean = [float(c) for c in cells[1:]]
        else:
            if mean is not None:
                raise CheckFailed("csv: a row follows the mean row")
            rows.append((float(cells[0]), [float(c) for c in cells[1:]]))
    if header is None or mean is None:
        raise CheckFailed("csv: missing header or mean row")
    return {"noisy": noisy, "header": header, "rows": rows, "mean": mean}


def expected_header(cells: list[tuple[str, str]]) -> list[str]:
    """Columns for cells [(loss label, sigma_max token), ...] in plan order."""
    head = ["sigma"]
    for label, sm in cells:
        head += [f"{label}_{sm}_psnr", f"{label}_{sm}_ssim"]
    base = cells[0][0]
    for label, sm in cells:
        if label != base:
            head += [f"delta-{label}_{sm}_psnr", f"delta-{label}_{sm}_ssim"]
    return head


def check_csv_structure(text: str, sigmas: list[float], cells: list[tuple[str, str]]) -> dict:
    """Rows per sigma, a mean row that is the mean of the rows, deltas equal to cell differences."""
    t = parse_csv(text)
    if t["header"] != expected_header(cells):
        raise CheckFailed(f"csv: header {t['header']} != {expected_header(cells)}")
    if [s for s, _ in t["rows"]] != sigmas:
        raise CheckFailed(f"csv: rows are for sigmas {[s for s, _ in t['rows']]}, not {sigmas}")
    if sorted(t["noisy"]) != sigmas:
        raise CheckFailed("csv: noisy baseline comments do not cover every sigma")
    width = len(t["header"]) - 1
    if any(len(v) != width for _, v in t["rows"]) or len(t["mean"]) != width:
        raise CheckFailed("csv: a row has the wrong number of cells")
    col = {name: i for i, name in enumerate(t["header"][1:])}
    base = cells[0][0]
    for name, i in col.items():
        if name.startswith("delta-"):
            label_sm, metric = name[len("delta-"):].rsplit("_", 1)
            sm = label_sm.rsplit("_", 1)[1]
            a, b = col[f"{label_sm}_{metric}"], col[f"{base}_{sm}_{metric}"]
            for sigma, v in t["rows"] + [("mean", t["mean"])]:
                # three roundings to 4 decimals: the delta and its two cells
                if abs(v[i] - (v[a] - v[b])) > 3 * HALF_ULP_4DP + 1e-9:
                    raise CheckFailed(f"csv: {name} at sigma={sigma} is not the difference of its cells")
        mean = float(np.mean([v[i] for _, v in t["rows"]]))
        if abs(t["mean"][i] - mean) > 2 * HALF_ULP_4DP + 1e-9:
            raise CheckFailed(f"csv: mean of {name} is {t['mean'][i]}, rows give {mean:.6f}")
    return t


def check_csv_quality(t: dict, margin_db: float) -> None:
    """Properties of a trained denoiser: monotone PSNR, sane baselines, beats noise at sigma 15."""
    col = {name: i for i, name in enumerate(t["header"][1:])}
    for sigma, (p, s) in t["noisy"].items():
        if p < 20.0 * math.log10(255.0 / sigma) - NOISY_PSNR_SLACK_DB:
            raise CheckFailed(f"csv: noisy-input psnr {p} at sigma={sigma} is below 20*log10(255/sigma)")
        if not 0.0 < s <= 1.0:
            raise CheckFailed(f"csv: noisy-input ssim {s} at sigma={sigma} out of (0, 1]")
    for name, i in col.items():
        if name.startswith("delta-"):
            continue
        values = [v[i] for _, v in t["rows"]]
        if name.endswith("_psnr"):
            if any(b > a for a, b in zip(values, values[1:])):
                raise CheckFailed(f"csv: {name} rises with sigma: {values}")
            at15 = dict(zip([s for s, _ in t["rows"]], values))[15.0]
            if not at15 - t["noisy"][15.0][0] > margin_db:
                raise CheckFailed(
                    f"csv: {name} at sigma=15 is {at15}, not {margin_db} dB above noisy {t['noisy'][15.0][0]}"
                )
        elif any(not -1.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"csv: {name} out of [-1, 1]")


# ---------------------------------------------------------------------------
# training log


def check_train_log(text: str, steps: int) -> np.ndarray:
    """One row per configured step with a finite, nonnegative loss; returns the losses."""
    lines = text.splitlines()
    if not lines or lines[0].split(",")[:3] != ["step", "loss", "ms"]:
        raise CheckFailed("train log: bad header")
    rows = [ln.split(",") for ln in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(1, steps + 1)):
        raise CheckFailed(f"train log: {len(rows)} rows for {steps} configured steps")
    losses = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(losses)) or np.any(losses < 0):
        raise CheckFailed("train log: a loss is negative or not finite")
    return losses


def check_loss_falls(losses: np.ndarray) -> None:
    """The mean loss of the last tenth of the steps is below that of the first tenth."""
    k = max(1, len(losses) // 10)
    if not losses[-k:].mean() < losses[:k].mean():
        raise CheckFailed(
            f"train log: loss did not fall ({losses[:k].mean():.6f} -> {losses[-k:].mean():.6f})"
        )
