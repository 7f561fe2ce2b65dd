"""Checkpoint files for TinyNet parameters.

Layout:

* magic line ``LUMNET1\\n``
* ASCII line ``<n_layers> 1\\n``; the 1 flags the residual network, the only kind
* one ASCII line ``<out_ch> <in_ch> <k>\\n`` per layer
* payload: the net's parameter vector ``theta`` (per layer, kernels then
  bias, C order) as little-endian float32
* trailer: 8-byte little-endian FNV-1a-64 checksum of the payload

The checksum guards against corrupted or truncated parameter data; loading
verifies it before any parameter is used.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CorruptCheckpointError, FormatError, InvalidInputError
from .fnv import fnv1a64
from .net import ConvLayer, TinyNet
from .pnm import int_line, payload, write_atomic

MAGIC = b"LUMNET1\n"


def checkpoint_bytes(net: TinyNet) -> bytes:
    header = MAGIC + f"{len(net.layers)} 1\n".encode("ascii")
    for layer in net.layers:
        header += f"{layer.out_ch} {layer.in_ch} {layer.k}\n".encode("ascii")
    payload = net.theta.astype("<f4").tobytes()
    return header + payload + struct.pack("<Q", fnv1a64(payload))


def save_checkpoint(net: TinyNet, path) -> None:
    write_atomic(path, checkpoint_bytes(net))


def load_checkpoint(path) -> TinyNet:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read(), str(path))


def parse_checkpoint(buf: bytes, name: str) -> TinyNet:
    """The net that checkpoint bytes hold; ``name`` starts each error message."""
    if not buf.startswith(MAGIC):
        raise FormatError(f"{name}: bad magic at byte 0 (expected LUMNET1)")
    head, start, pos = int_line(buf, len(MAGIC), name, "layer-count")
    if len(head) != 2 or head[0] < 1 or head[1] != 1:
        raise FormatError(f"{name}: bad layer-count line at byte {start} (expected <n_layers> 1)")
    shapes = []
    for _ in range(head[0]):
        dims, start, pos = int_line(buf, pos, name, "layer-shape")
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise FormatError(f"{name}: bad layer-shape line at byte {start}")
        shapes.append(tuple(dims))
    counts = [o * i * k * k + o for o, i, k in shapes]
    need = 4 * sum(counts)
    body = payload(buf, pos, need + 8, name, "payload+checksum")
    (stored,) = struct.unpack("<Q", body[need:])
    computed = fnv1a64(body[:need])
    if stored != computed:
        raise CorruptCheckpointError(
            f"{name}: checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )
    theta = np.frombuffer(body[:need], dtype="<f4").astype(np.float32)  # the net a checkpoint holds: float32, as trained
    layers, off = [], 0
    try:  # a file with a valid checksum can still hold a net that cannot exist
        for (o, i, k), count in zip(shapes, counts):
            vals, off = theta[off : off + count], off + count
            layers.append(ConvLayer(vals[: o * i * k * k].reshape(o, i, k, k), vals[o * i * k * k :]))
        return TinyNet(layers)
    except InvalidInputError as exc:
        raise FormatError(f"{name}: {exc}") from None
