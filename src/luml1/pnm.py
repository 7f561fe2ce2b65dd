"""File I/O: binary PPM (P6, maxval 255), the LUMF1 raw-float format, the
framing reader that checkpoints share, and write_atomic for every output file.

PPM stores 8-bit RGB; bytes map to floats as b/255 on load, and floats are
clamped to [0, 1] and rounded to the nearest byte on save, so load/save
round-trips are bit-exact.

LUMF1 stores float pixels without 8-bit quantization. Layout: the ASCII
magic line ``LUMF1\\n``, an ASCII shape line ``H W C\\n``, then H*W*C
little-endian float32 values in row-major, channel-interleaved order.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import FormatError, InvalidInputError
from .image import check_image

_WHITESPACE = b" \t\r\n"

LUMF_MAGIC = b"LUMF1\n"


def load_image(path) -> np.ndarray:
    """Load a PPM (P6) or LUMF1 file, dispatching on the magic bytes, as a checked image (check_image)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    name = os.fspath(path)
    if buf.startswith(LUMF_MAGIC):
        return _load_lumf(buf, name)
    if buf[:2] == b"P6":
        return _load_ppm(buf, name)
    raise FormatError(f"{name}: unrecognized magic at byte 0 (expected 'P6' or 'LUMF1')")


def image_encoder(path):
    """The encoder of the format that ``path``'s extension names: PPM for .ppm, LUMF1 for .lumf."""
    name = os.fspath(path)
    for ext, encoder in ((".ppm", save_ppm_bytes), (".lumf", save_lumf_bytes)):
        if name.endswith(ext):
            return encoder
    raise InvalidInputError(f"{name}: unsupported image extension (use .ppm or .lumf)")


def save_image(img: np.ndarray, path) -> None:
    """Save an (H, W, C) image in the format of ``path``'s extension (image_encoder), after check_image."""
    write_atomic(path, image_encoder(path)(check_image(img)))


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to a temporary file next to ``path``, then rename it there.

    A write that fails or is killed leaves any earlier file at ``path`` whole.
    A path that exists but is no regular file (a pipe, /dev/stdout) is written in place.
    """
    name = os.fspath(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    if os.path.exists(name) and not os.path.isfile(name):
        with open(name, "wb") as fh:
            fh.write(data)
        return
    tmp = f"{name}.tmp{os.getpid()}.{threading.get_ident()}"  # threads of one process share the pid
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, name)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_ppm_bytes(img: np.ndarray) -> bytes:
    """Encode a checked 3-channel image as binary PPM, clamping to [0, 1] first."""
    h, w, c = img.shape
    if c != 3:
        raise InvalidInputError(f"PPM requires 3 channels, image has {c}")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    quantized = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return header + quantized.tobytes()


def save_lumf_bytes(img: np.ndarray) -> bytes:
    """Encode a checked image as LUMF1; a value beyond float32 range would be stored as an infinity, so it raises instead."""
    if np.abs(img).max() > np.finfo(np.float32).max:
        raise InvalidInputError("a pixel value is beyond the float32 range of LUMF1")
    header = LUMF_MAGIC + b"%d %d %d\n" % img.shape
    return header + img.astype("<f4").tobytes()


def int_line(buf: bytes, pos: int, name: str, what: str) -> tuple[list[int], int, int]:
    """The decimal integers of the ASCII ``what`` line at byte ``pos``: (values, pos, the byte after its newline)."""
    nl = buf.find(b"\n", pos)
    if nl < 0:
        raise FormatError(f"{name}: missing {what} line at byte {pos}")
    tokens = buf[pos:nl].split()
    if not all(t.isdigit() for t in tokens):  # ASCII digits only: int() would also take a sign or an underscore
        raise FormatError(f"{name}: non-integer {what} at byte {pos}")
    return [int(t) for t in tokens], pos, nl + 1


def payload(buf: bytes, pos: int, need: int, name: str, what: str) -> memoryview:
    """The ``what`` that fills ``buf`` from byte ``pos`` to its end, which must be exactly ``need`` bytes."""
    got = len(buf) - pos
    if got < need:
        raise FormatError(f"{name}: truncated {what} at byte {pos}: need {need} bytes, found {got}")
    if got > need:
        raise FormatError(f"{name}: {got - need} unexpected trailing bytes at byte {pos + need}")
    return memoryview(buf)[pos:]


def _next_token(buf: bytes, pos: int, name: str) -> tuple[bytes, int, int]:
    """Skip whitespace and '#' comments; return (token, end, token_start)."""
    while pos < len(buf):
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < len(buf) and buf[pos] != ord("\n"):
                pos += 1
        else:
            break
    if pos >= len(buf):
        raise FormatError(f"{name}: unexpected end of header at byte {pos}")
    start = pos
    while pos < len(buf) and buf[pos] not in _WHITESPACE:
        pos += 1
    return buf[start:pos], pos, start


def _int_token(buf: bytes, pos: int, name: str, what: str) -> tuple[int, int]:
    tok, pos, start = _next_token(buf, pos, name)
    if not tok.isdigit():  # ASCII digits only, as in int_line
        raise FormatError(f"{name}: invalid {what} {tok!r} at byte {start}")
    return int(tok), pos


def _load_ppm(buf: bytes, name: str) -> np.ndarray:
    tok, pos, start = _next_token(buf, 0, name)
    if tok != b"P6":
        raise FormatError(f"{name}: expected magic 'P6' at byte {start}, found {tok!r}")
    width, pos = _int_token(buf, pos, name, "width")
    height, pos = _int_token(buf, pos, name, "height")
    maxval, pos = _int_token(buf, pos, name, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"{name}: zero-sized image in header")
    if maxval != 255:
        raise FormatError(f"{name}: unsupported maxval {maxval} before byte {pos} (only 255)")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise FormatError(f"{name}: expected single whitespace after maxval at byte {pos}")
    raw = np.frombuffer(payload(buf, pos + 1, width * height * 3, name, "pixel data"), dtype=np.uint8)
    img = raw.reshape(height, width, 3) / 255.0
    img.flags.writeable = False  # a read-only float64 array is checked, not copied
    return check_image(img)


def _load_lumf(buf: bytes, name: str) -> np.ndarray:
    shape, start, pos = int_line(buf, len(LUMF_MAGIC), name, "shape")
    if len(shape) != 3 or min(shape) < 1 or shape[2] not in (1, 3):
        raise FormatError(f"{name}: bad shape line {shape} at byte {start} (expected H W C, C 1 or 3)")
    h, w, c = shape
    arr = np.frombuffer(payload(buf, pos, h * w * c * 4, name, "float payload"), dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{name}: non-finite pixel values in payload at byte {pos}")
    arr.flags.writeable = False  # as in _load_ppm: checked, not copied
    return check_image(arr.reshape(h, w, c))
