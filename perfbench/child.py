"""Run one luml1 CLI command in this process, as ``luml1 <args>`` would.

Usage: python3 child.py MARK_JSON MODE CLI_ARGS...

MODE is ``run`` (the command as a user runs it), ``probe`` (stop at the
first unit of work, to time set-up alone) or ``trace:PATH`` (run with the
per-layer tracer and write its metrics to PATH as JSON, also when the
run is stopped by SIGTERM at its time limit).

In ``run`` and ``probe`` mode, the first call into the network or a metric
(``net_forward``, ``conv_forward``, ``psnr`` or ``ssim``, through whichever
luml1 module calls it) ends set-up: its CLOCK_MONOTONIC time goes to
MARK_JSON and every hook is removed again, so the rest of the run executes
the program's own functions unwrapped. MARK_JSON also records the numpy
version and the BLAS library and thread count this process really uses.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
import time

from trace_spans import Tracer, patch_luml1


def blas_facts() -> dict:
    """Name, config and thread count of the OpenBLAS that numpy loaded."""
    import numpy

    facts = {"numpy": numpy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return facts
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                facts["blas"] = f"{os.path.basename(path)} ({get_config().decode()})"
                facts["blas_threads"] = get_threads()
                return facts
    return facts


def write_json(path: str, obj: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def mark_first_work(probe: bool, import_s: float, mark_path: str) -> None:
    """Hook the first unit of work; unhook everything when it arrives."""
    import luml1.metrics
    import luml1.net

    def hook(fn):
        def first_call(*args, **kwargs):
            now = time.monotonic()
            for module, attr, original in hooked:
                setattr(module, attr, original)
            write_json(mark_path, {"first_work": now, "import_s": import_s, **blas_facts()})
            if probe:
                sys.stdout.flush()
                os._exit(0)
            return fn(*args, **kwargs)

        return first_call

    firsts = (luml1.net.net_forward, luml1.net.conv_forward, luml1.metrics.psnr, luml1.metrics.ssim)
    hooked = patch_luml1({fn: hook(fn) for fn in firsts})


def main() -> int:
    mark_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import luml1.cli

    import_s = time.perf_counter() - t0
    if mode.startswith("trace:"):
        spans_path = mode[len("trace:"):]
        tracer = Tracer()
        tracer.install()

        def write_spans():
            write_json(spans_path, {**tracer.metrics(), "cli.import_s": import_s})

        def stopped(signum, frame):
            # stopped at the run's time limit: keep the spans recorded so far
            write_spans()
            os._exit(128 + signum)

        signal.signal(signal.SIGTERM, stopped)
        rc = luml1.cli.main(argv)
        write_spans()
        return rc
    mark_first_work(mode == "probe", import_s, mark_path)
    return luml1.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
