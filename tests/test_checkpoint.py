import os
import struct
import threading

import numpy as np
import pytest

from luml1.checkpoint import (
    MAGIC,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from luml1.cli import main
from luml1.errors import CorruptCheckpointError, FormatError
from luml1.fnv import fnv1a64
from luml1.net import build_tinynet, net_forward
from luml1.pnm import save_image, write_atomic

from conftest import rand_image


class TestFnv:
    def test_known_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


class TestCheckpointRoundTrip:
    def test_parameters_survive_at_float32_precision(self, tmp_path):
        net = build_tinynet(50, hidden_channels=5, hidden_depth=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert len(loaded.layers) == len(net.layers)
        for a, b in zip(loaded.layers, net.layers):
            assert np.array_equal(a.kernels, b.kernels.astype("<f4").astype(np.float64))
            assert np.array_equal(a.bias, b.bias.astype("<f4").astype(np.float64))

    def test_payload_is_theta_in_little_endian_float32(self):
        net = build_tinynet(56, hidden_channels=5, hidden_depth=1)
        blob = checkpoint_bytes(net)
        payload = net.theta.astype("<f4").tobytes()
        assert blob.endswith(payload + struct.pack("<Q", fnv1a64(payload)))
        assert blob[: -len(payload) - 8] == MAGIC + b"3 1\n5 3 3\n5 5 3\n3 5 3\n"

    def test_same_net_same_bytes(self):
        a = build_tinynet(51, 16, 3)
        b = build_tinynet(51, 16, 3)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)

    def test_non_residual_flag_rejected(self, tmp_path, capsys):
        net = build_tinynet(52, hidden_channels=4, hidden_depth=0)
        blob = checkpoint_bytes(net)
        assert blob.startswith(b"LUMNET1\n2 1\n")  # the writer flags every net residual
        path = tmp_path / "net.ckpt"
        path.write_bytes(blob.replace(b"LUMNET1\n2 1\n", b"LUMNET1\n2 0\n", 1))
        with pytest.raises(FormatError, match="layer-count line"):
            load_checkpoint(path)
        src = tmp_path / "in.lumf"
        save_image(rand_image(2, 8, 8), src)
        out = tmp_path / "out.ppm"
        assert main(["denoise", "--ckpt", str(path), "--in", str(src), "--out", str(out)]) == 3
        assert not out.exists()

    def test_loaded_net_runs(self, tmp_path):
        net = build_tinynet(53, hidden_channels=4, hidden_depth=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        out, _ = net_forward(load_checkpoint(path), rand_image(1, 8, 8).data[None])
        assert out.shape == (1, 8, 8, 3)


class TestCheckpointCorruption:
    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        net = build_tinynet(54, hidden_channels=4, hidden_depth=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2  # well inside the kernel payload
        raw[mid] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        net = build_tinynet(55, hidden_channels=4, hidden_depth=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"NOTANET\n1 1\n3 3 3\n" + bytes(100))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "shapes,fill,message",
        [
            ([(16, 3, 3), (3, 8, 3)], 0.0, "16 -> 8"),
            ([(3, 3, 2)], 0.0, "kernel size must be odd"),
            ([(3, 3, 3)], np.inf, "finite"),
        ],
        ids=["unchained", "even-kernel", "inf-parameter"],
    )
    def test_impossible_net_with_valid_checksum_exits_3_naming_the_file(
        self, tmp_path, capsys, shapes, fill, message
    ):
        lines = [f"{len(shapes)} 1"] + [f"{o} {i} {k}" for o, i, k in shapes]
        header = MAGIC + "".join(f"{line}\n" for line in lines).encode()
        payload = np.full(sum(o * i * k * k + o for o, i, k in shapes), fill, dtype="<f4").tobytes()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + payload + struct.pack("<Q", fnv1a64(payload)))
        with pytest.raises(FormatError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        src = tmp_path / "in.lumf"
        save_image(rand_image(3, 8, 8), src)
        out = tmp_path / "out.ppm"
        assert main(["denoise", "--ckpt", str(path), "--in", str(src), "--out", str(out)]) == 3
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_stored_checksum_matches_recomputation(self, tmp_path):
        net = build_tinynet(56, hidden_channels=4, hidden_depth=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        load_checkpoint(path)  # must not raise
        blob = path.read_bytes()
        payload = blob[_payload_start(blob) : -8]
        (stored,) = struct.unpack("<Q", blob[-8:])  # the trailer: little-endian FNV-1a-64 of the payload
        assert stored == fnv1a64(payload)


def _payload_start(blob: bytes) -> int:
    pos = len(b"LUMNET1\n")
    nl = blob.index(b"\n", pos)
    n_layers = int(blob[pos:nl].split()[0])
    pos = nl + 1
    for _ in range(n_layers):
        pos = blob.index(b"\n", pos) + 1
    return pos


class TestAtomicWrites:
    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        import luml1.checkpoint as ckpt_mod

        path = tmp_path / "net.ckpt"
        save_checkpoint(build_tinynet(60, hidden_channels=4, hidden_depth=0), path)
        before = path.read_bytes()

        def failing(net):
            raise MemoryError("simulated failure while encoding")

        monkeypatch.setattr(ckpt_mod, "checkpoint_bytes", failing)
        with pytest.raises(MemoryError):
            save_checkpoint(build_tinynet(61, hidden_channels=4, hidden_depth=0), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_write_failing_after_open_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "table.csv"
        write_atomic(path, "a,b\n1,2\n")
        with pytest.raises(TypeError):
            write_atomic(path, 12345)  # the temporary file is open when write() rejects this
        assert path.read_text() == "a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_text_is_written_as_utf8_and_replaces_the_file(self, tmp_path):
        path = tmp_path / "log.csv"
        write_atomic(path, b"old contents that are longer")
        write_atomic(path, "step,\u03bb\n")
        assert path.read_bytes() == "step,\u03bb\n".encode("utf-8")

    def test_threads_writing_one_path_use_their_own_temporary_files(self, tmp_path, monkeypatch):
        # both temporary files are written before either is renamed, the interleaving a shared name breaks
        path = tmp_path / "table.csv"
        payloads = [bytes([65 + i]) * (1 << 20) for i in range(2)]
        both_written = threading.Barrier(2, timeout=10)
        sources, errors = [], []
        replace = os.replace

        def replace_after_both(src, dst):
            sources.append(src)
            both_written.wait()
            replace(src, dst)

        def write(payload):
            try:
                write_atomic(path, payload)
            except BaseException as exc:
                errors.append(exc)

        monkeypatch.setattr(os, "replace", replace_after_both)
        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and len(set(sources)) == 2
        assert path.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_non_regular_file_is_written_in_place(self):
        write_atomic(os.devnull, b"discarded")
        assert not os.path.isfile(os.devnull)
