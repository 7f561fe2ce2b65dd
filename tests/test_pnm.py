import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luml1.checkpoint import checkpoint_bytes, load_checkpoint
from luml1.errors import FormatError, InvalidInputError
from luml1.net import build_tinynet
from luml1.pnm import load_image, save_image, save_lumf_bytes, save_ppm_bytes

from conftest import rand_array


def write(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def canonical_p6(h, w, pixels: np.ndarray) -> bytes:
    return f"P6\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes()


class TestPpmLoad:
    def test_byte_255_maps_to_one(self, tmp_path):
        img = load_image(write(tmp_path, "a.ppm", canonical_p6(1, 1, np.array([255, 255, 255]))))
        assert np.all(img == 1.0)

    def test_byte_128_maps_to_128_over_255(self, tmp_path):
        img = load_image(write(tmp_path, "a.ppm", canonical_p6(1, 1, np.array([128, 0, 0]))))
        assert img[0, 0, 0] == 128 / 255

    def test_header_comments_and_whitespace(self, tmp_path):
        raw = b"P6 # a comment\n# another\n 2\t1 \n255\n" + bytes(6)
        img = load_image(write(tmp_path, "a.ppm", raw))
        assert img.shape == (1, 2, 3)

    def test_bad_magic_names_offset(self, tmp_path):
        with pytest.raises(FormatError, match="byte 0"):
            load_image(write(tmp_path, "a.ppm", b"P5\n1 1\n255\n\x00"))

    def test_unsupported_maxval(self, tmp_path):
        with pytest.raises(FormatError, match="maxval 65535"):
            load_image(write(tmp_path, "a.ppm", b"P6\n1 1\n65535\n" + bytes(6)))

    def test_truncated_payload_names_offset(self, tmp_path):
        # header "P6\n2 2\n255\n" is 11 bytes, so the payload starts at 11
        with pytest.raises(FormatError, match="truncated pixel data at byte 11"):
            load_image(write(tmp_path, "a.ppm", b"P6\n2 2\n255\n" + bytes(5)))

    def test_trailing_garbage_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="trailing"):
            load_image(write(tmp_path, "a.ppm", canonical_p6(1, 1, np.zeros(3)) + b"x"))

    def test_non_integer_header(self, tmp_path):
        with pytest.raises(FormatError, match="invalid width"):
            load_image(write(tmp_path, "a.ppm", b"P6\nxx 1\n255\n" + bytes(3)))


class TestPpmRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_save_load_save_is_bit_exact(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("ppm")
        rng = np.random.Generator(np.random.Philox(seed))
        pixels = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        first = canonical_p6(5, 4, pixels)
        path = write(tmp, "x.ppm", first)
        again = save_ppm_bytes(load_image(path))
        assert again == first

    def test_save_quantizes_and_clamps(self, tmp_path):
        img = np.array([[[1.4, -0.3, 0.5]]])
        path = tmp_path / "c.ppm"
        save_image(img, path)
        back = load_image(path)
        assert back[0, 0, 0] == 1.0
        assert back[0, 0, 1] == 0.0
        assert back[0, 0, 2] == 128 / 255  # 0.5*255 = 127.5 rounds half-to-even

    def test_grayscale_to_ppm_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            save_image(rand_array(1, c=1), tmp_path / "g.ppm")


class TestLumf:
    def test_round_trip_preserves_float32_bits(self, tmp_path):
        img = rand_array(17, 6, 5)
        path = tmp_path / "x.lumf"
        save_image(img, path)
        back = load_image(path)
        assert np.array_equal(back, img.astype("<f4").astype(np.float64))

    def test_round_trip_is_stable(self, tmp_path):
        img = rand_array(18, 4, 4, c=1)
        first = save_lumf_bytes(img)
        path = write(tmp_path, "x.lumf", first)
        assert save_lumf_bytes(load_image(path)) == first

    def test_values_outside_unit_range_survive(self, tmp_path):
        img = np.array([[[-1.5, 0.25, 3.0]]])
        path = tmp_path / "x.lumf"
        save_image(img, path)
        assert np.allclose(load_image(path), img)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_value_beyond_float32_range_rejected(self, value):
        # cast to float32 it would be an infinity, which no LUMF1 reader accepts
        with pytest.raises(InvalidInputError, match="float32 range"):
            save_lumf_bytes(np.array([[[0.5, value, 0.5]]]))
        f32_max = float(np.finfo(np.float32).max)
        save_lumf_bytes(np.array([[[0.5, f32_max, -f32_max]]]))  # the range's own ends are stored

    def test_truncated_payload(self, tmp_path):
        good = save_lumf_bytes(rand_array(19, 4, 4))
        with pytest.raises(FormatError, match="truncated float payload"):
            load_image(write(tmp_path, "x.lumf", good[:-4]))

    def test_bad_shape_line(self, tmp_path):
        with pytest.raises(FormatError, match="shape"):
            load_image(write(tmp_path, "x.lumf", b"LUMF1\n4 4\n" + bytes(64)))


def _framed(fmt):
    """(file bytes, byte where the payload starts, loader, suffix) of a valid file of each format."""
    if fmt == "LUMNET1":
        net = build_tinynet(3, hidden_channels=4, hidden_depth=0)
        data = checkpoint_bytes(net)
        return data, len(data) - 4 * net.theta.size - 8, load_checkpoint, "ckpt"
    img = rand_array(7, 3, 5)
    if fmt == "PPM":
        return save_ppm_bytes(img), len(b"P6\n5 3\n255\n"), load_image, "ppm"
    return save_lumf_bytes(img), len(b"LUMF1\n3 5 3\n"), load_image, "lumf"


class TestFraming:
    @pytest.mark.parametrize("fmt", ["PPM", "LUMF1", "LUMNET1"])
    def test_truncated_payload_names_file_and_offset(self, tmp_path, fmt):
        data, start, load, suffix = _framed(fmt)
        path = write(tmp_path, f"a.{suffix}", data[:-3])
        with pytest.raises(FormatError, match=f"truncated .* at byte {start}: need {len(data) - start} bytes") as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("fmt", ["PPM", "LUMF1", "LUMNET1"])
    def test_trailing_bytes_name_file_and_offset(self, tmp_path, fmt):
        data, _, load, suffix = _framed(fmt)
        path = write(tmp_path, f"a.{suffix}", data + b"xy")
        with pytest.raises(FormatError, match=f"2 unexpected trailing bytes at byte {len(data)}$") as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")

    # (a header line of each format's valid file, that line with a sign and an underscore, which int() reads)
    SIGNED = {"PPM": (b"5 3\n", b"+5 0_3\n"), "LUMF1": (b"3 5 3\n", b"0_3 +5 3\n"), "LUMNET1": (b"2 1\n", b"+2 0_1\n")}

    @pytest.mark.parametrize("fmt", ["PPM", "LUMF1", "LUMNET1"])
    def test_header_integer_with_a_sign_or_underscore_rejected(self, tmp_path, fmt):
        data, _, load, suffix = _framed(fmt)
        line, signed = self.SIGNED[fmt]
        path = write(tmp_path, f"a.{suffix}", data.replace(line, signed, 1))
        with pytest.raises(FormatError, match=f"at byte {data.index(line)}") as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")

class TestDispatch:
    def test_unknown_magic(self, tmp_path):
        with pytest.raises(FormatError, match="unrecognized magic"):
            load_image(write(tmp_path, "x.ppm", b"GIF89a..."))

    def test_unknown_extension_on_save(self, tmp_path):
        with pytest.raises(InvalidInputError, match="extension"):
            save_image(rand_array(1), tmp_path / "x.png")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "missing.ppm")
