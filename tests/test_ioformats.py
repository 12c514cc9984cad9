"""Codecs, synthetic corpus, rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import ioformats as io
from gvflow.errors import FormatError, ParameterError


class TestPgm:
    def test_all_zero_binary(self, tmp_path):
        path = tmp_path / "z.pgm"
        io.write_pgm(gv.ScalarField.zeros(gv.GridSpec(3, 3)), path)
        back = io.read_pgm(path)
        assert back.spec.shape == (3, 3)
        assert np.all(back.values == 0)

    def test_round_trip_8bit(self, tmp_path):
        rng = np.random.default_rng(31)
        img = gv.ScalarField.from_array(rng.integers(0, 256, size=(7, 9)).astype(float))
        path = tmp_path / "r.pgm"
        io.write_pgm(img, path)
        assert np.array_equal(io.read_pgm(path).values, img.values)

    def test_round_trip_16bit(self, tmp_path):
        rng = np.random.default_rng(32)
        img = gv.ScalarField.from_array(rng.integers(0, 65536, size=(5, 5)).astype(float))
        path = tmp_path / "r16.pgm"
        io.write_pgm(img, path, maxval=65535)
        assert np.array_equal(io.read_pgm(path).values, img.values)

    def test_ascii_binary_equal(self, tmp_path):
        rng = np.random.default_rng(33)
        img = gv.ScalarField.from_array(rng.integers(0, 256, size=(6, 8)).astype(float))
        p2, p5 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        io.write_pgm(img, p2, binary=False)
        io.write_pgm(img, p5, binary=True)
        assert np.array_equal(io.read_pgm(p2).values, io.read_pgm(p5).values)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n3 3\n# another\n255\n" + b"1 2 3 4 5 6 7 8 9\n")
        assert io.read_pgm(path).values[0, 2] == 3

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="byte offset"):
            io.read_pgm(path)

    def test_p2_sample_beyond_float_range_is_format_error(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P2\n3 3\n255\n1 2 3 4 5 6 7 8 " + b"9" * 400 + b"\n")
        with pytest.raises(FormatError, match="exceeds maxval 255"):
            io.read_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P7\n3 3\n255\n" + b"\x00" * 9)
        with pytest.raises(FormatError):
            io.read_pgm(path)

    @pytest.mark.parametrize("size", [(2, 2), (2, 5), (5, 2), (1, 1)])
    def test_smaller_than_3x3_is_format_error(self, tmp_path, size):
        w, h = size
        path = tmp_path / "s.pgm"
        path.write_bytes(f"P2\n{w} {h}\n255\n".encode() + b"1 " * (w * h) + b"\n")
        with pytest.raises(FormatError, match="at least 3x3"):
            io.read_pgm(path)

    def test_writer_clamps_and_rounds(self, tmp_path):
        img = gv.ScalarField.from_array(np.array([[-5.0, 0.4, 0.6], [300.0, 254.5, 1.0],
                                                  [0.0, 0.0, 0.0]]))
        path = tmp_path / "q.pgm"
        io.write_pgm(img, path)
        vals = io.read_pgm(path).values
        assert vals[0, 0] == 0 and vals[1, 0] == 255
        assert vals[0, 1] == 0 and vals[0, 2] == 1


class TestFieldFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        field = gv.VectorField.from_arrays(
            rng.standard_normal((16, 16)) * 1e3, rng.standard_normal((16, 16)) * 1e-7
        )
        path = tmp_path / "f.gvf"
        io.write_field(field, path)
        back = io.read_field(path)
        assert np.array_equal(back.u.values, field.u.values)
        assert np.array_equal(back.v.values, field.v.values)

    def test_line_count(self, tmp_path):
        field = gv.VectorField.zeros(gv.GridSpec(4, 5))
        path = tmp_path / "z.gvf"
        io.write_field(field, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3 + 4 * 5
        assert lines[0] == "GVF1"

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gvf"
        io.write_field(gv.VectorField.zeros(gv.GridSpec(4, 4)), path)
        path.write_text(path.read_text().replace("GVF1", "GVF2", 1))
        with pytest.raises(FormatError, match="magic"):
            io.read_field(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.gvf"
        io.write_field(gv.VectorField.zeros(gv.GridSpec(4, 4)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError):
            io.read_field(path)

    def test_bytes_match_numpy_scalar_formatting(self, tmp_path):
        # write_field formats Python floats with "%.17g"; the file must be
        # byte-identical to formatting each numpy scalar with f"{x:.17g}"
        values = [-0.0, 5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308,
                  0.1, 2.0, 1 / 3, 1e16, 1e17, 0.0, -2.5e-7]
        u = np.array(values).reshape(3, 4)
        v = -u[::-1, ::-1]
        field = gv.VectorField.from_arrays(u, v)
        path = tmp_path / "f.gvf"
        io.write_field(field, path)
        expected = "GVF1\n4 3\n1 1\n" + "".join(
            f"{a:.17g} {b:.17g}\n" for a, b in zip(u.ravel(), v.ravel()))
        assert path.read_bytes() == expected.encode("ascii")
        back = io.read_field(path)
        assert np.array_equal(back.u.values.view(np.int64), u.view(np.int64))
        assert np.array_equal(back.v.values.view(np.int64), v.view(np.int64))

    @staticmethod
    def _edited(tmp_path, line_no, text):
        path = tmp_path / "e.gvf"
        io.write_field(gv.VectorField.from_arrays(np.ones((4, 5)), np.zeros((4, 5))), path)
        lines = path.read_text().splitlines()
        lines[line_no] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("pair", ["nan 0", "0 inf", "-inf 1"])
    def test_non_finite_value_is_format_error(self, tmp_path, pair):
        with pytest.raises(FormatError, match="non-finite value pair on line 9"):
            io.read_field(self._edited(tmp_path, 8, pair))

    @pytest.mark.parametrize("spacing", ["nan 1", "1 inf", "0 1", "1 -2", "0.5 0.5", "2 1"])
    def test_bad_spacing_is_format_error(self, tmp_path, spacing):
        with pytest.raises(FormatError, match="grid spacing"):
            io.read_field(self._edited(tmp_path, 2, spacing))

    @pytest.mark.parametrize("pair", ["abc 1", "1 0x1p3", "1", "1 2 3", ""])
    def test_bad_value_pair_is_format_error(self, tmp_path, pair):
        with pytest.raises(FormatError, match="bad value pair on line 9"):
            io.read_field(self._edited(tmp_path, 8, pair))

    def test_non_ascii_byte_is_format_error(self, tmp_path):
        path = self._edited(tmp_path, 8, "1 0")
        data = path.read_bytes()
        at = data.index(b"1 0\n", 40)
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
        with pytest.raises(FormatError, match=f"non-ASCII byte in field file \\(byte offset {at}\\)"):
            io.read_field(path)

    def test_components_are_contiguous(self, tmp_path):
        path = tmp_path / "f.gvf"
        io.write_field(gv.VectorField.from_arrays(np.ones((4, 5)), np.zeros((4, 5))), path)
        back = io.read_field(path)
        assert back.u.values.flags.c_contiguous and back.v.values.flags.c_contiguous
        assert np.all(back.u.values == 1) and np.all(back.v.values == 0)

    def test_smaller_than_3x3_is_format_error(self, tmp_path):
        path = tmp_path / "s.gvf"
        path.write_text("GVF1\n2 2\n1 1\n" + "0 0\n" * 4)
        with pytest.raises(FormatError, match="at least 3x3"):
            io.read_field(path)

    def test_writers_deterministic(self, tmp_path):
        rng = np.random.default_rng(41)
        field = gv.VectorField.from_arrays(rng.random((8, 8)), rng.random((8, 8)))
        a, b = tmp_path / "a.gvf", tmp_path / "b.gvf"
        io.write_field(field, a)
        io.write_field(field, b)
        assert a.read_bytes() == b.read_bytes()


class TestContourCsv:
    def test_round_trip(self, tmp_path):
        pts = np.array([[1.25, 3.5], [10.0, 0.125], [7.0, 7.0], [0.0, 1.0]])
        path = tmp_path / "c.csv"
        io.write_contour(pts, path)
        assert np.array_equal(io.read_contour(path), pts)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3;4\n")
        with pytest.raises(FormatError):
            io.read_contour(path)

    def test_non_ascii_byte_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xc3\xa94\n")
        with pytest.raises(FormatError, match=r"non-ASCII byte in contour file \(byte offset 6\)"):
            io.read_contour(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small valid file of each kind the readers take: kind -> (reader, bytes)."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(41)
    img8 = gv.ScalarField.from_array(rng.integers(0, 256, (4, 5)).astype(float))
    img16 = gv.ScalarField.from_array(rng.integers(0, 65536, (4, 5)).astype(float))
    io.write_pgm(img8, d / "p2.pgm", binary=False)
    io.write_pgm(img8, d / "p5.pgm")
    io.write_pgm(img16, d / "p5-16.pgm", maxval=65535)
    io.write_field(gv.VectorField.from_arrays(rng.normal(size=(4, 3)), rng.normal(size=(4, 3))),
                   d / "field.gvf")
    io.write_contour(rng.normal(size=(5, 2)) * 10.0, d / "contour.csv")
    readers = {"p2.pgm": io.read_pgm, "p5.pgm": io.read_pgm, "p5-16.pgm": io.read_pgm,
               "field.gvf": io.read_field, "contour.csv": io.read_contour}
    return d, {name: (reader, (d / name).read_bytes()) for name, reader in readers.items()}


_POSITION = st.integers(0, 2**16)
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(0, 7)),
    st.tuples(st.just("insert"), _POSITION, st.one_of(
        st.binary(min_size=1, max_size=4),
        st.sampled_from([b"9" * 12, b"-", b".", b"nan", b"inf", b"e999", b"#", b",", b"\n",
                         b" ", b"\r", b"\x00", b"\xff"]))),
    st.tuples(st.just("delete"), _POSITION, st.integers(1, 8)),
    st.tuples(st.just("truncate"), _POSITION, st.none()),
)


def _mutate(data: bytes, mutations) -> bytes:
    """data with each (kind, position, argument) mutation applied in turn;
    positions wrap around the current length."""
    for kind, at, arg in mutations:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ (1 << arg)]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        elif kind == "truncate":
            data = data[:at]
    return data


class TestMutatedFiles:
    """Every read of a damaged file either succeeds or raises FormatError."""

    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(["p2.pgm", "p5.pgm", "p5-16.pgm", "field.gvf", "contour.csv"]),
           mutations=st.lists(_MUTATION, min_size=1, max_size=4))
    def test_read_succeeds_or_raises_format_error(self, valid_files, name, mutations):
        d, files = valid_files
        reader, data = files[name]
        path = d / ("mutated-" + name)
        path.write_bytes(_mutate(data, mutations))
        try:
            reader(path)
        except FormatError:
            pass

    @pytest.mark.parametrize("name, message", [
        ("p2.pgm", "truncated raster"), ("p5.pgm", "truncated raster"),
        ("p5-16.pgm", "truncated raster"), ("field.gvf", "expected 10000000000 value lines")])
    def test_huge_dimensions_are_format_error(self, valid_files, name, message):
        # 10**10 float64 samples would take 74.5 GiB: refused before allocating
        d, files = valid_files
        reader, data = files[name]
        lines = data.split(b"\n")
        lines[1] = b"100000 100000"
        path = d / ("huge-" + name)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=message):
            reader(path)


class TestSynthCorpus:
    def test_disk_probe_pixels(self):
        img = io.synth_disk(64, 64, 32, 32, 10)
        assert img.values[32, 32] == 255.0
        assert img.values[1, 1] == 0.0

    def test_disk_area(self):
        img = io.synth_disk(64, 64, 32, 32, 10)
        count = (img.values > 0).sum()
        assert abs(count - math.pi * 100) <= 0.03 * math.pi * 100

    def test_ushape_notch_is_background(self):
        img = io.synth_ushape(128, 128)
        geo = io.ushape_geometry(128, 128)
        nx, ny, nw, nh = geo.notch
        assert img.values[ny + nh // 2, nx + nw // 2] == 0.0
        sx, sy, sw, sh = geo.shape
        assert img.values[sy + sh - 4, sx + sw // 2] == 255.0  # base of the U
        assert img.values[2, 2] == 0.0

    def test_generators_deterministic(self):
        a = io.synth_ushape(64, 64)
        b = io.synth_ushape(64, 64)
        assert np.array_equal(a.values, b.values)

    def test_box_with_hole(self):
        img = io.synth_box_with_hole(64, 64)
        assert (img.values == 0).any() and (img.values == 255).any()
        inner = io.synth_box_with_hole(64, 64, (30, 30, 4, 4))
        assert inner.values[31, 31] == 0.0 and inner.values[20, 20] == 255.0

    @pytest.mark.parametrize("cx, cy, r", [(math.nan, 24, 10), (24, math.nan, 10),
                                          (24, 24, math.nan)])
    def test_disk_geometry_must_be_finite(self, cx, cy, r):
        with pytest.raises(ParameterError, match="disk geometry must be finite"):
            io.synth_disk(48, 48, cx, cy, r)

    def test_shapes_must_fit(self):
        with pytest.raises(ParameterError):
            io.synth_disk(40, 40, 20, 20, 15)
        with pytest.raises(ParameterError):
            io.synth_ushape(24, 24)
        with pytest.raises(ParameterError):
            io.synth_box_with_hole(64, 64, (2, 2, 4, 4))


class TestRender:
    def _read_ppm(self, path):
        data = path.read_bytes()
        assert data.startswith(b"P6\n")
        header, rest = data.split(b"255\n", 1)
        dims = header.split(b"\n")[1].split()
        w, h = int(dims[0]), int(dims[1])
        return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)

    def test_zero_field_magnitude_black(self, tmp_path):
        path = tmp_path / "z.ppm"
        io.render(gv.VectorField.zeros(gv.GridSpec(10, 8)), "magnitude-heatmap", path)
        rgb = self._read_ppm(path)
        assert rgb.shape == (8, 10, 3)
        assert np.all(rgb == 0)

    def test_constant_rightward_single_hue(self, tmp_path):
        spec = gv.GridSpec(9, 9)
        field = gv.VectorField.from_arrays(np.ones(spec.shape), np.zeros(spec.shape))
        path = tmp_path / "h.ppm"
        io.render(field, "direction-hue", path)
        rgb = self._read_ppm(path)
        assert (rgb == rgb[0, 0]).all()

    def test_heatmap_dimensions_match_field(self, tmp_path):
        rng = np.random.default_rng(43)
        field = gv.VectorField.from_arrays(rng.random((12, 20)), rng.random((12, 20)))
        path = tmp_path / "m.ppm"
        io.render(field, "magnitude-heatmap", path)
        assert self._read_ppm(path).shape == (12, 20, 3)

    def test_arrows_and_overlay(self, tmp_path):
        rng = np.random.default_rng(44)
        field = gv.VectorField.from_arrays(rng.random((32, 32)), rng.random((32, 32)))
        path = tmp_path / "a.ppm"
        io.render(field, "arrows", path,
                  snake_points=np.array([[4.0, 4], [20, 4], [20, 20], [4, 20]]))
        rgb = self._read_ppm(path)
        # red polyline present
        assert ((rgb[:, :, 0] == 255) & (rgb[:, :, 1] == 0)).any()

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ParameterError):
            io.render(gv.VectorField.zeros(gv.GridSpec(8, 8)), "contours", tmp_path / "x.ppm")

    def test_render_deterministic(self, tmp_path):
        rng = np.random.default_rng(45)
        field = gv.VectorField.from_arrays(rng.random((16, 16)), rng.random((16, 16)))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        io.render(field, "direction-hue", a)
        io.render(field, "direction-hue", b)
        assert a.read_bytes() == b.read_bytes()
