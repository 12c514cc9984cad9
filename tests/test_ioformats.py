"""Codecs, synthetic corpus, rendering."""

import math
import os
import re
import threading
import time
import tracemalloc
import warnings
from itertools import chain, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import ioformats as io
from gvflow.errors import FormatError, ParameterError
from test_solver import traced_peak


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

    @pytest.mark.parametrize("maxval", [200.5, 255.0, True, 0, -1, 65536, "255", None])
    def test_maxval_must_be_an_integer_in_range(self, tmp_path, maxval):
        # 200.5 used to be written into a header that read_pgm refuses
        path = tmp_path / "m.pgm"
        with pytest.raises(ParameterError, match=r"maxval must be an integer in 1 \.\.\. 65535"):
            io.write_pgm(gv.ScalarField.zeros(gv.GridSpec(4, 4)), path, maxval=maxval)
        assert not path.exists()

    def test_numpy_integer_maxval_is_accepted(self, tmp_path):
        path = tmp_path / "m.pgm"
        io.write_pgm(gv.ScalarField.zeros(gv.GridSpec(4, 4)), path, maxval=np.int64(200))
        assert path.read_bytes().startswith(b"P5\n4 4\n200\n")

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
        data = b"P2\n3 3\n255\n1 2 3 4 5 6 7 8 " + b"9" * 400 + b"\n"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="exceeds maxval 255") as err:
            io.read_pgm(path)
        # the offset is the end of the sample's token
        assert err.value.offset == data.index(b"9" * 400) + 400

    @pytest.mark.parametrize("kind", ["P2", "P5", "P5-16"])
    def test_sample_above_maxval_is_reported_at_the_sample(self, tmp_path, kind):
        # samples 4 and 7 (0-based) exceed the header's maxval; the first
        # one is named: at the end of its token in P2, at its first byte in P5
        maxval = {"P2": 200, "P5": 200, "P5-16": 40000}[kind]
        samples = [7, 0, 150, maxval, maxval + 1, 3, 9, 60000 if kind != "P5" else 255, 1]
        header = f"{kind[:2]}\n# c\n3 3\n{maxval}\n".encode()
        if kind == "P2":
            data = header + b" ".join(b"%d" % s for s in samples) + b"\n"
            offset = data.index(b" %d " % (maxval + 1)) + 1 + len(b"%d" % (maxval + 1))
        else:
            data = header + np.array(samples, ">u2" if kind == "P5-16" else np.uint8).tobytes()
            offset = len(header) + 4 * (2 if kind == "P5-16" else 1)
        path = tmp_path / "over.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"sample exceeds maxval {maxval} "
                                              rf"\(byte offset {offset}\)") as err:
            io.read_pgm(path)
        assert err.value.offset == offset

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(3, 6), height=st.integers(3, 6),
           maxval=st.sampled_from([255, 65535]))
    def test_p2_with_any_whitespace_and_comments_reads_as_its_p5(self, tmp_path_factory, data,
                                                                 width, height, maxval):
        # a separator: runs of ASCII whitespace and "#" comments to the end of a line
        space = st.text(" \t\r\n\v\f", min_size=1, max_size=3).map(str.encode)
        comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
        gap = st.lists(st.one_of(space, comment), min_size=1, max_size=3).map(b"".join)
        values = data.draw(st.lists(st.integers(0, maxval), min_size=width * height,
                                    max_size=width * height))
        tokens = [b"P2", b"%d" % width, b"%d" % height, b"%d" % maxval]
        text = data.draw(gap | st.just(b""))
        for token in tokens + [b"%d" % v for v in values]:
            text += token + data.draw(gap)
        img = gv.ScalarField.from_array(np.array(values, float).reshape(height, width))
        d = tmp_path_factory.mktemp("p2")
        p2, p5 = d / "a.pgm", d / "b.pgm"
        p2.write_bytes(text)
        io.write_pgm(img, p5, maxval=maxval)
        a, b = io.read_pgm(p2), io.read_pgm(p5)
        assert a.spec == b.spec and np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("token", [b"-5", b"+9", b"1_0"])
    @pytest.mark.parametrize("where, what", [(0, "width"), (1, "height"), (2, "maxval"),
                                             (3, "sample"), (11, "sample")])
    def test_signed_or_underscored_integer_is_format_error(self, tmp_path, token, where, what):
        # int() takes all three; PGM takes ASCII digits only
        tokens = [b"3", b"3", b"255"] + [b"%d" % k for k in range(1, 10)]
        tokens[where] = token
        data = b"P2\n" + b" ".join(tokens) + b"\n"
        offset = data.index(token)
        path = tmp_path / "sign.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"bad {what} token") as err:
            io.read_pgm(path)
        assert err.value.offset == offset

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


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A 256^2 field with a patch of zeros, and its file."""
    rng = np.random.default_rng(47)
    field = gv.VectorField.from_arrays(rng.normal(size=(256, 256)), rng.normal(size=(256, 256)))
    field.values[:, 100:110, 50:60] = 0.0
    path = tmp_path_factory.mktemp("mem") / "field.gvf"
    io.write_field(field, path)
    return path, field


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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_huge_dimensions_through_a_pipe_are_format_error(self, stored):
        # a pipe has no size to check the header against: the output grows
        # only as value lines arrive, so the lines of a 256^2 field under a
        # header that claims 10**10 of them take less than 4 of its arrays
        path, field = stored
        data = path.read_bytes().replace(b"\n256 256\n", b"\n100000 100000\n", 1)

        def read():
            with pytest.raises(FormatError, match="expected 10000000000 value lines, got 65536"):
                read_through_a_pipe(data)

        assert traced_peak(read, field.spec) < 4


def _reference_read_field(path) -> gv.VectorField:
    """read_field as it was before it streamed rows: the whole file's
    bytes, split into lines, parsed in one pass.  The reference for every
    value, message and offset of the streaming reader."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        offset = next(i for i, c in enumerate(data) if c > 127)
        raise FormatError("non-ASCII byte in field file", offset)
    lines = data.splitlines()
    header = [line.decode("ascii") for line in lines[:3]]
    if not header or header[0] != io.FIELD_MAGIC:
        raise FormatError(f"bad field-file magic {header[0]!r}" if header else "empty file", 0)
    try:
        width, height = (int(t) for t in header[1].split())
        dx, dy = (float(t) for t in header[2].split())
    except (IndexError, ValueError):
        raise FormatError("malformed field-file header") from None
    if width < 3 or height < 3:
        raise FormatError(f"bad field dimensions {width}x{height}: grids must be at least 3x3")
    if not (dx == 1 and dy == 1):
        raise FormatError(f"bad grid spacing {header[2]!r}: pixels are unit squares, spacing 1 1")
    count = width * height
    body = lines[3 : 3 + count]
    if len(body) != count or any(s.strip() for s in lines[3 + count :]):
        raise FormatError(f"expected {count} value lines, got {len(lines) - 3}")
    tokens = chain.from_iterable(map(bytes.split, body, repeat(None), repeat(1)))
    try:
        values = np.fromiter(map(float, tokens), np.float64, 2 * count).reshape(count, 2)
    except ValueError:
        def is_pair(tokens):
            try:
                _, _ = map(float, tokens)
            except ValueError:
                return False
            return True
        bad = next(i for i, line in enumerate(body) if not is_pair(line.split()))
        raise FormatError(f"bad value pair on line {bad + 4}") from None
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FormatError(f"non-finite value pair on line {bad[0] + 4}")
    uv = np.ascontiguousarray(values.T).reshape(2, height, width)
    return gv.VectorField(gv.GridSpec(width, height), uv)


def _read_outcome(reader, path):
    """("ok", grid spec, the values' bits) or ("error", message, offset)
    of reader(path)."""
    try:
        field = reader(path)
    except FormatError as err:
        return "error", str(err), err.offset
    return "ok", field.spec, field.values.view(np.int64).tobytes()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# separators that bytes.split takes, and bytes that only str.split or
# bytes.splitlines take
_ODD_BYTES = [b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\xe9", b"\xc3\xa9",
              b"\x85", b"1\r2\n", b"\r\r\n"]
_FIELD_MUTATION = st.one_of(
    _MUTATION,
    st.tuples(st.just("insert"), _POSITION, st.sampled_from(_ODD_BYTES)),
    # a whole line replaced: a pair split by a bare "\r", or a header
    # that claims 10**10 value lines
    st.tuples(st.just("line"), st.integers(0, 40),
              st.sampled_from([b"1\r2", b"100000 100000", b"0 0 ", b"\x0b1\x0c2\x0b"])),
)


def _mutate_field(data: bytes, mutations) -> bytes:
    """_mutate, plus ("line", k, text): line k (wrapping) replaced by text."""
    for kind, at, arg in mutations:
        if kind == "line":
            lines = data.split(b"\n")
            lines[at % len(lines)] = arg
            data = b"\n".join(lines)
        else:
            data = _mutate(data, [(kind, at, arg)])
    return data


class TestStreamingFieldReader:
    """read_field reads every file as _reference_read_field does: the same
    values bit for bit, or the same FormatError message and offset."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), width=st.integers(3, 6), height=st.integers(3, 6))
    def test_valid_files_stream_to_the_reference_values(self, tmp_path_factory, data, width,
                                                        height):
        u, v = (np.array(data.draw(st.lists(_FLOATS, min_size=width * height,
                                            max_size=width * height))).reshape(height, width)
                for _ in range(2))
        path = tmp_path_factory.mktemp("f") / "f.gvf"
        io.write_field(gv.VectorField.from_arrays(u, v), path)
        lines = path.read_bytes().split(b"\n")[:-1]
        space = st.text(" \t\x0b\x0c", max_size=3).map(str.encode)
        gap = st.text(" \t\x0b\x0c", min_size=1, max_size=3).map(str.encode)
        end = data.draw(st.sampled_from([b"\n", b"\r\n"]))
        body = [data.draw(space) + a + data.draw(gap) + b + data.draw(space)
                for a, b in (line.split(b" ") for line in lines[3:])]
        tail = data.draw(st.lists(space, max_size=2))
        text = end.join(lines[:3] + body + tail) + data.draw(st.sampled_from([b"", end]))
        path.write_bytes(text)
        got = _read_outcome(io.read_field, path)
        assert got == _read_outcome(_reference_read_field, path)
        assert got[2] == np.stack([u, v]).view(np.int64).tobytes()

    @settings(max_examples=600, deadline=None)
    @given(mutations=st.lists(_FIELD_MUTATION, min_size=1, max_size=4),
           crlf=st.booleans())
    def test_mutated_files_read_as_the_reference_reads_them(self, valid_files, mutations, crlf):
        d, files = valid_files
        data = files["field.gvf"][1]
        if crlf:
            data = data.replace(b"\n", b"\r\n")
        path = d / "differential.gvf"
        path.write_bytes(_mutate_field(data, mutations))
        assert _read_outcome(io.read_field, path) == _read_outcome(_reference_read_field, path)

    @pytest.mark.parametrize("edit, message", [
        # a pair the line iterator would take: two lines to splitlines
        (lambda t: t.replace(b"1 0\n", b"1\r0\n", 1), "expected 20 value lines, got 21"),
        (lambda t: t.replace(b"\n", b"\r"), None),
        (lambda t: t[:-1] + b"\r", None),
        (lambda t: t.replace(b"1 1\n", b"1\x0b1\n", 1), None),
        (lambda t: t.replace(b"1 1\n", b"1\x1c1\n", 1), None),
        (lambda t: t.replace(b"1 0\n", b"1\x1c0\n", 1), "bad value pair on line 4"),
        (lambda t: t + b"\x0c\n", None),
        (lambda t: t + b"0 0\n", "expected 20 value lines, got 21"),
    ])
    def test_line_breaks_and_spaces_of_the_whole_file_reader(self, tmp_path, edit, message):
        # a bare "\r" breaks a line for bytes.splitlines but not for a
        # file's line iterator; "\x1c" is a separator to str.split only
        path = tmp_path / "e.gvf"
        field = gv.VectorField.from_arrays(np.ones((4, 5)), np.zeros((4, 5)))
        io.write_field(field, path)
        path.write_bytes(edit(path.read_bytes()))
        if message is None:
            assert np.array_equal(io.read_field(path).values, field.values)
        else:
            with pytest.raises(FormatError, match=message):
                io.read_field(path)
        assert _read_outcome(io.read_field, path) == _read_outcome(_reference_read_field, path)

    @settings(max_examples=300, deadline=None)
    @given(mutations=st.lists(_FIELD_MUTATION, max_size=4),
           ends=st.sampled_from([b"\n", b"\r\n", b"\r"]), chunk=st.sampled_from([1, 2, 3, 7]))
    def test_chunks_of_a_few_bytes_read_as_the_reference_reads(self, valid_files, mutations,
                                                              ends, chunk):
        # every line, "\r\n" and token crosses a chunk boundary somewhere
        d, files = valid_files
        path = d / "chunked.gvf"
        path.write_bytes(_mutate_field(files["field.gvf"][1].replace(b"\n", ends), mutations))
        with mock.patch.object(io, "_FIELD_CHUNK", chunk):
            got = _read_outcome(io.read_field, path)
        assert got == _read_outcome(_reference_read_field, path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_whole(self, valid_files):
        # a pipe has no size, so the output grows as the value lines
        # arrive: in one step, or in many with chunks of 3 bytes
        data = valid_files[1]["field.gvf"][1]
        expected = io.read_field(valid_files[0] / "field.gvf").values
        for chunk in io._FIELD_CHUNK, 3:
            with mock.patch.object(io, "_FIELD_CHUNK", chunk):
                assert np.array_equal(read_through_a_pipe(data).values, expected)


def read_through_a_pipe(data: bytes) -> gv.VectorField:
    """read_field of the read end of a pipe that a writer thread fills
    with data and closes."""
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return io.read_field(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        writer.join()


def with_lines(tmp_path, edits: dict):
    """The path of a 3x3 field file of ones and zeros whose line k (from
    0, the empty one after the last line break included) is edits[k]."""
    path = tmp_path / "lines.gvf"
    io.write_field(gv.VectorField.from_arrays(np.ones((3, 3)), np.zeros((3, 3))), path)
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(edits.get(k, line) for k, line in enumerate(lines)))
    return path


class TestLongLines:
    """A line longer than 4 KiB is not held whole: unless it is blank, it
    reads as a short malformed line in its place would."""

    def test_a_20_mib_value_line_is_a_bad_pair_read_in_kilobytes(self, tmp_path):
        path = with_lines(tmp_path, {3: b"7" * (20 << 20)})
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^bad value pair on line 4$"):
                io.read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_byte_outside_ascii_after_the_long_line_is_reported_first(self, tmp_path):
        path = with_lines(tmp_path, {3: b"7" * (20 << 20), 5: b"1 \xe9"})
        with pytest.raises(FormatError, match="non-ASCII byte") as err:
            io.read_field(path)
        assert err.value.offset == path.read_bytes().index(b"\xe9")

    @pytest.mark.parametrize("chunk", [1 << 14, 1000, 7])
    @pytest.mark.parametrize("edits, message", [
        # padded past the limit, a pair that a short line would be
        ({3: b" " * 5000 + b"1 0"}, "bad value pair on line 4"),
        ({3: b"0." + b"0" * 5000 + b"1 0"}, "bad value pair on line 4"),
        ({4: b"7" * 5000}, "bad value pair on line 5"),
        ({0: b"G" * 5000}, "bad field-file magic '<line longer than 4096 bytes>'"),
        ({1: b"3 3" + b" " * 5000}, "malformed field-file header"),
        ({12: b"\t" * 5000 + b"0"}, "expected 9 value lines, got 10"),
        # a blank line stays blank, and counts as one line
        ({12: b" " * 5000}, None),
        ({12: b" " * 5000 + b"\r\r"}, None),
        ({3: b" " * 5000}, "bad value pair on line 4"),
    ])
    def test_a_long_line_is_one_short_malformed_or_blank_line(self, tmp_path, chunk, edits,
                                                              message):
        path = with_lines(tmp_path, edits)
        with mock.patch.object(io, "_FIELD_CHUNK", chunk):
            if message is None:
                assert np.array_equal(io.read_field(path).values[0], np.ones((3, 3)))
            else:
                with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
                    io.read_field(path)


class TestPeakMemory:
    """Traced peaks at 256^2, in H x W float64 arrays: read_field holds
    its output plus one chunk's lines and values, whatever its line
    breaks; through a pipe the output's two planes grow apart and are
    joined at the end.  render builds its image a block of rows at a
    time beside the magnitude."""

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_read_field(self, stored, tmp_path, end):
        path, field = stored
        edited = tmp_path / "field.gvf"
        edited.write_bytes(path.read_bytes().replace(b"\n", end))
        assert traced_peak(lambda: io.read_field(edited), field.spec) <= 2.5

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_read_field_through_a_pipe(self, stored):
        path, field = stored
        data = path.read_bytes()
        assert traced_peak(lambda: read_through_a_pipe(data), field.spec) <= 4

    @pytest.mark.parametrize("mode", io.RENDER_MODES)
    def test_render(self, stored, tmp_path, mode):
        _, field = stored
        call = lambda: io.render(field, mode, tmp_path / "r.ppm",
                                 snake_points=np.array([[3.0, 4.0], [200.0, 9.0], [90.0, 250.0]]))
        assert traced_peak(call, field.spec) <= 4


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

    def _overlay(self, tmp_path, points, shape=(24, 32)):
        path = tmp_path / "o.ppm"
        io.render(gv.VectorField.zeros(gv.GridSpec(shape[1], shape[0])), "magnitude-heatmap",
                  path, snake_points=np.asarray(points, dtype=float))
        return self._read_ppm(path)[:, :, 0] == 255

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_contour_in_the_image_draws_its_bresenham_pixels(self, tmp_path_factory, n, seed):
        # every end rounds to a pixel of the image, as every snake's does
        pts = np.random.default_rng(seed).uniform(-0.5, [31.5, 23.5], (n, 2))
        expected = np.zeros((24, 32, 3), np.uint8)
        ends = np.rint(pts).astype(int)
        for (x0, y0), (x1, y1) in zip(ends, np.roll(ends, -1, axis=0)):
            io._draw_line(expected, x0, y0, x1, y1, (255, 0, 0))
        got = self._overlay(tmp_path_factory.mktemp("o"), pts)
        assert np.array_equal(got, expected[:, :, 0] == 255)

    @pytest.mark.parametrize("far", [1e9, 1e300, 1.7e308])
    def test_far_contour_points_are_clipped_quickly_without_a_warning(self, tmp_path, far):
        # rasterizing every pixel up to x = 1e9 took minutes, and 1e300
        # overflowed the integer cast
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a row through the image, a diagonal through it, and one
            # segment that misses it
            got = self._overlay(tmp_path, [[-far, 3.0], [far, 3.0], [far, far], [-far, -far]],
                                shape=(24, 24))
        assert time.perf_counter() - t0 < 5.0
        expected = np.zeros((24, 24), bool)
        expected[3] = True
        expected[np.arange(24), np.arange(24)] = True
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("points", [[[1.0, np.nan], [3.0, 4.0]], [[1.0, 2.0, 3.0]], [1.0, 2.0]])
    def test_contour_must_be_finite_pairs(self, tmp_path, points):
        with pytest.raises(ParameterError, match="contour points"):
            self._overlay(tmp_path, points)

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ParameterError):
            io.render(gv.VectorField.zeros(gv.GridSpec(8, 8)), "contours", tmp_path / "x.ppm")

    @pytest.mark.parametrize("stride, message", [
        (2.5, "must be an integer"), (8.0, "must be an integer"), (True, "must be an integer"),
        (None, "must be an integer"), (0, "must be >= 1"), (-3, "must be >= 1"),
    ])
    def test_arrow_stride_must_be_a_positive_integer(self, tmp_path, stride, message):
        # 2.5 used to escape as numpy's TypeError
        path = tmp_path / "s.ppm"
        with pytest.raises(ParameterError, match=f"arrow stride {message}"):
            io.render(gv.VectorField.zeros(gv.GridSpec(8, 8)), "arrows", path,
                      arrow_stride=stride)
        assert not path.exists()

    @pytest.mark.parametrize("mode", io.RENDER_MODES)
    def test_field_near_the_float_range_renders_as_its_unit_scale(self, tmp_path, mode):
        # past about 1.3e308 |v| overflows: heatmaps came out black and
        # arrows drew nothing; the field is scaled by a power of two first
        rng = np.random.default_rng(47)
        f = rng.uniform(1.0, 2.0, (2, 32, 32)) * rng.choice([-1.0, 1.0], (2, 32, 32))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.render(gv.VectorField.from_arrays(*f), mode, a)
            io.render(gv.VectorField.from_arrays(*np.ldexp(f, 1023)), mode, b)
        assert a.read_bytes() == b.read_bytes()

    def test_subnormal_field_draws_arrows(self, tmp_path):
        # stride / peak overflowed, then the rounding of inf raised
        rng = np.random.default_rng(48)
        f = rng.uniform(1.0, 2.0, (2, 32, 32))
        path = tmp_path / "s.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.render(gv.VectorField.from_arrays(*np.ldexp(f, -1070)), "arrows", path)
        assert (self._read_ppm(path) == 255).any()

    @pytest.mark.parametrize("stride", [2**25, 10**400], ids=["2**25", "10**400"])
    def test_stride_past_the_image_draws_no_arrow(self, tmp_path, stride):
        # peak just above 2**-1000, so the field is not rescaled: stride /
        # peak overflowed for 2**25 and raised OverflowError for 10**400
        rng = np.random.default_rng(49)
        f = np.ldexp(rng.uniform(1.0, 1.1, (2, 32, 32)), -1000)
        path = tmp_path / "s.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.render(gv.VectorField.from_arrays(*f), "arrows", path, arrow_stride=stride)
        assert not self._read_ppm(path).any()

    def test_render_deterministic(self, tmp_path):
        rng = np.random.default_rng(45)
        field = gv.VectorField.from_arrays(rng.random((16, 16)), rng.random((16, 16)))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        io.render(field, "direction-hue", a)
        io.render(field, "direction-hue", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", ["magnitude-heatmap", "direction-hue"])
    def test_row_blocks_color_as_the_whole_image(self, tmp_path, mode):
        # 97 rows of 211 pixels make five blocks, the last one short; the
        # whole-image expressions are those render used before it had blocks
        rng = np.random.default_rng(46)
        u, v = rng.normal(size=(2, 97, 211)) * rng.choice([1e-300, 1.0, 1e300], (2, 97, 211))
        u[::3, ::2] = v[::3, ::2] = 0.0
        path = tmp_path / "b.ppm"
        io.render(gv.VectorField.from_arrays(u, v), mode, path)
        mag = np.hypot(u, v)
        if mode == "magnitude-heatmap":
            expected = np.repeat((mag / mag.max() * 255.0).astype(np.uint8)[:, :, None], 3, axis=2)
        else:
            hue = (np.arctan2(v, u) / (2.0 * math.pi)) % 1.0
            value = np.where(mag > 0, 1.0, 0.0)
            expected = (io._hsv_to_rgb(hue, np.ones_like(hue), value) * 255.0).astype(np.uint8)
        assert np.array_equal(self._read_ppm(path), expected)
