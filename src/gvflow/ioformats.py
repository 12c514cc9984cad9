"""Image and field serialization, synthetic test images, raster rendering.

Codecs are deliberately minimal: PGM (P2/P5) in, PGM/PPM (P6) out, a
plain-text "GVF1" vector field container, read in one bounded pass, and
a one-pair-per-line contour CSV.  All writers are deterministic:
identical inputs produce byte-identical files.  A PGM header field or
P2 sample is a token: a run of bytes that are neither ASCII whitespace
nor "#", after any whitespace and "#" comments, each comment running to
the end of its line.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import FormatError, ParameterError, is_integer
from .grid import GridSpec, ScalarField, VectorField

FIELD_MAGIC = "GVF1"

# Smallest clearance between a synthetic shape and the grid border.
_SHAPE_MARGIN = 8

# Largest synthetic image, in pixels: 2048 x 2048, 32 MiB as float64.
# It bounds the memory a synth_* call (and `gvflow synth`) may allocate.
SYNTH_MAX_PIXELS = 2048 * 2048


# --- PGM ------------------------------------------------------------------------


# the token rule of the module docstring
_SPACE = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"[^\s#]*")


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The first token at or after offset pos, as an integer of ASCII
    digits only, and the offset past it: PGM has no sign, and int()
    would also take underscores and other digits."""
    start = _SPACE.match(data, pos).end()
    end = _TOKEN.match(data, start).end()
    if end == start:
        raise FormatError("unexpected end of header", start)
    tok = data[start:end]
    try:
        if tok.isdigit():
            return int(tok), end
    except ValueError:  # past int()'s limit on digits
        pass
    raise FormatError(f"bad {what} token {tok!r}", start)


def read_pgm(path) -> ScalarField:
    """Read a P2 (ASCII) or P5 (binary) grayscale image, maxval <= 65535."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = _SPACE.match(data).end()
    pos = _TOKEN.match(data, start).end()
    magic = data[start:pos]
    if not magic:
        raise FormatError("unexpected end of header", start)
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})", 0)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 3 or height < 3:
        raise FormatError(f"bad dimensions {width}x{height}: images must be at least 3x3", 0)
    if not (0 < maxval <= 65535):
        raise FormatError(f"unsupported maxval {maxval}", 0)
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise FormatError("missing raster separator", pos)
        start = pos + 1
        size = 2 if maxval > 255 else 1
        nbytes = count * size
        raster = data[start : start + nbytes]
        if len(raster) != nbytes:
            raise FormatError(
                f"truncated raster: expected {nbytes} bytes, got {len(raster)}",
                start + len(raster),
            )
        values = np.frombuffer(raster, dtype=">u2" if size == 2 else np.uint8).astype(np.float64)
        over = values > maxval
        if over.any():
            # at the first bad sample's first byte
            raise FormatError(f"sample exceeds maxval {maxval}", start + int(over.argmax()) * size)
    else:
        # every sample takes a byte at least: a header that claims more
        # samples than there are bytes left is refused before allocating
        left = len(data) - pos
        if count > left:
            raise FormatError(
                f"truncated raster: {count} samples, only {left} bytes left", len(data))
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            sample, pos = _int_token(data, pos, "sample")
            # at the end of the token, checked before a store that could
            # overflow the float
            if sample > maxval:
                raise FormatError(f"sample exceeds maxval {maxval}", pos)
            values[i] = sample
    return ScalarField(GridSpec(width, height), values.reshape(height, width))


def write_pgm(field: ScalarField, path, maxval: int = 255, binary: bool = True) -> None:
    """Write a grayscale image; values are clamped and rounded to maxval."""
    if not (is_integer(maxval) and 0 < maxval <= 65535):
        raise ParameterError(f"maxval must be an integer in 1 ... 65535, got {maxval!r}")
    q = np.clip(np.rint(field.values), 0, maxval)
    header = f"{'P5' if binary else 'P2'}\n{field.spec.width} {field.spec.height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = ">u2" if maxval > 255 else np.uint8
            fh.write(q.astype(dtype).tobytes())
        else:
            lines = "\n".join(
                " ".join(str(int(x)) for x in row) for row in q.astype(np.int64)
            )
            fh.write(lines.encode("ascii") + b"\n")


# --- vector field container ---------------------------------------------------------


def write_field(field: VectorField, path) -> None:
    """Plain-text container: magic, dimensions, the grid spacing "1 1"
    (pixels are unit squares), then one "u v" pair per pixel in
    row-major order at full float64 precision."""
    spec = field.spec
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{FIELD_MAGIC}\n{spec.width} {spec.height}\n1 1\n")
        # one row at a time, formatted from Python floats: fast, and only
        # one row's text is held in memory
        for u, v in zip(field.u.values, field.v.values):
            fh.write("".join(map("%.17g %.17g\n".__mod__, zip(u.tolist(), v.tolist()))))


def _check_ascii(data: bytes, what: str, base: int = 0) -> None:
    """FormatError at the first byte of data outside ASCII, if any; data
    starts at byte offset base of its file."""
    if not data.isascii():
        offset = base + re.search(rb"[\x80-\xff]", data).start()
        raise FormatError(f"non-ASCII byte in {what}", offset)


def _field_header(header: list) -> tuple[int, int]:
    """Width and height from the first three lines of a field file, as str."""
    if not header or header[0] != FIELD_MAGIC:
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
    return width, height


_FIELD_CHUNK = 1 << 14  # bytes read_field reads at a time
# The longest line read_field holds, in bytes; write_field's are under 60.
_MAX_LINE = 1 << 12
# What a longer line that is not blank reads as: no header line and no
# value pair
_LONG_LINE = b"<line longer than %d bytes>" % _MAX_LINE


def _line_blocks(fh):
    """The lines of the open binary file fh, a list per block, each block
    cut where bytes.splitlines of the whole file ends a line; FormatError
    at the first byte outside ASCII, as soon as it is read.  A line
    longer than _MAX_LINE is not held whole: it reads as an empty line if
    it is blank, and as _LONG_LINE otherwise."""
    held, offset, after_cr = [], 0, False
    while chunk := fh.read(_FIELD_CHUNK):
        _check_ascii(chunk, "field file", offset)
        offset += len(chunk)
        # a "\n" that completes the "\r\n" whose "\r" ended the last chunk
        start = int(after_cr and chunk[:1] == b"\n")
        after_cr = chunk[-1:] == b"\r"
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if cut > start:
            yield _short_lines(b"".join((*held, memoryview(chunk)[start:cut])).splitlines())
            held = [chunk[cut:]]
        else:
            # held is one unfinished line; past the limit, a line of the
            # same blankness just over it stands in for it
            held.append(chunk[start:])
            if sum(map(len, held)) > _MAX_LINE:
                held = [(b" " if b"".join(held).isspace() else b"x") * (_MAX_LINE + 1)]
    yield _short_lines(b"".join(held).splitlines())


def _short_lines(lines: list) -> list:
    """lines, each longer than _MAX_LINE replaced by an empty line if it
    is blank and by _LONG_LINE otherwise."""
    if max(map(len, lines), default=0) <= _MAX_LINE:
        return lines
    return [line if len(line) <= _MAX_LINE else b"" if line.isspace() else _LONG_LINE
            for line in lines]


def read_field(path) -> VectorField:
    """Read a write_field container; values come back bit for bit.

    One pass parses the file a block of lines at a time straight into the
    output.  A line longer than 4 KiB is refused unless it is blank: it
    counts as one line, and it is reported as a short malformed line in
    its place would be.  A faulty file is read to its end, and its first
    fault is raised in this order: a byte outside ASCII, the header, the
    number of value lines (or text after them), a pair that is not two
    numbers, a non-finite pair.
    """
    with open(path, "rb", buffering=0) as fh:
        blocks, lines = _line_blocks(fh), []
        while len(lines) < 3 and (block := next(blocks, None)) is not None:
            lines += block
        blocks = chain([lines[3:]], blocks)
        try:
            width, height = _field_header([line.decode("ascii") for line in lines[:3]])
        except FormatError:
            for _ in blocks:  # a byte outside ASCII further on comes first
                pass
            raise
        count = width * height
        # once the file's size shows room for the count, at 4 bytes a value
        # line ("0 0\n", the last one 3), u and v are the planes of the whole
        # output; otherwise, as in a pipe, they grow apart as value lines
        # arrive, never past the count, and are joined at the end
        whole = 4 * count - 1 <= os.fstat(fh.fileno()).st_size
        u = np.empty(2 * count if whole else 0)
        v = u[count:] if whole else np.empty(0)
        seen, trailing, bad, nonfinite = 0, False, None, None
        for lines in blocks:
            start, seen = seen, seen + len(lines)
            body = lines[: max(0, count - start)]
            trailing = trailing or any(s.strip() for s in lines[len(body) :])
            if body and not (trailing or bad):
                end = start + len(body)
                if end > v.size:
                    for plane in u, v:
                        plane.resize(min(count, max(end, v.size * 5 // 4)), refcheck=False)
                # one split a line at most: a third token stays glued to the
                # second and fails float(), a missing one leaves the block
                # short; the tokens are listed first, which parses faster
                tokens = chain.from_iterable(map(bytes.split, body, repeat(None), repeat(1)))
                try:
                    values = np.fromiter(map(float, list(tokens)), np.float64, 2 * len(body))
                except ValueError:
                    bad = start + 4 + next(i for i, line in enumerate(body)
                                           if not _is_float_pair(line.split()))
                else:
                    u[start:end], v[start:end] = values[0::2], values[1::2]
                    if nonfinite is None and not np.isfinite(values).all():
                        nonfinite = start + 4 + int(np.isfinite(values).argmin()) // 2
            del lines, body  # freed before the next block is read
    if trailing or seen < count:
        raise FormatError(f"expected {count} value lines, got {seen}")
    if bad:
        raise FormatError(f"bad value pair on line {bad}")
    if nonfinite:
        raise FormatError(f"non-finite value pair on line {nonfinite}")
    if not whole:
        u.resize(2 * count, refcheck=False)
        u[count:] = v
    return VectorField(GridSpec(width, height), u.reshape(2, height, width))


def _is_float_pair(tokens: list) -> bool:
    try:
        _, _ = map(float, tokens)
    except ValueError:
        return False
    return True


# --- contour CSV ----------------------------------------------------------------------


def write_contour(points: np.ndarray, path) -> None:
    """One "x,y" pair per line; the contour is implicitly closed."""
    pts = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for x, y in pts:
            fh.write(f"{x:.17g},{y:.17g}\n")


def read_contour(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    _check_ascii(data, "contour file")
    pts = []
    for ln, line in enumerate(data.decode("ascii").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            x, y = (float(p) for p in line.split(","))
        except ValueError:
            raise FormatError(f"bad contour pair on line {ln}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"non-finite contour point on line {ln}")
        pts.append((x, y))
    if not pts:
        raise FormatError("empty contour file")
    return np.asarray(pts, dtype=np.float64)


# --- synthetic corpus -----------------------------------------------------------------


@dataclass(frozen=True)
class UShapeGeometry:
    """Pixel rectangles (x, y, w, h) of the U test shape."""

    shape: tuple[int, int, int, int]
    notch: tuple[int, int, int, int]


def ushape_geometry(width: int, height: int) -> UShapeGeometry:
    """Deterministic U layout: quarter margins, notch about a third of
    the shape width, opening upward, half the shape height deep."""
    mx, my = width // 4, height // 4
    if mx < _SHAPE_MARGIN or my < _SHAPE_MARGIN:
        raise ParameterError(f"grid {width}x{height} too small for the U shape")
    sw, sh = width - 2 * mx, height - 2 * my
    nw = max(1, round(sw / 3))
    nd = sh // 2
    nx = mx + (sw - nw) // 2
    return UShapeGeometry(shape=(mx, my, sw, sh), notch=(nx, my, nw, nd))


def _check_synth_size(width: int, height: int) -> None:
    """ParameterError unless width, height >= 3 and the image holds at
    most SYNTH_MAX_PIXELS pixels; checked before anything is allocated."""
    if width < 3 or height < 3:
        raise ParameterError(f"synthetic images must be at least 3x3, got {width}x{height}")
    if width * height > SYNTH_MAX_PIXELS:
        raise ParameterError(
            f"synthetic image {width}x{height} exceeds {SYNTH_MAX_PIXELS} pixels")


def _fill_rect(values: np.ndarray, rect: tuple[int, int, int, int], value: float):
    x, y, w, h = rect
    values[y : y + h, x : x + w] = value


def synth_ushape(width: int, height: int) -> ScalarField:
    """Binary U: a filled rectangle with an upward-opening notch."""
    _check_synth_size(width, height)
    geo = ushape_geometry(width, height)
    values = np.zeros((height, width))
    _fill_rect(values, geo.shape, 255.0)
    _fill_rect(values, geo.notch, 0.0)
    return ScalarField(GridSpec(width, height), values)


def synth_box_with_hole(
    width: int, height: int, hole_rect: tuple[int, int, int, int] | None = None
) -> ScalarField:
    """Binary rectangle with a rectangular hole (default: centered third)."""
    _check_synth_size(width, height)
    mx, my = width // 4, height // 4
    if mx < _SHAPE_MARGIN or my < _SHAPE_MARGIN:
        raise ParameterError(f"grid {width}x{height} too small for the box shape")
    box = (mx, my, width - 2 * mx, height - 2 * my)
    if hole_rect is None:
        hw = max(1, round(box[2] / 3))
        hh = max(1, round(box[3] / 3))
        hole_rect = (mx + (box[2] - hw) // 2, my + (box[3] - hh) // 2, hw, hh)
    hx, hy, hw, hh = hole_rect
    if not (box[0] < hx and hx + hw < box[0] + box[2] and box[1] < hy and hy + hh < box[1] + box[3]):
        raise ParameterError("hole must sit strictly inside the box")
    values = np.zeros((height, width))
    _fill_rect(values, box, 255.0)
    _fill_rect(values, hole_rect, 0.0)
    return ScalarField(GridSpec(width, height), values)


def synth_disk(width: int, height: int, cx: float, cy: float, r: float) -> ScalarField:
    """Binary filled disk; pixel centers within radius r are foreground."""
    _check_synth_size(width, height)
    if not all(map(math.isfinite, (cx, cy, r))):
        raise ParameterError(f"disk geometry must be finite, got cx={cx!r}, cy={cy!r}, r={r!r}")
    if r <= 0:
        raise ParameterError("disk radius must be > 0")
    if (
        cx - r < _SHAPE_MARGIN
        or cy - r < _SHAPE_MARGIN
        or cx + r > width - 1 - _SHAPE_MARGIN
        or cy + r > height - 1 - _SHAPE_MARGIN
    ):
        raise ParameterError("disk does not fit the grid with an 8-pixel margin")
    yy, xx = np.mgrid[0:height, 0:width]
    values = np.where((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r, 255.0, 0.0)
    return ScalarField(GridSpec(width, height), values)


# --- rendering -------------------------------------------------------------------------

RENDER_MODES = ("magnitude-heatmap", "direction-hue", "arrows")


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB, all components in [0, 1]."""
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    out = np.zeros(h.shape + (3,))
    for idx, (r, g, b) in enumerate(((v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q))):
        m = i == idx
        out[m, 0], out[m, 1], out[m, 2] = r[m], g[m], b[m]
    return out


# Pixels per block of rows in render: each float temporary of a block
# takes 32 KiB.
_RENDER_BLOCK = 4096

# the largest |component| of a field that render takes as it is
_RENDER_RANGE = (2.0**-1000, 2.0**1023)


def _pixel_colors(mode: str, u: np.ndarray, v: np.ndarray, mag: np.ndarray,
                  peak: float) -> np.ndarray:
    """The (rows, W, 3) uint8 colors of magnitude-heatmap or direction-hue
    for rows of the field components and of their magnitude, whose peak
    over the whole field is peak."""
    if mode == "magnitude-heatmap":
        gray = np.zeros_like(mag) if peak == 0 else mag / peak
        return np.repeat((gray * 255.0).astype(np.uint8)[:, :, None], 3, axis=2)
    hue = (np.arctan2(v, u) / (2.0 * math.pi)) % 1.0
    value = np.where(mag > 0, 1.0, 0.0)
    return (_hsv_to_rgb(hue, np.ones_like(hue), value) * 255.0).astype(np.uint8)


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int, color):
    """Integer Bresenham segment, silently clipped at the image border."""
    hgt, wdt = img.shape[:2]
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < wdt and 0 <= y0 < hgt:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _clip_segment(a, b, width: int, height: int):
    """The end pixels of the part of segment a-b, two (x, y) float pairs,
    that lies in the rectangle [-1/2, width - 1/2] x [-1/2, height - 1/2],
    or None if it misses the rectangle.

    Ends in the rectangle are rounded as they are, half to even as
    np.rint rounds.  Otherwise Liang and Barsky's parametric clip moves
    the ends onto the border, in exact rational arithmetic, so that no
    coordinate overflows and none loses the image to cancellation."""
    box = ((-0.5, width - 0.5), (-0.5, height - 0.5))
    if all(lo <= c <= hi for end in (a, b) for c, (lo, hi) in zip(end, box)):
        return [(round(x), round(y)) for x, y in (a, b)]
    # imported here, as only a contour off the image needs it: the
    # import costs about 3 ms of every start
    from fractions import Fraction

    a, b = ([Fraction(c) for c in end] for end in (a, b))
    t0, t1 = Fraction(0), Fraction(1)
    for c0, c1, (lo, hi) in zip(a, b, box):
        # the segment is in the band where t * p <= q for both pairs
        d = c1 - c0
        for p, q in ((-d, c0 - Fraction(lo)), (d, Fraction(hi) - c0)):
            if p == 0:
                if q < 0:
                    return None
            elif p < 0:
                t0 = max(t0, q / p)
            else:
                t1 = min(t1, q / p)
    if t0 > t1:
        return None
    return [tuple(round(c0 + t * (c1 - c0)) for c0, c1 in zip(a, b)) for t in (t0, t1)]


def write_ppm(rgb: np.ndarray, path) -> None:
    """Write an (H, W, 3) uint8 array as binary P6."""
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def render(
    field: VectorField,
    mode: str,
    path,
    snake_points: np.ndarray | None = None,
    arrow_stride: int = 8,
) -> None:
    """Rasterize a vector field to PPM, optionally overlaying a contour.

    magnitude-heatmap maps |v| linearly to gray; direction-hue maps the
    vector angle to hue (zero vectors render black); arrows draws plain
    line segments on every arrow_stride-th pixel, scaled so the longest
    arrow spans about one cell.  Contours are drawn as a closed red
    polyline, each segment clipped to the image before it is rasterized.

    A field renders the same bytes when scaled by a power of two, so one
    whose largest |component| m lies outside [2**-1000, 2**1023), where
    |v| could overflow or the arrow scale stride / peak could, is first
    scaled by the exact power of two that brings m into [1, 2).
    """
    if mode not in RENDER_MODES:
        raise ParameterError(f"unknown render mode {mode!r}")
    if not is_integer(arrow_stride):
        raise ParameterError(f"arrow stride must be an integer, got {arrow_stride!r}")
    if arrow_stride < 1:
        raise ParameterError(f"arrow stride must be >= 1, got {arrow_stride}")
    values = field.values
    m = max(float(values.max()), -float(values.min()))
    if 0 < m < _RENDER_RANGE[0] or _RENDER_RANGE[1] <= m < math.inf:
        values = np.ldexp(values, 1 - math.frexp(m)[1])
    u, v = values
    mag = np.hypot(u, v)
    peak = mag.max()
    rgb = np.zeros(mag.shape + (3,), dtype=np.uint8)
    if mode != "arrows":
        # a block of rows at a time, so the float temporaries stay small;
        # each pixel's arithmetic is that of the whole image
        step = max(1, _RENDER_BLOCK // mag.shape[1])
        for top in range(0, mag.shape[0], step):
            rows = slice(top, top + step)
            rgb[rows] = _pixel_colors(mode, u[rows], v[rows], mag[rows], peak)
    elif peak > 0 and arrow_stride // 2 < min(mag.shape):
        # only where an arrow can start: a stride past both sides would
        # overflow the scale, though no arrow is drawn
        scale = arrow_stride / peak
        hgt, wdt = mag.shape
        for y in range(arrow_stride // 2, hgt, arrow_stride):
            for x in range(arrow_stride // 2, wdt, arrow_stride):
                if mag[y, x] == 0:
                    continue
                _draw_line(
                    rgb,
                    x,
                    y,
                    int(round(x + u[y, x] * scale)),
                    int(round(y + v[y, x] * scale)),
                    (255, 255, 255),
                )
    if snake_points is not None:
        pts = np.asarray(snake_points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
            raise ParameterError("contour points must be an (N, 2) array of finite values")
        ends = pts.tolist()
        for a, b in zip(ends, ends[1:] + ends[:1]):
            # clipped first, so that no off-image pixel is visited
            seg = _clip_segment(a, b, mag.shape[1], mag.shape[0])
            if seg is not None:
                (x0, y0), (x1, y1) = seg
                _draw_line(rgb, x0, y0, x1, y1, (255, 0, 0))
    write_ppm(rgb, path)
