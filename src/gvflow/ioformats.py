"""Image and field serialization, synthetic test images, raster rendering.

Codecs are deliberately minimal: PGM (P2/P5) in, PGM/PPM (P6) out, a
plain-text "GVF1" vector field container, and a one-pair-per-line
contour CSV.  All writers are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import FormatError, ParameterError
from .grid import GridSpec, ScalarField, VectorField

FIELD_MAGIC = "GVF1"

# Smallest clearance between a synthetic shape and the grid border.
_SHAPE_MARGIN = 8

# Largest synthetic image, in pixels: 2048 x 2048, 32 MiB as float64.
# It bounds the memory a synth_* call (and `gvflow synth`) may allocate.
SYNTH_MAX_PIXELS = 2048 * 2048


# --- PGM ------------------------------------------------------------------------


class _Tokenizer:
    """Header tokenizer for netpbm files; tracks byte offsets for errors."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c == b"#":
                nl = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if nl < 0 else nl + 1
            elif c.isspace():
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.data) and not self.data[self.pos : self.pos + 1].isspace():
            if self.data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise FormatError("unexpected end of header", start)
        return self.data[start : self.pos]

    def int_token(self, what: str) -> int:
        start = self.pos
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"bad {what} token {tok!r}", start) from None


def read_pgm(path) -> ScalarField:
    """Read a P2 (ASCII) or P5 (binary) grayscale image, maxval <= 65535."""
    with open(path, "rb") as fh:
        data = fh.read()
    tok = _Tokenizer(data)
    magic = tok.token()
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})", 0)
    width = tok.int_token("width")
    height = tok.int_token("height")
    maxval = tok.int_token("maxval")
    if width < 3 or height < 3:
        raise FormatError(f"bad dimensions {width}x{height}: images must be at least 3x3", 0)
    if not (0 < maxval <= 65535):
        raise FormatError(f"unsupported maxval {maxval}", 0)
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if tok.pos >= len(data) or not data[tok.pos : tok.pos + 1].isspace():
            raise FormatError("missing raster separator", tok.pos)
        start = tok.pos + 1
        nbytes = count * (2 if maxval > 255 else 1)
        raster = data[start : start + nbytes]
        if len(raster) != nbytes:
            raise FormatError(
                f"truncated raster: expected {nbytes} bytes, got {len(raster)}",
                start + len(raster),
            )
        dtype = ">u2" if maxval > 255 else np.uint8
        values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        # every sample takes a byte at least: a header that claims more
        # samples than there are bytes left is refused before allocating
        left = len(data) - tok.pos
        if count > left:
            raise FormatError(
                f"truncated raster: {count} samples, only {left} bytes left", len(data))
        values = np.empty(count, dtype=np.float64)
        try:
            for i in range(count):
                values[i] = tok.int_token("sample")
        except OverflowError:
            raise FormatError(f"sample exceeds maxval {maxval}", tok.pos) from None
    if np.any(values > maxval):
        raise FormatError(f"sample exceeds maxval {maxval}", 0)
    return ScalarField(GridSpec(width, height), values.reshape(height, width))


def write_pgm(field: ScalarField, path, maxval: int = 255, binary: bool = True) -> None:
    """Write a grayscale image; values are clamped and rounded to maxval."""
    if not (0 < maxval <= 65535):
        raise ParameterError(f"unsupported maxval {maxval}")
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


def _check_ascii(data: bytes, what: str) -> None:
    """FormatError at the first byte of data outside ASCII, if any."""
    if not data.isascii():
        offset = next(i for i, c in enumerate(data) if c > 127)
        raise FormatError(f"non-ASCII byte in {what}", offset)


def read_field(path) -> VectorField:
    """Read a write_field container; values come back bit for bit.

    The body is parsed in one pass that builds no per-line objects: the
    tokens of every line stream through float() into one array.  Only a
    malformed body goes back over the lines, to name the first bad one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    _check_ascii(data, "field file")
    lines = data.splitlines()
    header = [line.decode("ascii") for line in lines[:3]]
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
    count = width * height
    body = lines[3 : 3 + count]
    if len(body) != count or any(s.strip() for s in lines[3 + count :]):
        raise FormatError(f"expected {count} value lines, got {len(lines) - 3}")
    # at most one split per line: a third token stays glued to the second
    # and fails float(), a missing one leaves the iterator short
    tokens = chain.from_iterable(map(bytes.split, body, repeat(None), repeat(1)))
    try:
        values = np.fromiter(map(float, tokens), np.float64, 2 * count).reshape(count, 2)
    except ValueError:
        bad = next(i for i, line in enumerate(body) if not _is_float_pair(line.split()))
        raise FormatError(f"bad value pair on line {bad + 4}") from None
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FormatError(f"non-finite value pair on line {bad[0] + 4}")
    spec = GridSpec(width, height)
    u, v = np.ascontiguousarray(values.T).reshape(2, height, width)
    return VectorField(ScalarField(spec, u), ScalarField(spec, v))


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
    polyline.
    """
    if mode not in RENDER_MODES:
        raise ParameterError(f"unknown render mode {mode!r}")
    if arrow_stride < 1:
        raise ParameterError(f"arrow stride must be >= 1, got {arrow_stride}")
    u, v = field.u.values, field.v.values
    mag = np.hypot(u, v)
    peak = mag.max()
    if mode == "magnitude-heatmap":
        gray = np.zeros_like(mag) if peak == 0 else mag / peak
        rgb = np.repeat((gray * 255.0).astype(np.uint8)[:, :, None], 3, axis=2)
    elif mode == "direction-hue":
        hue = (np.arctan2(v, u) / (2.0 * math.pi)) % 1.0
        value = np.where(mag > 0, 1.0, 0.0)
        rgb = (_hsv_to_rgb(hue, np.ones_like(hue), value) * 255.0).astype(np.uint8)
    else:
        rgb = np.zeros(mag.shape + (3,), dtype=np.uint8)
        if peak > 0:
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
        pts = np.rint(np.asarray(snake_points)).astype(int)
        for i in range(len(pts)):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % len(pts)]
            _draw_line(rgb, x0, y0, x1, y1, (255, 0, 0))
    write_ppm(rgb, path)
