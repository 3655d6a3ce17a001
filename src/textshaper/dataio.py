"""Persistence and fixtures: polygon annotation files, the binary named-map
container, portable PGM/PPM images, and the synthetic band generator used
as the end-to-end shaping oracle.

Annotation format: one text instance per line as comma-separated integers
x1,y1,x2,y2,... (at least 3 vertices), optionally followed by a literal
"#ignore" token.

Map container ("TMAP"): little-endian throughout. Header is the 4-byte
magic "TMAP", a u16 version (currently 1) and a u16 section count. Each
section is a u16 name length + UTF-8 name, a u8 rank (1..4), rank u32
dims, then the row-major float64 payload.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import grids
from .geometry import TextPolygon, rasterize
from .maps import CHANNELS, GeometryMaps

MAP_MAGIC = b"TMAP"
MAP_VERSION = 1
MAX_RANK = 4
MAX_ELEMENTS = 1 << 28


class AnnotationError(ValueError):
    """A polygon annotation file failed to parse."""


class MapFileError(ValueError):
    """A named-map file is malformed."""


class ImageFormatError(ValueError):
    """A PGM/PPM image file is malformed."""


def parse_annotation_text(text: str, source: str = "<string>"):
    polys: list[TextPolygon] = []
    flags: list[bool] = []
    # Lines end at "\n" only, as editors and `wc -l` count them; str.splitlines()
    # would also break at "\x0c", "\x85", U+2028 and more. strip() drops a "\r".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        ignore = False
        if tokens and tokens[-1] == "#ignore":
            ignore = True
            tokens = tokens[:-1]
        coords = []
        for col, tok in enumerate(tokens, start=1):
            try:
                v = int(tok)
            except ValueError:
                v = None
            # int() also takes "1_0" and non-ASCII digits such as "\u0663"; a
            # coordinate is an optional sign and ASCII digits only.
            if v is None or "_" in tok or not tok.isascii():
                raise AnnotationError(
                    f"{source}:{lineno}: token {col} ({tok!r}) is not an integer")
            if v < 0:
                raise AnnotationError(
                    f"{source}:{lineno}: token {col} is negative ({v}); coordinates must be >= 0")
            coords.append(v)
        if len(coords) % 2:
            raise AnnotationError(
                f"{source}:{lineno}: odd coordinate count {len(coords)}")
        if len(coords) < 6:
            raise AnnotationError(
                f"{source}:{lineno}: {len(coords) // 2} vertices; a polygon needs at least 3")
        try:
            verts = np.array(coords, dtype=np.float64)
        except OverflowError:
            col = next(c for c, v in enumerate(coords, start=1) if v > sys.float_info.max)
            raise AnnotationError(
                f"{source}:{lineno}: token {col} ({len(tokens[col - 1])} digits) is too "
                "large for a float coordinate") from None
        polys.append(TextPolygon(verts.reshape(-1, 2)))
        flags.append(ignore)
    return polys, flags


def parse_annotations(path):
    """Parse an annotation file into (polygons, ignore flags).

    Raises AnnotationError with the offending line and token on any
    malformed input.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise AnnotationError(f"{path}: not valid UTF-8 ({e})") from None
    return parse_annotation_text(text, source=str(path))


def write_annotations(path, polygons, ignore=None) -> None:
    """Write an iterable of polygons one per line, rounding coordinates to integers."""
    polygons = list(polygons)
    flags = list(ignore) if ignore is not None else [False] * len(polygons)
    if len(flags) != len(polygons):
        raise AnnotationError(
            f"{path}: got {len(polygons)} polygons but {len(flags)} ignore flags")
    lines = []
    for poly, flag in zip(polygons, flags):
        pts = poly.vertices if isinstance(poly, TextPolygon) else np.asarray(poly, float)
        if not np.isfinite(pts).all():
            raise AnnotationError(f"{path}: non-finite vertex in polygon {pts.tolist()}")
        rounded = np.rint(pts).reshape(-1)
        if np.any(rounded < 0):
            raise AnnotationError(f"{path}: negative coordinate in polygon {pts.tolist()}")
        row = ",".join(str(int(v)) for v in rounded.tolist())
        lines.append(row + (",#ignore" if flag else ""))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


class _Reader:
    """Sequential reads from an open file of known size, with structured
    truncation errors."""

    def __init__(self, fh, source: str):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.source = source

    def _claim(self, n: int, what: str) -> None:
        if n < 0 or self.pos + n > self.size:
            raise MapFileError(
                f"{self.source}: truncated while reading {what} "
                f"(need {n} bytes at offset {self.pos}, have {self.size - self.pos})")
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        chunk = self.fh.read(n)
        if len(chunk) != n:
            raise MapFileError(f"{self.source}: file changed while reading {what}")
        return chunk

    def take_f8(self, dims: tuple[int, ...], what: str) -> np.ndarray:
        """Read a little-endian float64 array of shape dims straight into
        its buffer, once the file is known to hold it."""
        n = 8 * math.prod(dims)
        self._claim(n, what)
        arr = np.empty(dims, dtype="<f8")
        if self.fh.readinto(arr) != n:
            raise MapFileError(f"{self.source}: file changed while reading {what}")
        return arr

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def read_map(path) -> dict[str, np.ndarray]:
    """Read a TMAP container into an ordered name -> float64 array dict.

    Each payload is read straight into its array, after its declared size
    is checked against the bytes left in the file.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh, str(path))
        if r.take(4, "magic") != MAP_MAGIC:
            raise MapFileError(f"{path}: bad magic, not a map file")
        version = r.u16("version")
        if version != MAP_VERSION:
            raise MapFileError(f"{path}: unsupported version {version}")
        count = r.u16("section count")
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            name_len = r.u16(f"section {i} name length")
            raw = r.take(name_len, f"section {i} name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MapFileError(f"{path}: section {i} name is not valid UTF-8") from None
            if name in out:
                raise MapFileError(f"{path}: duplicate section name {name!r}")
            rank = r.u8(f"section {name!r} rank")
            if not 1 <= rank <= MAX_RANK:
                raise MapFileError(
                    f"{path}: section {name!r} rank {rank} outside 1..{MAX_RANK}")
            dims = tuple(r.u32(f"section {name!r} dim {d}") for d in range(rank))
            if any(d == 0 for d in dims):
                raise MapFileError(f"{path}: section {name!r} has a zero dimension {dims}")
            if math.prod(dims) > MAX_ELEMENTS:
                raise MapFileError(
                    f"{path}: section {name!r} dims {dims} overflow the element limit")
            arr = r.take_f8(dims, f"section {name!r} payload")
            if not np.all(np.isfinite(arr)):
                raise MapFileError(f"{path}: section {name!r} contains non-finite values")
            out[name] = arr.astype(np.float64, copy=False)
        if r.pos != r.size:
            raise MapFileError(f"{path}: {r.size - r.pos} trailing bytes after last section")
        return out


def write_map(path, sections) -> None:
    """Write named float64 arrays as a TMAP container (bit-exact round-trip)."""
    items = list(sections.items())
    if len(items) > 0xFFFF:
        raise MapFileError(f"{path}: too many sections ({len(items)})")
    chunks = [MAP_MAGIC, struct.pack("<HH", MAP_VERSION, len(items))]
    for name, values in items:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if not 1 <= arr.ndim <= MAX_RANK:
            raise MapFileError(f"{path}: section {name!r} rank {arr.ndim} outside 1..{MAX_RANK}")
        if arr.size == 0:
            raise MapFileError(f"{path}: section {name!r} is empty")
        if arr.size > MAX_ELEMENTS:
            raise MapFileError(f"{path}: section {name!r} exceeds the element limit")
        if not np.all(np.isfinite(arr)):
            raise MapFileError(f"{path}: section {name!r} contains non-finite values")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise MapFileError(f"{path}: section name too long ({len(encoded)} bytes)")
        if any(d > 0xFFFFFFFF for d in arr.shape):
            raise MapFileError(f"{path}: section {name!r} dimension exceeds u32")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def write_geometry_maps(path, maps: GeometryMaps) -> None:
    write_map(path, {name: getattr(maps, name) for name in CHANNELS})


def read_geometry_maps(path) -> GeometryMaps:
    sections = read_map(path)
    missing = [name for name in CHANNELS if name not in sections]
    if missing:
        raise MapFileError(f"{path}: missing map sections {missing}")
    return GeometryMaps(**{name: sections[name] for name in CHANNELS})


def _pgm_tokens(data: bytes, path, n: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    pos = 2  # after magic
    while len(tokens) < n:
        if pos >= len(data):
            raise ImageFormatError(f"{path}: truncated header")
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        elif c in b"0123456789":
            start = pos
            while pos < len(data) and data[pos] in b"0123456789":
                pos += 1
            tokens.append(int(data[start:pos]))
        else:
            raise ImageFormatError(f"{path}: unexpected header byte {bytes([c])!r}")
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise ImageFormatError(f"{path}: header not terminated by whitespace")
    return tokens, pos + 1


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a float64 (H, W) grid in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file")
    (w, h, maxval), pos = _pgm_tokens(data, path, 3)
    if w <= 0 or h <= 0:
        raise ImageFormatError(f"{path}: non-positive image size {w}x{h}")
    if not 0 < maxval < 256:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    need = w * h
    if len(data) - pos < need:
        raise ImageFormatError(f"{path}: truncated pixel data ({len(data) - pos} of {need} bytes)")
    if len(data) - pos > need:
        raise ImageFormatError(f"{path}: {len(data) - pos - need} trailing bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    over = np.flatnonzero(pixels > maxval)
    if over.size:
        y, x = divmod(int(over[0]), w)
        raise ImageFormatError(f"{path}: pixel ({x}, {y}) is {pixels[over[0]]}, "
                               f"above maxval {maxval}")
    return pixels.reshape(h, w).astype(np.float64) / maxval


def write_ppm(path, rgb) -> None:
    """Write a uint8 (H, W, 3) image as binary PPM (P6)."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageFormatError(f"{path}: expected (H, W, 3) image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr.astype(np.float64)), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(arr.tobytes())


def _offsets_in(c0: int, step: int, extent: int) -> tuple[int, int]:
    """Least and greatest o with 0 <= c0 + step * o < extent, step +-1."""
    return (-c0, extent - 1 - c0) if step > 0 else (c0 - extent + 1, c0)


def _line_pixels(x0: int, y0: int, x1: int, y1: int, h: int, w: int):
    """The x and the y coordinates, as two lists, of the pixels of the
    Bresenham line from (x0, y0) to (x1, y1) that lie in an h x w frame.

    The line takes one step along its major axis per pixel; after t steps
    its minor offset is floor((2 * minor * t + major) / (2 * major)), the
    integer error walk in closed form, ties rounding up. Both offsets only
    grow with t, so the in-frame pixels are one run of steps, found with
    exact integer arithmetic at any distance, and only those are visited.
    """
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx, sy = (1 if x0 < x1 else -1), (1 if y0 < y1 else -1)
    flip = dy > dx
    if flip:
        x0, y0, dx, dy, sx, sy, h, w = y0, x0, dy, dx, sy, sx, w, h
    lo, hi = _offsets_in(x0, sx, w)
    m_lo, m_hi = _offsets_in(y0, sy, h)
    lo, hi = max(lo, 0), min(hi, dx)
    if dy == 0:
        if not m_lo <= 0 <= m_hi:
            return [], []
    else:
        lo = max(lo, -((dx - 2 * dx * m_lo) // (2 * dy)))
        hi = min(hi, (2 * dx * (m_hi + 1) - dx - 1) // (2 * dy))
    den = 2 * dx or 1  # dx = 0 only for a single pixel, t = 0
    steps = range(lo, hi + 1)
    major = [x0 + sx * t for t in steps]
    minor = [y0 + sy * ((2 * dy * t + dx) // den) for t in steps]
    return (minor, major) if flip else (major, minor)


def draw_polygon_outline(rgb: np.ndarray, polygon, color=(255, 0, 0)) -> None:
    """Draw a 1-px polygon outline into an (H, W, 3) uint8 image, in place.

    Vertices are rounded to the nearest pixel and joined by Bresenham
    lines; only their in-frame pixels are visited, so far-off vertices
    cost nothing.
    """
    pts = polygon.vertices if isinstance(polygon, TextPolygon) else np.asarray(polygon, float)
    h, w = rgb.shape[:2]
    ends = [(int(round(x)), int(round(y))) for x, y in pts.tolist()]
    xs, ys = [], []
    for (x0, y0), (x1, y1) in zip(ends, ends[1:] + ends[:1]):
        ex, ey = _line_pixels(x0, y0, x1, y1, h, w)
        xs += ex
        ys += ey
    rgb[ys, xs] = color


@dataclass(frozen=True)
class SynthBand:
    """One synthetic text band: a sinusoidal centerline with a tube of
    constant thickness `height` around it.

    y(x) = y_center + amplitude * sin(2*pi*(x - x_start)/period + phase)
    over x in [x_start, x_end]; amplitude 0 gives a straight band.
    """

    y_center: float
    height: float
    x_start: float
    x_end: float
    amplitude: float = 0.0
    period: float = 64.0
    phase: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"band {name} must be finite, got {value}")
        if self.height <= 0:
            raise ValueError("band height must be positive")
        if self.x_end <= self.x_start:
            raise ValueError(f"empty band x range [{self.x_start}, {self.x_end}]")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")


@dataclass(frozen=True)
class SynthSpec:
    """A synthetic map instance: frame, bands, noise level, contrast gain.

    gamma in (0, 1] compresses the score maps toward the 0.5 decision level
    (gamma = 1 leaves them binary), modelling the washed-out contrast of
    dark scenes; noise_sigma adds Gaussian noise to every channel.
    """

    frame_h: int
    frame_w: int
    bands: tuple[SynthBand, ...]
    noise_sigma: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.frame_h <= 0 or self.frame_w <= 0:
            raise ValueError(f"frame must be positive, got {self.frame_h}x{self.frame_w}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if not self.bands:
            raise ValueError("spec needs at least one band")
        object.__setattr__(self, "bands", tuple(self.bands))
        for band in self.bands:
            xs, ys, _, hs = _band_samples(band)
            if xs[0] < 0 or xs[-1] > self.frame_w:
                raise ValueError(
                    f"band x range [{band.x_start}, {band.x_end}] outside frame width "
                    f"{self.frame_w}")
            lo = float(np.min(ys - hs / 2))
            hi = float(np.max(ys + hs / 2))
            if lo < 0 or hi > self.frame_h:
                raise ValueError(
                    f"band vertical extent [{lo:.1f}, {hi:.1f}] outside frame height "
                    f"{self.frame_h}")


def _band_samples(band: SynthBand):
    n = max(int(math.ceil(band.x_end - band.x_start)) + 1, 2)
    xs = np.linspace(band.x_start, band.x_end, n)
    if band.amplitude == 0.0:
        ys = np.full(n, band.y_center)
        thetas = np.zeros(n)
    else:
        k = 2.0 * math.pi / band.period
        arg = k * (xs - band.x_start) + band.phase
        ys = band.y_center + band.amplitude * np.sin(arg)
        thetas = np.arctan(band.amplitude * k * np.cos(arg))
    hs = np.full(n, float(band.height))
    return xs, ys, thetas, hs


def band_polygon(band: SynthBand, half_height_scale: float = 0.5) -> TextPolygon:
    """Offset-curve polygon around the band centerline (flat ends), a vertex every 3 px."""
    xs, ys, thetas, hs = _band_samples(band)
    idx = list(range(0, xs.size, 3))
    if idx[-1] != xs.size - 1:
        idx.append(xs.size - 1)
    sel = np.array(idx)
    nx, ny = -np.sin(thetas[sel]), np.cos(thetas[sel])
    half = hs[sel] * half_height_scale
    top = np.column_stack([xs[sel] - nx * half, ys[sel] - ny * half])
    bottom = np.column_stack([xs[sel] + nx * half, ys[sel] + ny * half])
    return TextPolygon(np.vstack([top, bottom[::-1]]))


# Side of the square pixel tiles of _nearest_sample, and the most bytes of
# one block of a tile's distances: blocks that stay in a core's cache made
# the search 13-37 % faster than whole-tile blocks on 128-1280 px frames.
_TILE = 32
_TILE_BLOCK_BYTES = 256 << 10


def _tile_axis(s: np.ndarray, n: int):
    """Squared distances along one axis from every sample coordinate s to
    the pixel centres of every tile of an n-pixel axis: (near, far), each
    (tiles, samples), to the nearest and to the farthest centre."""
    lo = np.arange(0, n, _TILE) + 0.5
    hi = np.minimum(lo + (_TILE - 1), n - 0.5)
    below = lo[:, None] - s
    above = s - hi[:, None]
    near = np.maximum(np.maximum(below, above), 0.0) ** 2
    far = np.maximum(-below, -above) ** 2
    return near, far


def _nearest_sample(sx: np.ndarray, sy: np.ndarray, h: int, w: int) -> np.ndarray:
    """(h, w) index of the sample (sx, sy) nearest to each pixel centre;
    ties go to the lowest index.

    The frame is cut into _TILE-pixel square tiles. Every pixel centre of a
    tile lies within U of its nearest sample, where U is the smallest, over
    samples, of the distance to the tile's farthest pixel centre. Only the
    samples within U (widened by a relative 1e-9 against rounding) of the
    tile's box of pixel centres can be nearest, so each tile computes
    (px - sx)**2 + (py - sy)**2 and its first argmin over those candidates
    alone, in index order: the same values and ties as over all samples.
    The (tiles, samples) bound matrices are built in blocks of tile rows of
    at most grids.CHUNK_BYTES, and a tile's distances in blocks of pixel
    rows of at most _TILE_BLOCK_BYTES.
    """
    px = np.arange(w) + 0.5
    py = np.arange(h) + 0.5
    near_x, far_x = _tile_axis(sx, w)
    near_y, far_y = _tile_axis(sy, h)
    n_cols = near_x.shape[0]
    out = np.empty((h, w), dtype=np.intp)
    # 8 bytes of distance and 1 of candidate mask per (tile, sample) pair
    block = max(1, grids.CHUNK_BYTES // (9 * n_cols * sx.size))
    for b0 in range(0, near_y.shape[0], block):
        dist = far_y[b0:b0 + block, None] + far_x
        bound = dist.min(axis=2, keepdims=True) * (1.0 + 1e-9)
        np.add(near_y[b0:b0 + block, None], near_x, out=dist)
        cands = dist <= bound
        del dist
        for (r, c), keep in zip(np.ndindex(cands.shape[:2]), cands.reshape(-1, sx.size)):
            idx = np.flatnonzero(keep)
            y0, x0 = (b0 + r) * _TILE, c * _TILE
            y1, x1 = min(y0 + _TILE, h), min(x0 + _TILE, w)
            dx2 = (px[x0:x1, None] - sx[idx]) ** 2
            dy2 = (py[y0:y1, None] - sy[idx]) ** 2
            step = max(1, _TILE_BLOCK_BYTES // (8 * dx2.size))
            for i in range(0, y1 - y0, step):
                d2 = dx2 + dy2[i:i + step, None]
                out[y0 + i:y0 + i + d2.shape[0], x0:x1] = idx[d2.argmin(axis=2)]
    return out


def synth_maps(spec: SynthSpec, seed: int = 0) -> tuple[GeometryMaps, list[TextPolygon]]:
    """Generate head maps plus exact ground-truth polygons for a spec.

    The text map is the rasterized union of the band polygons and the
    center map the rasterized half-height cores, so ground truth and maps
    agree by construction before degradation. Regression channels hold, at
    every pixel, the nearest centerline sample's absolute position, the
    band height and nominal width there, and the tangent angle. Of equally
    near samples the lowest index wins: bands in spec order, samples from
    x_start on. _nearest_sample finds them exactly, tile by tile: it bounds
    a 32 px tile's nearest distances by the smallest distance from a sample
    to the tile's farthest pixel centre and compares only the samples
    within that bound. Contrast
    compression (gamma) applies to the two score maps; noise to all
    channels, with scores clipped back to [0, 1]. Deterministic per seed.
    """
    h, w = spec.frame_h, spec.frame_w
    text = np.zeros((h, w), dtype=bool)
    center = np.zeros((h, w), dtype=bool)
    gt_polys: list[TextPolygon] = []
    all_x, all_y, all_theta, all_h = [], [], [], []
    for band in spec.bands:
        poly = band_polygon(band)
        gt_polys.append(poly)
        text |= rasterize(poly, h, w)
        center |= rasterize(band_polygon(band, half_height_scale=0.25), h, w)
        xs, ys, thetas, hs = _band_samples(band)
        all_x.append(xs)
        all_y.append(ys)
        all_theta.append(thetas)
        all_h.append(hs)
    sx = np.concatenate(all_x)
    sy = np.concatenate(all_y)
    stheta = np.concatenate(all_theta)
    sh = np.concatenate(all_h)

    nearest = _nearest_sample(sx, sy, h, w)
    x_chan = sx[nearest]
    y_chan = sy[nearest]
    h_chan = sh[nearest]
    t_chan = stheta[nearest]

    text_map = text.astype(np.float64)
    center_map = center.astype(np.float64)
    if spec.gamma != 1.0:
        text_map = 0.5 + spec.gamma * (text_map - 0.5)
        center_map = 0.5 + spec.gamma * (center_map - 0.5)
    w_chan = np.full((h, w), 4.0)
    channels = [text_map, center_map, x_chan, y_chan, h_chan, w_chan, t_chan]
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        channels = [c + rng.normal(0.0, spec.noise_sigma, (h, w)) for c in channels]
        channels[0] = np.clip(channels[0], 0.0, 1.0)
        channels[1] = np.clip(channels[1], 0.0, 1.0)
    maps = GeometryMaps(text=channels[0], center=channels[1], x=channels[2], y=channels[3],
                        h=channels[4], w=channels[5], theta=channels[6])
    return maps, gt_polys


def lowlight_suite(n: int, noise_sigma: float = 0.0, gamma: float = 1.0) -> list[SynthSpec]:
    """The low-light robustness suite: n 128x224 specs cycling through one
    straight band, one sinusoidal band (amplitude 4-12) and a sinusoidal
    band above a straight one, all degraded by the same (gamma,
    noise_sigma). The bands come from one fixed seed and depend only on
    the index, so every setting sees the same geometry. Callers render
    spec i with synth_maps seed 100 + i.
    """
    rng = np.random.default_rng(1)
    specs = []
    for i in range(n):
        kind = i % 3
        y_mid = float(rng.uniform(44, 84))
        height = float(rng.uniform(12, 17))
        amp = float(rng.uniform(4, 12))
        period = float(rng.uniform(70, 130))
        phase = float(rng.uniform(0, 6.28))
        x0, x1 = 14.0, 210.0
        if kind == 0:
            bands = (SynthBand(y_center=y_mid, height=height, x_start=x0, x_end=x1),)
        elif kind == 1:
            bands = (SynthBand(y_center=y_mid, height=height, x_start=x0, x_end=x1,
                               amplitude=amp, period=period, phase=phase),)
        else:
            bands = (SynthBand(y_center=40.0, height=height, x_start=x0, x_end=x1,
                               amplitude=min(amp, 8.0), period=period, phase=phase),
                     SynthBand(y_center=92.0, height=height, x_start=x0, x_end=x1))
        specs.append(SynthSpec(frame_h=128, frame_w=224, bands=bands,
                               noise_sigma=noise_sigma, gamma=gamma))
    return specs
