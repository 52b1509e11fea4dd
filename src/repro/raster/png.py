"""Minimal PNG codec (stdlib ``zlib`` + ``struct`` only).

The paper's delivery operator "ships stream results back to clients using
the PNG image format" (Section 4). This module provides that capability
without external imaging libraries:

* encoder for grayscale 8-bit, grayscale 16-bit, and RGB 8-bit images,
  with the five standard scanline filters and an adaptive per-scanline
  filter chooser, all evaluated over the whole frame at once;
* decoder for the same color types, accepting any mix of filters
  (non-interlaced only — satellite products are not Adam7-interlaced).

Only the subset needed for image delivery is implemented; palettes, alpha,
ancillary chunks and interlacing are out of scope and rejected loudly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import CodecError

__all__ = ["encode_png", "decode_png", "encode_image", "FILTER_NAMES"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

FILTER_NAMES = {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized Paeth predictor over uint8 arrays of any shape.

    With ``p = a + b - c`` the three distances reduce to ``|b - c|``,
    ``|a - c|`` and ``|a + b - 2c|``, so only two int16 differences are
    materialized.
    """
    bc = b.astype(np.int16) - c
    ac = a.astype(np.int16) - c
    pc = np.abs(bc + ac)
    pa = np.abs(bc, out=bc)
    pb = np.abs(ac, out=ac)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _shift_right(frame: np.ndarray, n: int) -> np.ndarray:
    """``frame`` moved ``n`` bytes right along each row, zero-filled."""
    out = np.zeros_like(frame)
    out[:, n:] = frame[:, :-n]
    return out


def _filter_frame(raw: np.ndarray, bpp: int, strategy: str) -> np.ndarray:
    """Filter every scanline of the ``(h, stride)`` byte matrix at once.

    Returns the ``(h, stride + 1)`` array zlib compresses: the filter
    type in column 0 and the filtered bytes after it. Every predictor
    reads the previous *raw* row, so each candidate is one whole-frame
    expression; uint8 arithmetic wraps modulo 256 as the spec requires.
    """
    h, stride = raw.shape
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    left = _shift_right(raw, bpp)
    # Indexed by filter type: none, sub, up, average, paeth.
    predictors = (
        lambda: 0,
        lambda: left,
        lambda: up,
        lambda: (left & up) + ((left ^ up) >> 1),  # floor((a + b) / 2) in uint8
        lambda: _paeth_predictor(left, up, _shift_right(up, bpp)),
    )
    out = np.empty((h, stride + 1), dtype=np.uint8)
    if strategy != "adaptive":
        ftype = FILTER_NAMES[strategy]
        out[:, 0] = ftype
        np.subtract(raw, predictors[ftype](), out=out[:, 1:])
        return out
    candidates = np.empty((len(predictors), h, stride), dtype=np.uint8)
    for ftype, predict in enumerate(predictors):
        np.subtract(raw, predict(), out=candidates[ftype])
    # The PNG spec's heuristic: least sum of |signed byte| per row. For a
    # byte d that magnitude is min(d, 256 - d), i.e. min(d, -d) in uint8.
    # argmin keeps the first minimum, so ties go to the lowest filter type.
    magnitude = np.negative(candidates)
    np.minimum(candidates, magnitude, out=magnitude)
    choice = magnitude.sum(axis=2, dtype=np.int64).argmin(axis=0)
    out[:, 0] = choice
    out[:, 1:] = candidates[choice, np.arange(h)]
    return out


def _classify(values: np.ndarray) -> tuple[int, int, int]:
    """(color_type, bit_depth, channels) for an array, or raise."""
    if values.ndim == 2:
        if values.dtype == np.uint8:
            return 0, 8, 1
        if values.dtype == np.uint16:
            return 0, 16, 1
        raise CodecError(
            f"grayscale PNG needs uint8 or uint16 values, got {values.dtype}; "
            "scale float data first (see encode_image)"
        )
    if values.ndim == 3 and values.shape[2] == 3:
        if values.dtype == np.uint8:
            return 2, 8, 3
        raise CodecError(f"RGB PNG needs uint8 values, got {values.dtype}")
    raise CodecError(
        f"unsupported image shape {values.shape}; expected (h, w) or (h, w, 3)"
    )


def encode_png(
    values: np.ndarray,
    filter_strategy: str = "adaptive",
    compress_level: int = 6,
) -> bytes:
    """Encode a uint8/uint16 grayscale or uint8 RGB array as PNG bytes."""
    values = np.ascontiguousarray(values)
    if filter_strategy != "adaptive" and filter_strategy not in FILTER_NAMES:
        raise CodecError(
            f"unknown filter strategy {filter_strategy!r}; expected 'adaptive' "
            f"or one of {sorted(FILTER_NAMES)}"
        )
    color_type, bit_depth, channels = _classify(values)
    h, w = values.shape[:2]
    if h < 1 or w < 1:
        raise CodecError("cannot encode an empty image")

    if bit_depth == 16:
        payload = values.astype(">u2").tobytes()
    else:
        payload = values.tobytes()
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(h, stride)

    lines = _filter_frame(raw, bpp, filter_strategy)

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    idat = zlib.compress(lines, compress_level)
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_image(values: np.ndarray, auto_scale: bool = True) -> bytes:
    """Encode an arbitrary raster, auto-scaling floats to 8-bit grayscale.

    Integer arrays are encoded directly; float arrays (the usual case for
    derived products like NDVI) are min-max scaled to uint8 with NaN
    rendered as 0 when ``auto_scale`` is set.
    """
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.floating):
        if not auto_scale:
            raise CodecError("float images require auto_scale=True or manual scaling")
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            scaled = np.zeros(values.shape, dtype=np.uint8)
        else:
            lo, hi = float(finite.min()), float(finite.max())
            span = (hi - lo) if hi > lo else 1.0
            scaled = np.clip((values - lo) / span * 255.0, 0.0, 255.0)
            scaled = np.where(np.isfinite(values), scaled, 0.0).astype(np.uint8)
        return encode_png(scaled)
    if values.dtype in (np.dtype(np.uint8), np.dtype(np.uint16)):
        return encode_png(values)
    if np.issubdtype(values.dtype, np.integer):
        info_lo, info_hi = int(values.min()), int(values.max())
        if 0 <= info_lo and info_hi <= 255:
            return encode_png(values.astype(np.uint8))
        if 0 <= info_lo and info_hi <= 65535:
            return encode_png(values.astype(np.uint16))
        raise CodecError(
            f"integer image values in [{info_lo}, {info_hi}] do not fit PNG "
            "grayscale; rescale first"
        )
    raise CodecError(f"cannot encode dtype {values.dtype}")


def _unfilter_scanline(
    ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int
) -> np.ndarray:
    """Reverse one scanline filter in place-safe fashion."""
    out = line.astype(np.int32)
    if ftype == 0:
        pass
    elif ftype == 2:  # up — fully vectorizable
        out = (out + prev) & 0xFF
    elif ftype in (1, 3, 4):
        prev32 = prev.astype(np.int32)
        res = np.zeros_like(out)
        for i in range(out.shape[0]):
            left = res[i - bpp] if i >= bpp else 0
            up = prev32[i]
            if ftype == 1:
                pred = left
            elif ftype == 3:
                pred = (left + up) // 2
            else:
                upleft = prev32[i - bpp] if i >= bpp else 0
                p = left + up - upleft
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)
            res[i] = (out[i] + pred) & 0xFF
        out = res
    else:
        raise CodecError(f"unknown PNG filter type {ftype}")
    return out.astype(np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes into a numpy array (inverse of :func:`encode_png`)."""
    if not data.startswith(_SIGNATURE):
        raise CodecError("not a PNG: bad signature")
    pos = len(_SIGNATURE)
    ihdr: bytes | None = None
    idat = bytearray()
    seen_end = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise CodecError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise CodecError(f"truncated PNG chunk {tag!r}")
        crc_expected = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc_expected:
            raise CodecError(f"CRC mismatch in chunk {tag!r}")
        if tag == b"IHDR":
            ihdr = body
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            seen_end = True
            break
        # Ancillary chunks are skipped.
        pos += 12 + length
    if ihdr is None or not seen_end:
        raise CodecError("PNG missing IHDR or IEND")
    w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if comp != 0 or filt != 0:
        raise CodecError("unsupported PNG compression/filter method")
    if interlace != 0:
        raise CodecError("interlaced PNGs are not supported")
    if color_type == 0 and bit_depth in (8, 16):
        channels = 1
    elif color_type == 2 and bit_depth == 8:
        channels = 3
    else:
        raise CodecError(
            f"unsupported color type/bit depth combination ({color_type}, {bit_depth})"
        )
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    raw = zlib.decompress(bytes(idat))
    if len(raw) != h * (stride + 1):
        raise CodecError(
            f"decompressed size {len(raw)} does not match {h} scanlines of "
            f"{stride + 1} bytes"
        )
    flat = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    prev = np.zeros(stride, dtype=np.uint8)
    rows = np.empty((h, stride), dtype=np.uint8)
    for r in range(h):
        prev = _unfilter_scanline(int(flat[r, 0]), flat[r, 1:], prev, bpp)
        rows[r] = prev
    if bit_depth == 16:
        out = rows.reshape(h, w, 2).astype(np.uint16)
        values = (out[:, :, 0].astype(np.uint16) << 8) | out[:, :, 1]
        return values
    if channels == 3:
        return rows.reshape(h, w, 3)
    return rows.reshape(h, w)
