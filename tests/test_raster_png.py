"""PNG codec: round-trips across formats and filters, error handling."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CodecError
from repro.raster import decode_png, encode_image, encode_png
from repro.raster.png import FILTER_NAMES


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["none", "sub", "up", "average", "paeth", "adaptive"])
    def test_gray8_all_filters(self, strategy):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (23, 31), dtype=np.uint8)
        assert (decode_png(encode_png(img, filter_strategy=strategy)) == img).all()

    def test_gray16(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 65536, (9, 17), dtype=np.uint16)
        out = decode_png(encode_png(img))
        assert out.dtype == np.uint16
        assert (out == img).all()

    def test_rgb8(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (11, 7, 3), dtype=np.uint8)
        out = decode_png(encode_png(img))
        assert out.shape == (11, 7, 3)
        assert (out == img).all()

    def test_single_pixel(self):
        img = np.array([[42]], dtype=np.uint8)
        assert decode_png(encode_png(img))[0, 0] == 42

    def test_gradient_compresses_well(self):
        """Smooth imagery (the satellite case) should compress with filters."""
        row = np.arange(256, dtype=np.uint8)
        img = np.tile(row, (64, 1))
        adaptive = encode_png(img, filter_strategy="adaptive")
        unfiltered = encode_png(img, filter_strategy="none")
        assert len(adaptive) < len(unfiltered)

    @given(
        arr=hnp.arrays(
            dtype=np.uint8,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_gray8(self, arr):
        assert (decode_png(encode_png(arr)) == arr).all()

    @given(
        arr=hnp.arrays(
            dtype=np.uint16,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_gray16(self, arr):
        assert (decode_png(encode_png(arr)) == arr).all()


class TestEncodeImage:
    def test_float_auto_scales(self):
        img = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        data = encode_image(img)
        out = decode_png(data)
        assert out.dtype == np.uint8
        assert out.min() == 0 and out.max() == 255

    def test_nan_renders_black(self):
        img = np.array([[np.nan, 1.0], [0.0, 0.5]])
        out = decode_png(encode_image(img))
        assert out[0, 0] == 0

    def test_all_nan_is_black_frame(self):
        out = decode_png(encode_image(np.full((2, 2), np.nan)))
        assert (out == 0).all()

    def test_small_int_types_promoted(self):
        img = np.array([[1, 2], [3, 4]], dtype=np.int32)
        out = decode_png(encode_image(img))
        assert out.dtype == np.uint8

    def test_large_int_promoted_to_16bit(self):
        img = np.array([[1000, 40000]], dtype=np.int64)
        out = decode_png(encode_image(img))
        assert out.dtype == np.uint16

    def test_out_of_range_int_rejected(self):
        with pytest.raises(CodecError):
            encode_image(np.array([[-5]], dtype=np.int32))

    def test_float_without_autoscale_rejected(self):
        with pytest.raises(CodecError):
            encode_image(np.zeros((2, 2)), auto_scale=False)


class TestErrors:
    def test_bad_signature(self):
        with pytest.raises(CodecError, match="signature"):
            decode_png(b"JUNKJUNKJUNK")

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_png(np.zeros((4, 4), dtype=np.uint8)))
        # Corrupt one byte inside the IDAT payload.
        idat = data.find(b"IDAT")
        data[idat + 6] ^= 0xFF
        with pytest.raises(CodecError, match="CRC"):
            decode_png(bytes(data))

    def test_truncated(self):
        data = encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(CodecError):
            decode_png(data[: len(data) // 2])

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2), dtype=np.float32))

    def test_bad_shape_rejected(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_unknown_filter_strategy(self):
        with pytest.raises(CodecError):
            encode_png(np.zeros((2, 2), dtype=np.uint8), filter_strategy="bogus")

    def test_interlaced_rejected(self):
        # Hand-build an IHDR with interlace=1.
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 1)
        chunk = (
            struct.pack(">I", len(ihdr))
            + b"IHDR"
            + ihdr
            + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF)
        )
        idat_raw = zlib.compress(b"\x00\x00")
        idat = (
            struct.pack(">I", len(idat_raw))
            + b"IDAT"
            + idat_raw
            + struct.pack(">I", zlib.crc32(b"IDAT" + idat_raw) & 0xFFFFFFFF)
        )
        iend = struct.pack(">I", 0) + b"IEND" + struct.pack(">I", zlib.crc32(b"IEND") & 0xFFFFFFFF)
        data = b"\x89PNG\r\n\x1a\n" + chunk + idat + iend
        with pytest.raises(CodecError, match="[Ii]nterlaced"):
            decode_png(data)

    def test_filter_names_complete(self):
        assert FILTER_NAMES == {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}


def _reference_filter_rows(raw: np.ndarray, bpp: int, strategy: str) -> bytes:
    """Per-row reference filter: each scanline filtered on its own.

    Independent of the encoder's whole-frame path; ``encode_png`` must
    produce exactly the bytes this builds for every dtype and strategy.
    """
    out = bytearray()
    prev = np.zeros(raw.shape[1], dtype=np.int16)
    for row in raw.astype(np.int16):
        left = np.zeros_like(row)
        left[bpp:] = row[:-bpp]
        upleft = np.zeros_like(prev)
        upleft[bpp:] = prev[:-bpp]
        p = left + prev - upleft
        pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, upleft))
        candidates = {
            "none": row,
            "sub": row - left,
            "up": row - prev,
            "average": row - (left + prev) // 2,
            "paeth": row - paeth,
        }
        if strategy == "adaptive":
            # Minimum sum of |signed byte|; the first minimum wins ties.
            costs = {
                name: int(np.abs(((c & 0xFF) ^ 0x80) - 0x80).sum())
                for name, c in candidates.items()
            }
            name = min(candidates, key=lambda n: (costs[n], FILTER_NAMES[n]))
        else:
            name = strategy
        out.append(FILTER_NAMES[name])
        out.extend((candidates[name] & 0xFF).astype(np.uint8).tobytes())
        prev = row
    return bytes(out)


def _idat_payload(data: bytes) -> bytes:
    start = data.index(b"IDAT")
    (length,) = struct.unpack(">I", data[start - 4 : start])
    return zlib.decompress(data[start + 4 : start + 4 + length])


_STRATEGIES = ["none", "sub", "up", "average", "paeth", "adaptive"]


class TestEncoderBytes:
    """Pin the encoder's exact output, not only its round trip."""

    @given(
        arr=hnp.arrays(
            dtype=st.sampled_from([np.uint8, np.uint16]),
            shape=st.one_of(
                st.tuples(st.just(1), st.just(1)),
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
                st.tuples(st.integers(1, 24), st.integers(1, 24)),
                st.tuples(st.integers(1, 16), st.integers(1, 16), st.just(3)),
            ),
            elements=st.integers(0, 255),
            fill=st.nothing(),  # draw every byte; a constant fill hides predictor bugs
        ).map(lambda a: a.astype(np.uint8) if a.ndim == 3 else a),
        strategy=st.sampled_from(_STRATEGIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_reference(self, arr, strategy):
        if arr.dtype == np.uint16:
            # Spread 8-bit draws across both bytes of each sample.
            arr = arr * np.uint16(257) ^ np.uint16(0x1234)
        bpp = arr.itemsize * (3 if arr.ndim == 3 else 1)
        raw = np.frombuffer(
            arr.astype(arr.dtype.newbyteorder(">")).tobytes(), dtype=np.uint8
        ).reshape(arr.shape[0], -1)
        got = _idat_payload(encode_png(arr, filter_strategy=strategy))
        assert got == _reference_filter_rows(raw, bpp, strategy)

    @pytest.mark.parametrize(
        "image, strategy, digest",
        [
            ("gray8", "adaptive", "5fa60044eb46cafa"),
            ("gray8", "paeth", "757b51c1f64bae6e"),
            ("gray16", "adaptive", "1d5a4a5d9449a1ee"),
            ("gray16", "paeth", "f5e6328826670033"),
            ("rgb8", "adaptive", "7d8056c6a7718e62"),
            ("rgb8", "paeth", "30b365bb4d45c6c3"),
        ],
    )
    def test_golden_digests(self, image, strategy, digest):
        y, x = np.mgrid[0:96, 0:192]
        g8 = ((x * 7 + y * 13 + (x * y) % 17) % 256).astype(np.uint8)
        images = {
            "gray8": g8,
            "gray16": (x * 331 + y * 977 + (x * y) % 4099).astype(np.uint16),
            "rgb8": np.stack([g8, g8[::-1], g8 ^ 0x5A], axis=2),
        }
        data = encode_png(images[image], filter_strategy=strategy)
        assert hashlib.sha256(data).hexdigest()[:16] == digest
