"""A3 — ablation: PNG delivery encoding (Section 4's delivery format).

Measures encode/decode throughput of the from-scratch codec on
satellite-like imagery and the compression effect of scanline filters —
smooth imagery (the satellite case) compresses markedly better with the
adaptive filter chooser. ``test_encode_time_snapshot`` writes
``BENCH_a3_png_delivery.json``: encode milliseconds per filter strategy on
the 192x96 frame and on a 60x30 regional-size crop of it (width x height).
"""

import time

import numpy as np
import pytest

from repro.raster import decode_png, encode_png

from conftest import BENCH_SMOKE, make_imager, write_bench_snapshot

STRATEGIES = ("none", "sub", "up", "average", "paeth", "adaptive")
ENCODE_REPEATS = 5 if BENCH_SMOKE else 40

# Encode milliseconds (best of 40) of the previous encoder, which filtered
# one scanline at a time: commit 6a39449 on the same frames, measured on a
# 2-core x86-64 Linux machine under Python 3.11 / numpy 2.4. The snapshot
# states the speed-up against these figures.
PREVIOUS_ENCODE_MS = {
    "192x96": {
        "none": 2.545, "sub": 2.598, "up": 2.527,
        "average": 2.497, "paeth": 2.371, "adaptive": 4.877,
    },
    "60x30": {
        "none": 0.674, "sub": 0.639, "up": 0.621,
        "average": 0.619, "paeth": 0.620, "adaptive": 1.288,
    },
}


@pytest.fixture(scope="module")
def satellite_image(scene, geos_crs):
    imager = make_imager(scene, geos_crs, width=192, height=96, n_frames=1)
    frame = imager.stream("vis").collect_frames()[0]
    # 10-bit counts scaled into 8 bits, as the delivery path does.
    return (frame.values.astype(np.float64) / 1023.0 * 255.0).astype(np.uint8)


@pytest.mark.parametrize("strategy", ["none", "sub", "up", "paeth", "adaptive"])
def test_encode_throughput(benchmark, satellite_image, strategy):
    benchmark(encode_png, satellite_image, strategy)


def test_decode_throughput(benchmark, satellite_image):
    data = encode_png(satellite_image)
    out = benchmark(decode_png, data)
    assert (out == satellite_image).all()


def test_adaptive_filter_compresses_smooth_imagery(benchmark, claims, satellite_image):
    sizes = {
        strategy: len(encode_png(satellite_image, strategy))
        for strategy in ("none", "adaptive")
    }
    benchmark.pedantic(
        lambda: encode_png(satellite_image, "adaptive"), rounds=3, iterations=1
    )
    ratio = sizes["adaptive"] / sizes["none"]
    claims.record(
        "A3",
        "adaptive/unfiltered PNG size on satellite frame",
        f"{ratio:.2f}",
        "< 1.0 (filters help smooth data)",
        ratio < 1.0,
    )


def test_roundtrip_lossless_on_products(benchmark, claims, scene, geos_crs):
    """The delivery path must not corrupt data products."""
    imager = make_imager(scene, geos_crs, width=96, height=48, n_frames=1)
    frame = imager.stream("vis").collect_frames()[0]

    def roundtrip():
        data = encode_png(frame.values.astype(np.uint16))
        return decode_png(data)

    out = benchmark(roundtrip)
    ok = bool((out == frame.values).all())
    claims.record(
        "A3",
        "PNG 16-bit round-trip lossless",
        ok,
        "bit-exact",
        ok,
    )


def _best_encode_ms(image, strategy):
    best = float("inf")
    for _ in range(ENCODE_REPEATS):
        t0 = time.perf_counter()
        encode_png(image, strategy)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def test_encode_time_snapshot(satellite_image):
    """Encode time per strategy, against the previous snapshot's figures."""
    frames = {"192x96": satellite_image, "60x30": satellite_image[:30, :60]}
    encode_ms = {
        size: {s: _best_encode_ms(image, s) for s in STRATEGIES}
        for size, image in frames.items()
    }
    write_bench_snapshot(
        "a3_png_delivery",
        {
            "repeats": ENCODE_REPEATS,
            "encode_ms": encode_ms,
            "previous": {"commit": "6a39449", "encode_ms": PREVIOUS_ENCODE_MS},
            "speedup": {
                size: {s: PREVIOUS_ENCODE_MS[size][s] / ms for s, ms in row.items()}
                for size, row in encode_ms.items()
            },
        },
    )
