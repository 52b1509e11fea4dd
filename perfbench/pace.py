"""Machine-speed normalization and the pull clock.

On a shared host the same code runs at very different speeds from one
second to the next: a fixed CPU loop here swings by 1.7x over seconds.
Medians alone cannot hide that from a comparison of two runs made
minutes apart, so every end-to-end time is rescaled to a reference speed.

``Speedometer`` times a fixed yardstick (interpreter work, small numpy
calls and zlib, the program's own mix but none of its code) every
``SAMPLE_EVERY_S`` seconds while the downlink is being pulled, and before
and after the work that has no pulls (registration, set-up). A time
measured at local yardstick time ``y`` is reported as
``measured * REFERENCE_S / y``: the time on a machine where the
yardstick takes ``REFERENCE_S``. For a request or a frame latency ``y``
is the mean of the samples within 25 ms (each batch of request lines is
bracketed by samples); for a ``run()`` call or a set-up it is the mean
over the call. Yardstick time spent inside ``run()`` or set-up is
subtracted from its wall time. A program change moves the reported
times exactly as it moves the measured ones, because the yardstick does
not run program code.
"""

from __future__ import annotations

import bisect
import statistics
import zlib
from time import perf_counter
from typing import Iterator

import numpy as np

from repro.core.chunk import Chunk

# Yardstick seconds on the reference machine speed, and the sampling period.
REFERENCE_S = 0.0005
SAMPLE_EVERY_S = 0.02
# A short time measured at t is scaled by the yardstick samples within this
# many seconds of t (at least MIN_SAMPLES of them, the nearest ones). The
# host switches between a fast and a slow speed every second or so, so the
# window must be short.
HALF_WINDOW_S = 0.025
MIN_SAMPLES = 2
# Samples on each side of a batch of request lines.
BRACKET_SAMPLES = 8

class _Row:
    __slots__ = ("values", "t", "row")

    def __init__(self, values: np.ndarray, t: float, row: int) -> None:
        self.values = values
        self.t = t
        self.row = row


def _rows(n: int, base: np.ndarray) -> Iterator[_Row]:
    for r in range(n):
        yield _Row(base + r, float(r), r)


_BASE = np.arange(256, dtype=np.float64)


def yardstick() -> float:
    """Fixed work shaped like the server's per-row work, in none of its code.

    A generator of small slotted objects, ufuncs and a boolean mask on one
    256-wide row, a dict update and a zlib compression per row: the same
    interpreter, numpy-call and zlib mix, so contention slows it about as
    much as it slows the program.
    """
    acc = 0.0
    table: dict[int, int] = {}
    for row in _rows(24, _BASE):
        v = np.clip(row.values * 0.5 + 1.0, 0.0, 200.0)
        mask = v > 50.0
        acc += float(v[mask].sum()) if mask.any() else 0.0
        table[row.row & 7] = table.get(row.row & 7, 0) + 1
        acc += len(zlib.compress(v.astype(np.uint8).tobytes(), 6))
    return acc


class Speedometer:
    """Yardstick samples over time, and the scale factors they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # yardstick seconds
        self.times: list[float] = []  # when each sample was taken
        self.spent = 0.0
        self._last = perf_counter()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            yardstick()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.times.append(t1)
            self.spent += t1 - t0
            self._last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale_between(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean yardstick time in [start, end].

        Widened to the ``MIN_SAMPLES`` samples nearest the interval when
        it holds fewer.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.times):
                hi += 1
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi])

    def scale_at(self, t: float) -> float:
        """Scale for a time measured at ``t``: samples within ``HALF_WINDOW_S``."""
        return self.scale_between(t - HALF_WINDOW_S, t + HALF_WINDOW_S)


class PullClock:
    """When the server last pulled a source chunk, with speed samples between pulls."""

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.last_pull = 0.0

    def stamp(self, chunks: Iterator[Chunk]) -> Iterator[Chunk]:
        for chunk in chunks:
            self.speed.maybe_sample()
            self.last_pull = perf_counter()
            yield chunk
