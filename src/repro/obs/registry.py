"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The observability layer is deliberately pull-free and dependency-free: a
registry is a thread-safe in-process table of named instruments that the
engine, operators, and DSMS publish into while a run executes, and that
exporters (:mod:`repro.obs.export`) serialize afterwards. Instruments are
identified by ``(name, labels)`` so e.g. per-session delivery-lag
histograms coexist under one metric name, Prometheus-style.

Publishing is *opt-in*: every instrumented hot path first checks
:func:`metrics_enabled` (is a registry set in the installed
:class:`~repro.obs.context.Observation`?) and performs zero registry
work when observability is off — the acceptance bar for this subsystem is
that disabled tracing costs nothing beyond that check.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping, Sequence

from ..errors import GeoStreamsError
from .context import current

__all__ = [
    "ObservabilityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_registry",
    "metrics_enabled",
]


class ObservabilityError(GeoStreamsError):
    """The metrics registry or tracer was misused."""


# Wall-clock durations of per-chunk operator work (seconds): sub-ms for
# cheap restrictions up to whole-second reprojections.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Stream-time latencies (seconds): frame scans are minutes apart, so a
# composition waiting for its partner band can lag by hundreds of seconds.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity/locking for all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self._labels = labels
        self._lock = threading.Lock()

    @property
    def labels(self) -> dict[str, str]:
        return dict(self._labels)

    def snapshot(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        lbl = ", ".join(f"{k}={v}" for k, v in self._labels)
        return f"{type(self).__name__}({self.name}{'{' + lbl + '}' if lbl else ''})"


class Counter(_Instrument):
    """Monotonically increasing count (events, chunks, routed pairs)."""

    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
        }


class Gauge(_Instrument):
    """Point-in-time level (queue depth, shedder credit, stream clock)."""

    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
        }


class Histogram(_Instrument):
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``buckets`` are strictly increasing upper bounds; an implicit +Inf
    bucket catches the overflow. ``observe(v)`` lands ``v`` in the first
    bucket whose bound is >= v.
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: _LabelKey, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} buckets must be strictly increasing: {bounds}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 = the +Inf overflow bucket
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan: bucket lists are short (<= ~16) and the common case
        # lands early; bisect would not pay for itself here.
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts, overflow last."""
        return tuple(self._counts)

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending with (+inf, total)."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out

    def quantile(self, q: float) -> float | None:
        """Interpolated streaming quantile from the bucket counts.

        Linear interpolation within the bucket holding the requested
        rank (Prometheus ``histogram_quantile`` style), clamped by the
        observed min/max so estimates never leave the seen value range;
        the +Inf overflow bucket resolves to the observed max. Returns
        None before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            lo_seen, hi_seen = self._min, self._max
        total = sum(counts)
        if total == 0:
            return None
        if q == 0.0:
            return lo_seen
        if q == 1.0:
            return hi_seen
        target = q * total
        running = 0
        for i, n in enumerate(counts):
            if n and running + n >= target:
                if i >= len(self.buckets):  # overflow bucket: only max known
                    return hi_seen
                lower = self.buckets[i - 1] if i > 0 else lo_seen
                upper = self.buckets[i]
                if lo_seen is not None:
                    lower = max(lower if lower is not None else lo_seen, lo_seen)
                if hi_seen is not None:
                    upper = min(upper, hi_seen)
                if lower is None or upper < lower:
                    return upper
                frac = (target - running) / n
                return lower + frac * (upper - lower)
            running += n
        return hi_seen  # pragma: no cover - rank always lands in a bucket

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": self.labels,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "count": self.count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Thread-safe table of instruments, resettable per run.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name and labels return the same instrument, so hot paths
    can fetch handles once and publish through them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, str, _LabelKey], _Instrument] = {}

    def _get_or_create(
        self, cls: type[_Instrument], name: str, labels: Mapping[str, object], **kw: object
    ) -> _Instrument:
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                return existing
            for (kind, other_name, _), _m in self._metrics.items():
                if other_name == name and kind != cls.kind:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as a {kind}, "
                        f"cannot re-register as a {cls.kind}"
                    )
            metric = cls(name, _label_key(labels), **kw)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def __iter__(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every instrument (fresh registry for the next run)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> list[dict]:
        """Serializable state of every instrument, in registration order."""
        return [m.snapshot() for m in self]


# -- process-local default registry -------------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-local registry instrumented code publishes into."""
    return _registry


def metrics_enabled() -> bool:
    """Cheap hot-path guard: instrumented code publishes only when True."""
    return current().registry is not None
