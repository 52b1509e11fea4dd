"""Observability: metrics registry, pipeline span tracing, exporters.

Usage pattern (the CLI's ``--trace`` / ``--metrics-out`` flags and the
benchmark snapshot hook all go through this)::

    from repro import obs

    with obs.observe(trace=True) as ob:
        frames = plan.collect_frames()          # instrumented run
    lines = obs.snapshot_lines(reports, tracer=ob.tracer, registry=ob.registry)
    obs.write_jsonl("run.jsonl", lines)

Everything is off by default: the engine's hot paths read the one
installed :class:`Observation` (:func:`current`) and do no registry or
span work while its sinks are None. See docs/observability.md.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, TypeVar

from .context import Observation, current, install
from .export import (
    collect_run,
    normalize_spans,
    register_build_info,
    snapshot_lines,
    to_prometheus,
    traces_to_chrome,
    traces_to_otlp,
    write_jsonl,
)
from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    get_registry,
    metrics_enabled,
)
from .slo import SLOBreach, SLOMonitor, SLOPolicy
from .timeline import (
    EventJournal,
    HealthModel,
    HealthPolicy,
    HealthReport,
    JournalEvent,
    MetricStore,
    QueryHealth,
    Rollup,
)
from .stats import (
    Reservoir,
    StageStats,
    StatsCollector,
    format_lineage,
    lineage,
)
from .trace import (
    FlightRecorder,
    FrameHop,
    FrameTrace,
    FrameTracer,
    TraceContext,
    hop_tree,
    render_waterfall,
    trace_source,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityError",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_registry",
    "metrics_enabled",
    "Span",
    "Tracer",
    "collect_run",
    "snapshot_lines",
    "to_prometheus",
    "write_jsonl",
    "normalize_spans",
    "traces_to_chrome",
    "traces_to_otlp",
    "TraceContext",
    "FrameHop",
    "FrameTrace",
    "FrameTracer",
    "FlightRecorder",
    "trace_source",
    "hop_tree",
    "render_waterfall",
    "Reservoir",
    "StageStats",
    "StatsCollector",
    "lineage",
    "format_lineage",
    "SLOPolicy",
    "SLOBreach",
    "SLOMonitor",
    "MetricStore",
    "Rollup",
    "EventJournal",
    "JournalEvent",
    "HealthModel",
    "HealthPolicy",
    "HealthReport",
    "QueryHealth",
    "register_build_info",
    "Observation",
    "current",
    "install",
    "observe",
]


_S = TypeVar("_S")


def _sink(arg: object, outer: _S | None, fresh: Callable[[], _S]) -> _S | None:
    """False inherits ``outer``, True makes a fresh sink, else ``arg`` is one."""
    if arg is False:
        return outer
    if arg is True:
        return fresh()
    return arg  # type: ignore[return-value]


@contextlib.contextmanager
def observe(
    trace: bool | Tracer = False,
    reset: bool = True,
    stats: bool | StatsCollector = False,
    frame_trace: bool | float | FrameTracer = False,
    store: bool | MetricStore = False,
    journal: bool | EventJournal = False,
) -> Iterator[Observation]:
    """Enable metrics (and optionally tracing/stage stats) for a block.

    Resets the process registry on entry by default so each observed run
    starts from clean counters, installs an :class:`Observation` derived
    from the current one, and reinstalls the previous observation on exit
    — nesting and test isolation both work. Each sink argument takes
    False (inherit the outer block's sink), True (a fresh default one),
    or a ready instance. With ``stats`` a :class:`StatsCollector` is
    installed, so DAG stages accumulate :class:`StageStats` and chunks
    carry provenance tags. With ``frame_trace`` (True, a 0..1
    head-sampling rate, or a :class:`FrameTracer`) delivered frames carry
    end-to-end :class:`FrameTrace` waterfalls kept by a
    :class:`FlightRecorder`. With ``store`` the DSMS samples the registry
    into rolling :class:`MetricStore` time-series rings on its
    logical-clock cadence; with ``journal`` operational events — SLO
    edges, epoch swaps, faults, shed escalations, dead letters — land in
    one bounded :class:`EventJournal`.
    """
    registry = get_registry()
    if reset:
        registry.reset()
    prev = current()
    if not isinstance(frame_trace, (bool, FrameTracer)):
        frame_trace = FrameTracer(sample_rate=float(frame_trace))
    ob = Observation(
        registry=registry,
        tracer=_sink(trace, prev.tracer, lambda: Tracer(registry)),
        stats=_sink(stats, prev.stats, StatsCollector),
        frame_tracer=_sink(frame_trace, prev.frame_tracer, FrameTracer),
        store=_sink(store, prev.store, MetricStore),
        journal=_sink(journal, prev.journal, EventJournal),
    )
    install(ob)
    try:
        yield ob
    finally:
        install(prev)
