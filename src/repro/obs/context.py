"""The one installed observation: which sinks observe the running code.

Every observability sink — span tracer, stage-stats collector, frame
tracer, metric store, event journal — and the metrics on/off switch live
in a single frozen :class:`Observation`. Exactly one is installed at a
time; instrumented code reads it with :func:`current` (once per run,
open, or step) and finds a field None when that sink is off.
:func:`repro.obs.observe` swaps a derived observation in for a block and
the previous one back out; code that needs an exact configuration (for
instance a frame tracer with metrics off) calls :func:`install` itself
and restores what it returned.

This module imports nothing at run time, so every other module of
``repro.obs`` can read the installed observation without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import MetricsRegistry
    from .stats import StatsCollector
    from .timeline import EventJournal, MetricStore
    from .trace import FrameTracer
    from .tracing import Tracer

__all__ = ["Observation", "current", "install"]


@dataclass(frozen=True, slots=True)
class Observation:
    """The installed sinks; None means that sink is off.

    ``registry`` None means metrics are off: instrumented code publishes
    into the process registry only while it is set.
    """

    registry: MetricsRegistry | None = None
    tracer: Tracer | None = None
    stats: StatsCollector | None = None
    frame_tracer: FrameTracer | None = None
    store: MetricStore | None = None
    journal: EventJournal | None = None


_active = Observation()


def current() -> Observation:
    """The installed observation (all None when nothing observes)."""
    return _active


def install(ob: Observation) -> Observation:
    """Install ``ob`` and return the observation it replaces."""
    global _active
    previous = _active
    _active = ob
    return previous
