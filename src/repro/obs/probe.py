"""One accounting hook per physical operator, shared by both executors.

The pull executor (:mod:`repro.engine.pipeline`) and the push
``PlanDAG`` (:mod:`repro.plan.stages`) run the same operators; a
:class:`StageProbe` is the single place where one operator step is
recorded into whichever observability sinks are installed — the span
(plus the ``pipeline_op_seconds`` histogram), the ``StageStats`` ledger,
the provenance tag, and the frame-trace hop. Both executors therefore
report identical counters for the same work.

Executors ask :func:`installed_sinks` whether a step needs a probe at
all; it returns the installed :class:`~repro.obs.context.Observation`
or None. When it returns None the executor runs the operator untimed: no
``perf_counter``, no allocation. Otherwise it times the step itself and
hands the outputs to :meth:`StageProbe.step`. Span *parenting* stays with
the executor (push parents on the consumer stage, pull on the upstream
stream); the executor passes the opened span in.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING

from ..core.chunk import Chunk, chunk_time
from ..core.provenance import Provenance
from .context import Observation, current
from .stats import StageStats, StatsCollector
from .trace import FrameTracer, TraceContext
from .tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..operators.base import BinaryOperator, Operator

__all__ = ["StageProbe", "installed_sinks"]


def installed_sinks(traced: bool = True) -> Observation | None:
    """The sinks one step must feed, or None for the untimed fast path.

    ``traced`` says whether the step carries a frame-trace context (an
    input chunk's ``trace``, or contexts a buffering operator still
    holds at flush). A frame tracer alone needs nothing from an untraced
    step: sampling already happened at the source.
    """
    ob = current()
    if ob.tracer is None and ob.stats is None and (ob.frame_tracer is None or not traced):
        return None
    return ob


class StageProbe:
    """Per-operator accounting state, keyed like its ``StageStats`` ledger.

    ``key`` is the subplan fingerprint (or ``pull:<name>`` for an
    unstamped pull operator); spans, stats, provenance stage marks and
    frame-trace hops all use it, so every view cross-references.
    """

    __slots__ = (
        "key", "label", "kind", "name", "hop_kind", "span", "tracer",
        "collector", "stats", "prov", "ftracer", "pending", "frame_only",
    )

    def __init__(self, key: str, label: str, kind: str, name: str, hop_kind: str = "stage") -> None:
        self.key = key
        self.label = label
        self.kind = kind
        self.name = name
        self.hop_kind = hop_kind
        self.span: Span | None = None
        self.tracer: Tracer | None = None
        self.collector: StatsCollector | None = None
        self.stats: StageStats | None = None
        # Cumulative merged provenance of everything this operator has
        # eaten; sound for buffering operators (outputs are tagged with
        # at least the scans that could have contributed).
        self.prov: Provenance | None = None
        self.ftracer: FrameTracer | None = None
        # Trace contexts consumed since the last emission (a buffering
        # operator's eventual outputs merge these).
        self.pending: list[TraceContext] = []
        self.frame_only = False

    @classmethod
    def for_operator(cls, op: "Operator | BinaryOperator") -> "StageProbe":
        """Probe for a pull operator, keyed by its lowered plan stamp."""
        fp = op.plan_fingerprint
        return cls(
            fp or f"pull:{op.name}",
            op.plan_label or op.name,
            op.plan_kind or type(op).__name__,
            op.name,
            hop_kind="stage" if fp else "pull",
        )

    def bind(self, ob: Observation, span: Span | None) -> "StageProbe":
        """Point the probe at the installed sinks (cheap when unchanged).

        The span tracer counts only when the executor opened ``span``.
        """
        collector = ob.stats
        ftracer = ob.frame_tracer
        self.span = span
        self.tracer = ob.tracer if span is not None else None
        if collector is not self.collector:
            self.collector = collector
            self.stats = (
                None
                if collector is None
                else collector.stage(self.key, label=self.label, kind=self.kind)
            )
        if ftracer is not self.ftracer:
            self.ftracer = ftracer
            self.pending = []
        self.frame_only = span is None and collector is None
        return self

    def step(self, chunk: Chunk | None, outs: list[Chunk], t0: float, t1: float) -> list[Chunk]:
        """Account one processing call (``chunk`` None for a flush).

        Returns ``outs``, re-stamped with this operator's provenance tag
        and frame-trace context when either applies.
        """
        wall_s = t1 - t0
        chunks_out = len(outs)
        points_out = sum(c.n_points for c in outs)
        points_in = 0 if chunk is None else chunk.n_points
        stamp: dict[str, object] = {}
        span = self.span
        if span is not None:
            if chunk is None:
                span.record(points_in, points_out, chunks_out, wall_s, chunks_in=0)
                span.finish()
            else:
                span.record(points_in, points_out, chunks_out, wall_s, stream_t=chunk_time(chunk))
                assert self.tracer is not None
                self.tracer.observe_operator(self.name, wall_s)
        stats = self.stats
        if stats is not None:
            stats.observe(
                points_in=points_in,
                points_out=points_out,
                bytes_in=0 if chunk is None else chunk.nbytes,
                bytes_out=sum(c.nbytes for c in outs),
                chunks_out=chunks_out,
                wall_s=wall_s,
                chunks_in=0 if chunk is None else 1,
            )
            assert self.collector is not None
            if self.collector.provenance:
                if chunk is not None and chunk.provenance is not None:
                    prov = self.prov
                    self.prov = chunk.provenance if prov is None else prov.merge(chunk.provenance)
                if self.prov is not None and outs:
                    stamp["provenance"] = self.prov.with_stage(self.key)
        ftracer = self.ftracer
        if ftracer is not None:
            if chunk is None:
                # A flush is accounted against the oldest held context
                # (its queue wait is the time spent buffered).
                ctx = self.pending[0] if self.pending else None
            else:
                ctx = chunk.trace
                if ctx is not None:
                    self.pending.append(ctx)
            if ctx is not None:
                ftracer.record_hop(
                    ctx, key=self.key, label=self.label, kind=self.hop_kind,
                    t0=t0, t1=t1, points_in=points_in, points_out=points_out,
                    chunks_out=chunks_out,
                )
                if outs:
                    stamp["trace"] = ftracer.output_ctx(self.pending, self.key)
                    self.pending = []
        if stamp:
            return [dc_replace(c, **stamp) for c in outs]
        return outs
