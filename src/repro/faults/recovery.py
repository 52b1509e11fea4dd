"""Failure recovery: backoff, quarantine, frame guarding, resilient sources.

TerraServer's operational lesson (Barclay/Gray/Slutz) is that availability
comes from *systematic failure drills*, not failure-free design. This
module is the drill's recovery side, matched one-to-one to the fault
classes of :mod:`repro.faults.injector`:

========================  ==============================================
fault                     recovery path
========================  ==============================================
disconnect                :func:`resilient_stream` — retry with
                          exponential backoff + jitter and a deadline,
                          resuming after the last delivered chunk
drop / truncate           :class:`FrameGuard` quarantines the incomplete
                          frame so partial imagery is never delivered
dup                       :class:`FrameGuard` suppresses the duplicate
reorder                   :class:`FrameGuard` re-sorts the frame's rows
                          into canonical scan order before release
bitflip / outrange        :class:`FrameGuard` value-set validation routes
                          the poison chunk to the dead-letter sink
stall                     a simulated clock records the delay; the DSMS
                          escalates load shedding under sustained stall
operator error            the engine/push network quarantines the chunk
                          via :meth:`RecoveryContext.guard` instead of
                          crashing the pipeline
========================  ==============================================

Everything is deterministic under a fixed seed (the stream-as-function
view of Herbst et al.: a recovered stream must be *semantically equal* to
the unfaulted one for every timestamp it still delivers), and everything
is observable through ``repro_faults_*`` metrics.

Recovery is opt-in, mirroring the observability layer: install a
:class:`RecoveryContext` (usually via the :func:`recovering` context
manager) and the engine, push PlanDAG, stream generator, and DSMS all
degrade gracefully instead of raising. With no context installed they
behave exactly as before — fail fast.
"""

from __future__ import annotations

import contextlib
import random
import time as _time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterator, Optional

import numpy as np

from ..core.chunk import Chunk, GridChunk
from ..core.stream import GeoStream
from ..core.valueset import ValueSet
from ..errors import GeoStreamsError, RecoveryExhausted, SourceDisconnected
from ..obs.context import current
from ..obs.registry import get_registry, metrics_enabled
from ..operators.base import BinaryOperator, Operator

__all__ = [
    "SimClock",
    "SystemClock",
    "BackoffPolicy",
    "DeadLetter",
    "DeadLetterSink",
    "RecoveryContext",
    "current_recovery",
    "install_recovery",
    "clear_recovery",
    "recovering",
    "resilient_stream",
    "FrameGuard",
]


# -- clocks -----------------------------------------------------------------


class SimClock:
    """Deterministic simulated clock: ``sleep`` advances time instantly.

    The stall injector and the backoff scheduler both sleep on a clock;
    using a :class:`SimClock` makes stalls and retry schedules exact and
    free of wall-clock time, so chaos tests are bit-reproducible and
    timing-robust on loaded CI machines.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.total_slept = 0.0
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self._now += seconds
        self.total_slept += seconds
        self.sleeps.append(seconds)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:g}, slept={self.total_slept:g}s)"


class SystemClock:
    """Wall-clock implementation of the same interface (production use)."""

    def now(self) -> float:
        return _time.monotonic()

    def sleep(self, seconds: float) -> None:
        _time.sleep(max(0.0, seconds))


# -- backoff ----------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic jitter and a hard deadline.

    ``schedule()`` is a pure function of the policy (including its seed):
    retry delay *i* is ``min(base * factor**i, max_delay)`` stretched by a
    jitter factor in ``[1, 1 + jitter]`` drawn from a seeded RNG. Recovery
    gives up — raising :class:`~repro.errors.RecoveryExhausted` — after
    ``max_retries`` attempts or once cumulative backoff would exceed
    ``deadline`` seconds, whichever comes first.
    """

    base: float = 0.5
    factor: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.25
    max_retries: int = 8
    deadline: float = 600.0
    seed: int = 0

    def schedule(self) -> list[float]:
        """The full deterministic delay sequence for one recovery episode."""
        rng = random.Random(self.seed)
        return [
            min(self.base * self.factor**i, self.max_delay) * (1.0 + self.jitter * rng.random())
            for i in range(self.max_retries)
        ]


# -- dead-letter sink -------------------------------------------------------


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined item: the poison data plus why and where it died."""

    item: object
    reason: str
    stage: str
    error: str = ""


class DeadLetterSink:
    """Bounded store of quarantined chunks/records (never crashes the run).

    Poison data is routed here instead of propagating an exception through
    the pipeline; the ``repro_faults_quarantined_total`` counter (labelled
    by reason) and the ``repro_faults_dead_letter_depth`` gauge track it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.entries: list[DeadLetter] = []
        self.total = 0
        self.dropped = 0  # entries evicted once capacity was reached

    def add(self, item: object, reason: str, stage: str = "", error: str = "") -> None:
        self.total += 1
        if len(self.entries) >= self.capacity:
            self.entries.pop(0)
            self.dropped += 1
        self.entries.append(DeadLetter(item, reason, stage, error))
        if metrics_enabled():
            registry = get_registry()
            registry.counter("repro_faults_quarantined_total", reason=reason).inc()
            registry.gauge("repro_faults_dead_letter_depth").set(len(self.entries))

    @property
    def by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.reason] = out.get(entry.reason, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"DeadLetterSink({self.total} quarantined, {len(self.entries)} held)"


# -- recovery context -------------------------------------------------------


@dataclass
class RecoveryContext:
    """Shared recovery state: clock, backoff policy, dead-letter, knobs.

    Installing a context (see :func:`recovering`) switches the engine, the
    push PlanDAG, the stream generator, and the DSMS from fail-fast to
    degrade-gracefully. All recovery decisions and all quarantined data
    flow through this object, so one context gives a complete post-mortem
    of a chaotic run.
    """

    clock: SimClock | SystemClock = field(default_factory=SimClock)
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    dead_letter: DeadLetterSink = field(default_factory=DeadLetterSink)
    # Per-chunk operator wall-clock budget; exceeding it only counts (the
    # result is still used — a slow answer beats no answer).
    op_timeout_s: Optional[float] = None
    # A clock gap at least this long between consecutive scan chunks is a
    # stall; the DSMS escalates its ingest shedder when it sees one.
    stall_threshold_s: float = 10.0
    # Consecutive normal-gap chunks before escalated shedding relaxes.
    stall_relax_after: int = 16
    # -- episode counters ---------------------------------------------------
    retries: int = 0
    stalls_observed: int = 0
    op_timeouts: dict[str, int] = field(default_factory=dict)
    sources_lost: int = 0

    # -- quarantine ---------------------------------------------------------

    def quarantine(
        self, item: object, reason: str, stage: str = "", error: Exception | None = None
    ) -> None:
        self.dead_letter.add(item, reason, stage, str(error) if error else "")
        ob = current()
        journal = ob.journal
        if journal is not None:
            # Same string the flight recorder pins with, so the journal
            # entry clicks through to the quarantined frame's capture.
            journal.append(
                "dead-letter",
                reason=f"{reason} stage={stage}" if stage else reason,
                link=f"recovery:quarantined:{reason}",
                t=self.clock.now(),
            )
        ftr = ob.frame_tracer
        if ftr is not None:
            tctx = getattr(item, "trace", None)
            if tctx is not None:
                # Dead-lettered data auto-pins its frame trace: the flight
                # recorder keeps the hop history of exactly the frames that
                # lost chunks to quarantine.
                ftr.annotate(tctx, f"recovery:quarantined:{reason}", pin=True)

    # -- pipeline guard -----------------------------------------------------

    def guard(
        self, op: "Operator | BinaryOperator", chunk: Chunk, side: str | None = None
    ) -> list[Chunk]:
        """Run one operator step, quarantining the chunk on library errors.

        The poison chunk goes to the dead-letter sink and the pipeline
        continues; only non-GeoStreams exceptions (genuine bugs) propagate.
        """
        t0 = _time.perf_counter() if self.op_timeout_s is not None else 0.0
        try:
            outs = list(
                op.process_side(side, chunk) if side is not None else op.process(chunk)
            )
        except GeoStreamsError as exc:
            self.quarantine(chunk, reason="operator-error", stage=op.name, error=exc)
            return []
        if (
            self.op_timeout_s is not None
            and _time.perf_counter() - t0 > self.op_timeout_s
        ):
            self.note_timeout(op.name)
        return outs

    def guard_flush(self, op: "Operator | BinaryOperator") -> list[Chunk]:
        try:
            return list(op.flush())
        except GeoStreamsError as exc:
            self.quarantine(None, reason="flush-error", stage=op.name, error=exc)
            return []

    # -- event notes --------------------------------------------------------

    def note_retry(self, stream_id: str, delay: float) -> None:
        self.retries += 1
        if metrics_enabled():
            registry = get_registry()
            registry.counter("repro_faults_retries_total", stream=stream_id).inc()
            registry.gauge("repro_faults_backoff_seconds", stream=stream_id).set(delay)
        journal = current().journal
        if journal is not None:
            # "recovery:reconnect" is a prefix of the resilient stream's
            # trace annotation, so captures() can match the pinned frame.
            journal.append(
                "reconnect",
                reason=f"stream={stream_id} backoff={delay:g}s",
                link="recovery:reconnect",
                t=self.clock.now(),
            )

    def note_exhausted(self, stream_id: str) -> None:
        self.sources_lost += 1
        if metrics_enabled():
            get_registry().counter(
                "repro_faults_recovery_exhausted_total", stream=stream_id
            ).inc()
        journal = current().journal
        if journal is not None:
            journal.append(
                "recovery-exhausted",
                reason=f"stream={stream_id}",
                t=self.clock.now(),
            )

    def note_stall(self) -> None:
        self.stalls_observed += 1
        if metrics_enabled():
            get_registry().counter("repro_faults_stalls_total").inc()
        journal = current().journal
        if journal is not None:
            journal.append("stall", t=self.clock.now())

    def note_timeout(self, op_name: str) -> None:
        self.op_timeouts[op_name] = self.op_timeouts.get(op_name, 0) + 1
        if metrics_enabled():
            get_registry().counter("repro_faults_op_timeouts_total", op=op_name).inc()


_current: RecoveryContext | None = None


def current_recovery() -> RecoveryContext | None:
    """The installed recovery context, or None (fail-fast mode)."""
    return _current


def install_recovery(context: RecoveryContext) -> RecoveryContext:
    global _current
    _current = context
    return context


def clear_recovery() -> None:
    global _current
    _current = None


@contextlib.contextmanager
def recovering(context: RecoveryContext | None = None) -> Iterator[RecoveryContext]:
    """Install a recovery context for the duration of a block (nestable)."""
    context = context if context is not None else RecoveryContext()
    previous = _current
    install_recovery(context)
    try:
        yield context
    finally:
        if previous is None:
            clear_recovery()
        else:
            install_recovery(previous)


# -- resilient source -------------------------------------------------------


def resilient_stream(
    stream: GeoStream,
    policy: BackoffPolicy | None = None,
    clock: SimClock | SystemClock | None = None,
    context: RecoveryContext | None = None,
) -> GeoStream:
    """Wrap a GeoStream with per-source reconnect + backoff recovery.

    When iterating the underlying stream raises
    :class:`~repro.errors.SourceDisconnected`, the wrapper sleeps the next
    backoff delay on the clock, re-opens the source, fast-forwards past the
    chunks it already delivered (sources replay deterministically from the
    start — see :class:`~repro.core.stream.GeoStream` re-openability), and
    resumes with **no duplicates and no gaps**. After ``max_retries``
    attempts or once the backoff deadline is exceeded it raises
    :class:`~repro.errors.RecoveryExhausted`.
    """
    ctx = context
    policy = policy or (ctx.backoff if ctx is not None else BackoffPolicy())
    clock = clock or (ctx.clock if ctx is not None else SimClock())

    def source() -> Iterator[Chunk]:
        return _resilient_iter(stream, policy, clock, ctx)

    return GeoStream(stream.metadata, source)


def _resilient_iter(
    stream: GeoStream,
    policy: BackoffPolicy,
    clock: SimClock | SystemClock,
    ctx: RecoveryContext | None,
) -> Iterator[Chunk]:
    sid = stream.stream_id
    delays = policy.schedule()
    delivered = 0
    attempt = 0
    slept = 0.0
    while True:
        skip = delivered
        try:
            for chunk in stream.chunks():
                if skip:
                    skip -= 1
                    continue
                delivered += 1
                yield chunk
            return
        except SourceDisconnected as exc:
            if attempt >= policy.max_retries:
                if ctx is not None:
                    ctx.note_exhausted(sid)
                raise RecoveryExhausted(
                    f"source {sid!r}: gave up after {attempt} reconnect attempts"
                ) from exc
            delay = delays[attempt]
            if slept + delay > policy.deadline:
                if ctx is not None:
                    ctx.note_exhausted(sid)
                raise RecoveryExhausted(
                    f"source {sid!r}: backoff deadline {policy.deadline}s exceeded "
                    f"after {attempt} attempts"
                ) from exc
            attempt += 1
            slept += delay
            if ctx is not None:
                ctx.note_retry(sid, delay)
            elif metrics_enabled():
                get_registry().counter("repro_faults_retries_total", stream=sid).inc()
            ftr = current().frame_tracer
            if ftr is not None:
                # The next chunks admitted from this stream carry the
                # reconnect in their trace annotations.
                ftr.note_stream_event(
                    sid, f"recovery:reconnect:attempt={attempt} backoff={delay:g}s"
                )
            clock.sleep(delay)


# -- frame guard ------------------------------------------------------------


class FrameGuard(Operator):
    """Source-side validation gate: only complete, valid frames pass.

    Sits between a (possibly faulty) source and the query pipelines. Per
    chunk it checks timestamp sanity and value-set membership; poison
    chunks go to the dead-letter sink. Valid chunks buffer per frame and a
    frame's chunks are released **only when every scan row has arrived**,
    re-sorted into canonical row order with the ``last_in_frame`` marker
    repaired — so duplicates are suppressed, reordering is undone, and a
    frame that lost any row (drop, truncation, quarantined corruption) is
    quarantined whole rather than delivered partially blank.

    The guarantee downstream: every frame that leaves the guard is
    bit-identical to the frame a fault-free scan would have produced
    (stream-as-function equivalence on surviving timestamps).
    """

    name = "frame-guard"

    def __init__(
        self,
        value_set: ValueSet | None = None,
        context: RecoveryContext | None = None,
        max_open_frames: int = 3,
    ) -> None:
        super().__init__()
        if max_open_frames < 1:
            raise GeoStreamsError("max_open_frames must be >= 1")
        self.value_set = value_set
        self._context = context
        self.max_open_frames = max_open_frames
        self._frames: dict[object, dict[int, GridChunk]] = {}
        self._order: list[object] = []
        self.frames_quarantined = 0
        self.chunks_quarantined = 0
        self.frames_released = 0

    def _reset_state(self) -> None:
        self._frames = {}
        self._order = []
        self.frames_quarantined = 0
        self.chunks_quarantined = 0
        self.frames_released = 0

    # -- validation ---------------------------------------------------------

    def _invalid_reason(self, chunk: Chunk) -> str | None:
        if isinstance(chunk, GridChunk):
            if not np.isfinite(chunk.t):
                return "bad-timestamp"
            vs = self.value_set
            if (
                vs is not None
                and chunk.values.dtype == vs.dtype
                and not vs.contains(chunk.values)
            ):
                return "invalid-values"
            return None
        if not np.all(np.isfinite(chunk.t)):
            return "bad-timestamp"
        return None

    def _quarantine(self, chunk: Chunk | None, reason: str) -> None:
        self.chunks_quarantined += 1
        ctx = self._context if self._context is not None else current_recovery()
        if ctx is not None:
            ctx.quarantine(chunk, reason=reason, stage=self.name)

    # -- frame assembly -----------------------------------------------------

    def _process(self, chunk: Chunk) -> Iterator[Chunk]:
        reason = self._invalid_reason(chunk)
        if reason is not None:
            self._quarantine(chunk, reason)
            return
        if not isinstance(chunk, GridChunk) or chunk.frame is None:
            yield chunk
            return
        key = (chunk.frame.frame_id, chunk.band)
        bucket = self._frames.get(key)
        if bucket is None:
            bucket = {}
            self._frames[key] = bucket
            self._order.append(key)
            # A frame still open when `max_open_frames` newer frames have
            # started never completed: some row was lost. Quarantine it.
            while len(self._order) > self.max_open_frames:
                self._evict(self._order[0])
        if chunk.row0 in bucket:
            self._quarantine(chunk, "duplicate-chunk")
            return
        bucket[chunk.row0] = chunk
        self.stats.buffer_add_chunk(chunk)
        covered = sum(c.lattice.height for c in bucket.values())
        if covered >= chunk.frame.lattice.height:
            yield from self._release(key)

    def _release(self, key: object) -> Iterator[Chunk]:
        bucket = self._frames.pop(key)
        self._order.remove(key)
        self.frames_released += 1
        rows = [bucket[row0] for row0 in sorted(bucket)]
        for i, chunk in enumerate(rows):
            self.stats.buffer_remove_chunk(chunk)
            want_last = i == len(rows) - 1
            if chunk.last_in_frame != want_last:
                chunk = dc_replace(chunk, last_in_frame=want_last)
            yield chunk

    def _evict(self, key: object) -> None:
        bucket = self._frames.pop(key)
        self._order.remove(key)
        self.frames_quarantined += 1
        for row0 in sorted(bucket):
            self.stats.buffer_remove_chunk(bucket[row0])
            self._quarantine(bucket[row0], "incomplete-frame")

    def _flush(self) -> tuple[Chunk, ...]:
        for key in list(self._order):
            self._evict(key)
        return ()

    def __repr__(self) -> str:
        return (
            f"FrameGuard(open={len(self._order)}, released={self.frames_released}, "
            f"quarantined={self.frames_quarantined})"
        )
