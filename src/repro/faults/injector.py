"""Seeded, deterministic fault injection for GeoStreams and raw records.

The injector wraps either a :class:`~repro.core.stream.GeoStream` (chunk
level) or a raw-record byte iterator (wire level, upstream of the stream
generator) and perturbs it according to a :class:`~repro.faults.spec.FaultSpec`:

* **drop** — the chunk/record is silently lost,
* **dup** — it is delivered twice,
* **reorder** — it is swapped with its successor,
* **bitflip** — its counts are corrupted (high bit flipped; at the wire
  level this also breaks the CRC),
* **outrange** — its counts are pushed to the dtype maximum, outside the
  declared value set,
* **truncate** — the rest of its frame's scan sector is lost,
* **stall** — delivery pauses ``stall_seconds`` on the (simulated) clock,
* **disconnect** — the source raises
  :class:`~repro.errors.SourceDisconnected` mid-scan.

Determinism contract: fault decisions come from a ``random.Random`` seeded
by ``spec.seed ^ crc32(stream_id)`` and **re-created identically on every
re-open** of the wrapped stream. A reconnecting consumer therefore replays
the exact same faulted prefix, which is what lets
:func:`repro.faults.recovery.resilient_stream` resume by skipping the
chunks it already delivered. Only the *disconnect position* scales with
the open count (attempt *n* survives ``disconnect_after * n`` chunks), so
every reconnect makes strictly more progress than the last.

Every injection increments both ``injector.counts[kind]`` and the
``repro_faults_injected_total{kind=...}`` metric — chaos tests assert the
two stay exactly equal.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace as dc_replace
from typing import Iterable, Iterator

import numpy as np

from ..core.chunk import Chunk, GridChunk
from ..core.stream import GeoStream
from ..errors import SourceDisconnected
from ..obs.context import current
from ..obs.registry import get_registry, metrics_enabled
from ..obs.trace import FrameTracer
from .recovery import SimClock, SystemClock, current_recovery
from .spec import FAULT_KINDS, FaultSpec

__all__ = ["FaultInjector"]


def _corrupt_bitflip(values: np.ndarray, rng: random.Random) -> np.ndarray:
    """Flip the high bit of one count (or poison one float with inf)."""
    out = values.copy()
    flat = out.reshape(-1)
    idx = rng.randrange(flat.shape[0])
    if np.issubdtype(out.dtype, np.integer):
        high_bit = np.array(1, dtype=out.dtype) << (out.dtype.itemsize * 8 - 1)
        flat[idx] = flat[idx] ^ high_bit
    else:
        flat[idx] = np.inf
    return out


def _corrupt_outrange(values: np.ndarray) -> np.ndarray:
    """Push every count to the dtype maximum (outside bounded value sets)."""
    if np.issubdtype(values.dtype, np.integer):
        return np.full_like(values, np.iinfo(values.dtype).max)
    return np.full_like(values, np.finfo(values.dtype).max)


class FaultInjector:
    """Applies one :class:`FaultSpec` to any number of streams, with shared counts."""

    def __init__(self, spec: FaultSpec, clock: SimClock | SystemClock | None = None) -> None:
        self.spec = spec
        self.clock = clock
        self.counts: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # -- bookkeeping --------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.counts[kind] += 1
        if metrics_enabled():
            get_registry().counter("repro_faults_injected_total", kind=kind).inc()
        journal = current().journal
        if journal is not None:
            # Stamped with the injector's own (sim) clock and never the
            # tracer's state, so the journal is bit-identical whether or
            # not tracing is installed. The link matches the pin reason
            # `_note_trace` writes on the affected frame's capture.
            journal.append(
                "fault",
                reason=kind,
                link=f"fault:{kind}",
                t=self._resolve_clock().now(),
            )

    @staticmethod
    def _note_trace(ftr: "FrameTracer | None", chunk: Chunk, kind: str) -> None:
        """Annotate (and auto-pin) the chunk's frame trace, if it has one.

        Annotations never touch the injection rng, so traced and untraced
        chaos runs stay bit-identical.
        """
        if ftr is None:
            return
        tctx = chunk.trace
        if tctx is not None:
            ftr.annotate(tctx, f"fault:{kind}", pin=True)

    def _resolve_clock(self) -> SimClock | SystemClock:
        if self.clock is not None:
            return self.clock
        ctx = current_recovery()
        if ctx is not None:
            return ctx.clock
        self.clock = SimClock()
        return self.clock

    def _stall(self, rng: random.Random) -> bool:
        if self.spec.stall > 0.0 and rng.random() < self.spec.stall:
            self._count("stall")
            self._resolve_clock().sleep(self.spec.stall_seconds)
            return True
        return False

    # -- chunk-level injection ----------------------------------------------

    def wrap_stream(self, stream: GeoStream) -> GeoStream:
        """A GeoStream that replays ``stream`` through this fault spec.

        The returned stream keeps the original metadata; its open counter
        lives in the wrapper (one counter per ``wrap_stream`` call), so
        disconnect schedules are tracked per wrapped source.
        """
        spec = self.spec
        seed = spec.seed ^ zlib.crc32(stream.stream_id.encode("utf-8"))
        opens = [0]

        def source() -> Iterator[Chunk]:
            opens[0] += 1
            return self._faulted_chunks(stream, seed, opens[0])

        return GeoStream(stream.metadata, source)

    def _faulted_chunks(self, stream: GeoStream, seed: int, open_no: int) -> Iterator[Chunk]:
        spec = self.spec
        # Same seed on every open: the faulted prefix replays identically,
        # so reconnect-and-skip recovery is exact.
        rng = random.Random(seed)
        # Frame-trace annotation hook: fetched once per open, rng-free.
        ftr = current().frame_tracer
        disconnecting = open_no <= spec.disconnect
        survive = spec.disconnect_after * open_no
        yielded = 0
        held: Chunk | None = None  # reorder: chunk waiting for its successor
        truncated: object = None  # frame key whose remaining chunks are lost

        def emit(chunk: Chunk) -> Iterator[Chunk]:
            nonlocal yielded
            will_disconnect = disconnecting and yielded + 1 >= survive
            if will_disconnect:
                # Annotate before yielding: the chunk may reach delivery
                # (and finalize its trace) before this generator resumes.
                self._note_trace(ftr, chunk, "disconnect")
            yield chunk
            yielded += 1
            if will_disconnect:
                self._count("disconnect")
                raise SourceDisconnected(
                    f"source {stream.stream_id!r}: injected disconnect after "
                    f"{yielded} chunks (open #{open_no})"
                )

        for chunk in stream.chunks():
            frame_key = None
            if isinstance(chunk, GridChunk) and chunk.frame is not None:
                frame_key = (chunk.frame.frame_id, chunk.band)
            if truncated is not None and frame_key == truncated:
                self._note_trace(ftr, chunk, "truncate")
                continue  # rest of the truncated sector never arrives
            if spec.truncate > 0.0 and frame_key is not None and (
                rng.random() < spec.truncate
            ):
                self._count("truncate")
                self._note_trace(ftr, chunk, "truncate")
                truncated = frame_key
                continue
            if spec.drop > 0.0 and rng.random() < spec.drop:
                self._count("drop")
                self._note_trace(ftr, chunk, "drop")
                continue
            if spec.bitflip > 0.0 and rng.random() < spec.bitflip:
                self._count("bitflip")
                self._note_trace(ftr, chunk, "bitflip")
                chunk = dc_replace(chunk, values=_corrupt_bitflip(chunk.values, rng))
            if spec.outrange > 0.0 and rng.random() < spec.outrange:
                self._count("outrange")
                self._note_trace(ftr, chunk, "outrange")
                chunk = dc_replace(chunk, values=_corrupt_outrange(chunk.values))
            if self._stall(rng):
                self._note_trace(ftr, chunk, "stall")
            if spec.dup > 0.0 and rng.random() < spec.dup:
                self._count("dup")
                self._note_trace(ftr, chunk, "dup")
                yield from emit(chunk)
                yield from emit(chunk)
                continue
            if held is not None:
                self._note_trace(ftr, chunk, "reorder")
                yield from emit(chunk)
                yield from emit(held)
                held = None
                continue
            if spec.reorder > 0.0 and rng.random() < spec.reorder:
                self._count("reorder")
                self._note_trace(ftr, chunk, "reorder")
                held = chunk
                continue
            yield from emit(chunk)
        if held is not None:
            yield from emit(held)

    # -- wire-level injection -----------------------------------------------

    def records(self, raw: Iterable[bytes], label: str = "records") -> Iterator[bytes]:
        """Inject faults into a raw-record byte stream (upstream of the
        stream generator).

        Bit flips corrupt the counts body so the record's CRC no longer
        matches — exactly the failure a noisy downlink produces — and the
        generator's recovery path quarantines the bad record. Truncation
        drops the remainder of the flipped record's frame.
        """
        from ..ingest.generator import RECORD_HEADER  # lazy: avoids an import cycle

        spec = self.spec
        rng = random.Random(spec.seed ^ zlib.crc32(label.encode("utf-8")))
        held: bytes | None = None
        truncated: tuple[int, int] | None = None

        def frame_key(data: bytes) -> tuple[int, int] | None:
            if len(data) < RECORD_HEADER.size:
                return None
            _, sector, frame, *_rest = RECORD_HEADER.unpack(data[: RECORD_HEADER.size])
            return (sector, frame)

        for data in raw:
            key = frame_key(data)
            if truncated is not None and key == truncated:
                continue
            if spec.truncate > 0.0 and key is not None and rng.random() < spec.truncate:
                self._count("truncate")
                truncated = key
                continue
            if spec.drop > 0.0 and rng.random() < spec.drop:
                self._count("drop")
                continue
            if spec.bitflip > 0.0 and rng.random() < spec.bitflip:
                self._count("bitflip")
                body_start = RECORD_HEADER.size
                if len(data) > body_start + 4:
                    idx = body_start + rng.randrange(len(data) - body_start - 4)
                    data = data[:idx] + bytes([data[idx] ^ 0x80]) + data[idx + 1 :]
            self._stall(rng)
            if spec.dup > 0.0 and rng.random() < spec.dup:
                self._count("dup")
                yield data
                yield data
                continue
            if held is not None:
                yield data
                yield held
                held = None
                continue
            if spec.reorder > 0.0 and rng.random() < spec.reorder:
                self._count("reorder")
                held = data
                continue
            yield data
        if held is not None:
            yield held

    def __repr__(self) -> str:
        active = {k: v for k, v in self.counts.items() if v}
        return f"FaultInjector({self.spec.to_string()!r}, injected={active})"
