"""Multi-stream arrival scheduling.

The DSMS consumes several source streams (one per spectral channel) and
must process chunks in global arrival order — the interleaving a
receiving station would see on the downlink. ``merge_sources`` performs a
k-way merge by measured timestamp; ties break by registration order so
runs are deterministic.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Iterator, Mapping

from ..core.chunk import Chunk
from ..core.stream import GeoStream
from ..errors import RecoveryExhausted, SourceDisconnected
from ..faults.recovery import current_recovery
from ..obs.context import current
from .pipeline import chunk_time

__all__ = ["merge_sources"]


def _advance(it: Iterator[Chunk], stream_id: str) -> Chunk | None:
    """Next chunk of one source, dropping the source on terminal failure.

    With a recovery context installed, a source whose reconnect budget is
    exhausted (or that disconnects without a resilient wrapper) is removed
    from the merge while the other sources keep flowing — the k-way scan
    degrades instead of dying. Without a context, failures propagate.
    """
    try:
        return next(it, None)
    except (RecoveryExhausted, SourceDisconnected) as exc:
        ctx = current_recovery()
        if ctx is None:
            raise
        ctx.quarantine(None, reason="source-lost", stage=stream_id, error=exc)
        return None


def merge_sources(
    sources: Mapping[str, GeoStream],
) -> Iterator[tuple[str, Chunk]]:
    """Yield (stream_id, chunk) across all sources in timestamp order."""
    tracer = current().tracer
    span = (
        tracer.begin_span(
            "merge-sources", kind="scheduler", sources=sorted(sources)
        )
        if tracer is not None
        else None
    )
    started = perf_counter()
    heap: list[tuple[float, int, int, str, Chunk, Iterator[Chunk]]] = []
    seq = 0
    for order, (stream_id, stream) in enumerate(sources.items()):
        it = iter(stream.chunks())
        first = _advance(it, stream_id)
        if first is not None:
            heapq.heappush(heap, (chunk_time(first), order, seq, stream_id, first, it))
            seq += 1
    try:
        while heap:
            t, order, _, stream_id, chunk, it = heapq.heappop(heap)
            if span is not None:
                span.record(
                    points_in=chunk.n_points,
                    points_out=chunk.n_points,
                    chunks_out=1,
                    wall_s=0.0,
                    stream_t=t,
                )
            yield stream_id, chunk
            nxt = _advance(it, stream_id)
            if nxt is not None:
                heapq.heappush(heap, (chunk_time(nxt), order, seq, stream_id, nxt, it))
                seq += 1
    finally:
        if span is not None:
            # The merge's own work is negligible; its wall clock is the
            # whole scan (downstream consumers run between yields).
            span.wall_time_s = perf_counter() - started
            span.finish()
