"""Traced runs: one span per call into a layer's public functions.

Tracing lives entirely in the benchmark. ``SpanLog.install`` replaces a
fixed set of public functions and methods of the program's modules with
timing wrappers and ``uninstall`` puts the originals back; nothing under
``src/`` is edited and untraced runs execute the shipped code unchanged.

A span is ``[name, start, end, parent, frame]``. ``name`` is
``<layer>.<call>`` with the program's module names as layers, ``parent``
is the index of the enclosing span (-1 at top level), and ``frame`` is
the source frame of the chunk most recently pulled or fed to the plan, so
every span of one frame shares that id (-1 outside a scan). A span's self
time is its duration minus the time its child spans cover. Spans are kept
in memory; ``write`` dumps them as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.index.cascade_tree import CascadeTree
from repro.ingest.generator import StreamGenerator
from repro.obs.slo import SLOMonitor
from repro.obs.stats import StageStats, StatsCollector
from repro.obs.timeline import EventJournal, MetricStore
from repro.obs.trace import FrameTracer
from repro.operators.base import BinaryOperator, Operator
from repro.operators.delivery import Delivery
from repro.plan.stages import PlanDAG
from repro.raster import png as png_module
from repro.server import dsms as dsms_module
from repro.server.dsms import DSMSServer
from repro.server.session import ClientSession

from pace import Speedometer

# Operator kinds (``Operator.name``) the workloads run; any other kind is
# reported under ``operators.other``.
OPERATOR_KINDS = (
    "spatial-restriction",
    "value-transform",
    "frame-stretch",
    "composition",
    "region-aggregate",
    "reproject",
    "temporal-aggregate",
    "other",
)


class SpanLog:
    """In-memory span recorder plus the per-call counters beside it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.frame = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.frame])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack corrupted: closed {idx}, top was {popped}")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.frame = -1
        self.counts = defaultdict(float)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner: object, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner: object, attr: str, name: str, count=None) -> None:
        log = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = log.call(name, original, *args, **kwargs)
                if count is not None:
                    count(log.counts, args, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every traced entry point (idempotent only via uninstall)."""
        if self._saved:
            raise RuntimeError("span log already installed")
        log = self

        # ingest: each record decode is one step of the generator.
        def make_decode(original):
            def decode_stream(generator, records):
                it = original(generator, records)
                while True:
                    idx = log._open("ingest.decode")
                    try:
                        chunk = next(it)
                    except StopIteration:
                        log._close(idx)
                        return
                    log.frame = chunk.sector if chunk.sector is not None else -1
                    log.spans[idx][4] = log.frame
                    log._close(idx)
                    log.counts["ingest.records"] += 1
                    yield chunk

            return decode_stream

        self._patch(StreamGenerator, "decode_stream", make_decode)

        def count_matches(counts, args, result):
            counts["index.overlapping_calls"] += 1
            counts["index.matches"] += len(result)

        self._timed(CascadeTree, "overlapping", "index.overlapping", count_matches)
        self._timed(CascadeTree, "insert", "index.insert")
        self._timed(CascadeTree, "remove", "index.remove")

        # query/plan entry points are looked up in the server module's
        # namespace, so that is where they are wrapped.
        def count_registration(counts, args, result):
            counts["query.registrations"] += 1

        self._timed(dsms_module, "parse_query", "query.parse", count_registration)
        self._timed(dsms_module, "optimize", "query.optimize")
        self._timed(dsms_module, "canonicalize", "plan.canonicalize")
        self._timed(PlanDAG, "add_plan", "plan.add_plan")
        self._timed(PlanDAG, "remove_plan", "plan.remove_plan")
        self._timed(PlanDAG, "flush", "plan.flush")

        def make_feed(original):
            def feed(dag, stream_id, chunk, active=None):
                if chunk.sector is not None:
                    log.frame = chunk.sector
                return log.call("plan.feed", original, dag, stream_id, chunk, active)

            return feed

        self._patch(PlanDAG, "feed", make_feed)

        # operators: one span name per operator kind. Delivery operators
        # belong to the client session (server layer), not the plan.
        def operator_name(op) -> str:
            kind = op.name if op.name in OPERATOR_KINDS else "other"
            return f"operators.{kind}"

        def traced(op, produce, chunk=None):
            name = operator_name(op)
            outs = log.call(name, lambda: list(produce()))
            log.counts[name + ".points_out"] += sum(c.n_points for c in outs)
            if chunk is not None:  # a step, not a flush
                log.counts[name + ".points_in"] += chunk.n_points
                log.counts[name + ".calls"] += 1
            return iter(outs)

        def make_process(original):
            def process(op, chunk):
                if isinstance(op, Delivery):
                    return original(op, chunk)
                return traced(op, lambda: original(op, chunk), chunk)

            return process

        def make_process_side(original):
            def process_side(op, side, chunk):
                return traced(op, lambda: original(op, side, chunk), chunk)

            return process_side

        def make_flush(original):
            def flush(op):
                if isinstance(op, Delivery):
                    return original(op)
                return traced(op, lambda: original(op))

            return flush

        self._patch(Operator, "process", make_process)
        self._patch(Operator, "flush", make_flush)
        self._patch(BinaryOperator, "process_side", make_process_side)
        self._patch(BinaryOperator, "flush", make_flush)

        # server: the scan loop, request handling and session delivery.
        self._timed(DSMSServer, "run", "server.run")
        self._timed(DSMSServer, "handle_request", "server.request")
        self._timed(ClientSession, "receive", "server.receive")
        self._timed(ClientSession, "close", "server.receive")

        # raster: PNG encoding (looked up on the module at call time).
        def count_png(counts, args, result):
            counts["raster.png_calls"] += 1
            counts["raster.png_bytes_in"] += args[0].nbytes
            counts["raster.png_bytes_out"] += len(result)

        self._timed(png_module, "encode_image", "raster.to_png", count_png)

        # obs: the telemetry entry points the server calls.
        self._timed(MetricStore, "sample", "obs.store.sample")
        self._timed(EventJournal, "append", "obs.journal")
        self._timed(FrameTracer, "admit", "obs.frame_trace")
        self._timed(FrameTracer, "record_hop", "obs.frame_trace")
        self._timed(FrameTracer, "finalize_frame", "obs.frame_trace")
        self._timed(SLOMonitor, "observe", "obs.slo")
        self._timed(StatsCollector, "note_scan", "obs.stats")
        self._timed(StageStats, "observe", "obs.stats")

        # The benchmark's own speed samples taken during a scan.
        self._timed(Speedometer, "sample", "bench.yardstick")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict, float]:
        """Self and inclusive seconds by span name; run() wall.

        Returns ``(selfs, inclusive, in_plan, run_wall)`` where
        ``in_plan`` is self seconds by name counted only under
        ``plan.feed``/``plan.flush``. Raises when the spans do not
        reconcile: a negative self time, or self times under
        ``server.run`` that do not add up to its wall time.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        n = len(self.spans)
        child = [0.0] * n
        in_run = [False] * n
        plan = [False] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_run[i] = in_run[parent]
                plan[i] = plan[parent]
            if name == "server.run":
                in_run[i] = True
            if name in ("plan.feed", "plan.flush"):
                plan[i] = True
        selfs: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        in_plan: dict[str, float] = defaultdict(float)
        run_wall = 0.0
        run_self_sum = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            if own < -1e-6:
                raise RuntimeError(f"span {name} has negative self time {own}")
            selfs[name] += own
            inclusive[name] += end - start
            if plan[i]:
                in_plan[name] += own
            if in_run[i]:
                run_self_sum += own
                if name == "server.run":
                    run_wall += end - start
        tolerance = 1e-9 * max(1.0, run_wall) * max(1, n)
        if run_wall <= 0 or abs(run_self_sum - run_wall) > tolerance:
            raise RuntimeError(
                f"layer self times {run_self_sum:.6f}s do not reconcile with "
                f"run() wall {run_wall:.6f}s"
            )
        return selfs, inclusive, in_plan, run_wall

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, frame in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "frame": frame}
                    )
                    + "\n"
                )
