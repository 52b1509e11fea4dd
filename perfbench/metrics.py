"""Metric names, units and how each is computed from iterations and spans.

End-to-end metrics come from untraced iterations; per-layer metrics from
traced ones (``SpanLog``). Every name is ``[A-Za-z0-9_.-]+`` and carries
a unit; ``END_TO_END`` and ``PER_LAYER`` are the complete, fixed lists
the benchmark prints, so a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import re
import statistics

import numpy as np

from spans import OPERATOR_KINDS, SpanLog

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END = {
    "scan_points_per_s": "points/s",
    "frame_latency_p50_ms": "ms",
    "frame_latency_p95_ms": "ms",
    "register_ms_p50": "ms",
    "register_ms_p95": "ms",
    "deregister_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Times (unit s) are only layers every workload runs, so none reads a
# constant 0. A layer some workload bypasses is reported as a share: of the
# traced run() time (``*_frac``), of request handling (index insert and
# remove), or of operator busy time (per operator kind).
PER_LAYER = {
    "ingest.synthesize_s": "s",
    "ingest.decode_s": "s",
    "ingest.records": "count",
    "index.overlapping_frac": "ratio",
    "index.overlapping_calls": "count",
    "index.matches_per_call": "count",
    "index.insert_frac": "ratio",
    "index.remove_frac": "ratio",
    "server.prune_fraction": "ratio",
    "query.parse_s": "s",
    "query.optimize_s": "s",
    "plan.canonicalize_s": "s",
    "plan.add_plan_s": "s",
    "plan.remove_plan_s": "s",
    "plan.feed_self_s": "s",
    "plan.stage_executions": "count",
    "plan.subplan_hits": "count",
    "plan.chunks_saved": "count",
    "operators.busy_s": "s",
    **{
        f"operators.{kind}.{stat}": unit
        for kind in OPERATOR_KINDS
        for stat, unit in (
            ("busy_frac", "ratio"), ("calls", "count"), ("points_in", "points"),
            ("points_out", "points"),
        )
    },
    "engine.pull_s": "s",
    "plan.push_pull_ratio": "ratio",
    "server.run_self_s": "s",
    "server.receive_self_s": "s",
    "server.request_self_s": "s",
    "server.frames": "count",
    "server.records": "count",
    "raster.to_png_frac": "ratio",
    "raster.png_calls": "count",
    "raster.png_bytes_in": "bytes",
    "raster.png_bytes_out": "bytes",
    "obs.overhead_frac": "ratio",
    "obs.self_frac": "ratio",
    "obs.store.sample_frac": "ratio",
    "obs.store.samples": "count",
    "obs.journal.events": "count",
    "obs.frame_trace.traces": "count",
    "obs.stats.stages": "count",
    "obs.payload_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

# Latency percentiles need this many samples so that ten lie beyond p95.
MIN_LATENCY_SAMPLES = 200


def _ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def end_to_end(iterations, setup_times: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count) over untraced iterations."""
    latencies = [s for it in iterations for s in it.latencies]
    register = [s for it in iterations for s in it.register_s]
    deregister = [s for it in iterations for s in it.deregister_s]
    rates = [it.points_scanned / it.run_s for it in iterations]
    values = {
        "scan_points_per_s": statistics.median(rates),
        "frame_latency_p50_ms": _ms(latencies, 50),
        "frame_latency_p95_ms": _ms(latencies, 95),
        "register_ms_p50": _ms(register, 50),
        "register_ms_p95": _ms(register, 95),
        "deregister_ms_p50": _ms(deregister, 50),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "scan_points_per_s": len(rates),
        "frame_latency_p50_ms": len(latencies),
        "frame_latency_p95_ms": len(latencies),
        "register_ms_p50": len(register),
        "register_ms_p95": len(register),
        "deregister_ms_p50": len(deregister),
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
    }
    return values, counts


def per_layer(log: SpanLog, it, synthesize_s: float) -> tuple[dict, float]:
    """(metric -> value, push-executor seconds) of one traced iteration.

    Times are per iteration (one server lifetime) except ``query.*_s``,
    which are per registration, and are scaled to reference speed by the
    iteration's mean scale inside ``run()``. Shares are of raw traced
    times. The push-executor time is the inclusive time inside
    ``PlanDAG.feed``/``flush`` less PNG encoding and telemetry, neither of
    which the pull executor does.
    """
    selfs, inclusive, in_plan, _ = log.self_times()
    c = log.counts
    registrations = c["query.registrations"] or 1.0
    run_s = it.run_raw_s
    requests_s = inclusive["server.request"]
    busy = {kind: selfs[f"operators.{kind}"] for kind in OPERATOR_KINDS}
    busy_s = sum(busy.values())
    obs_self = sum(v for k, v in selfs.items() if k.startswith("obs."))
    m = {
        "ingest.synthesize_s": synthesize_s,
        "ingest.decode_s": selfs["ingest.decode"],
        "ingest.records": c["ingest.records"],
        "index.overlapping_frac": selfs["index.overlapping"] / run_s,
        "index.overlapping_calls": c["index.overlapping_calls"],
        "index.matches_per_call": (
            c["index.matches"] / c["index.overlapping_calls"] if c["index.overlapping_calls"] else 0.0
        ),
        "index.insert_frac": selfs["index.insert"] / requests_s,
        "index.remove_frac": selfs["index.remove"] / requests_s,
        "server.prune_fraction": it.prune_fraction,
        "query.parse_s": selfs["query.parse"] / registrations,
        "query.optimize_s": selfs["query.optimize"] / registrations,
        "plan.canonicalize_s": selfs["plan.canonicalize"],
        "plan.add_plan_s": selfs["plan.add_plan"],
        "plan.remove_plan_s": selfs["plan.remove_plan"],
        "plan.feed_self_s": selfs["plan.feed"] + selfs["plan.flush"],
        "plan.stage_executions": it.plan_stats["stage_executions"],
        "plan.subplan_hits": it.plan_stats["subplan_hits"],
        "plan.chunks_saved": it.plan_stats["chunks_saved"],
        "operators.busy_s": busy_s,
        "server.run_self_s": selfs["server.run"],
        "server.receive_self_s": selfs["server.receive"],
        "server.request_self_s": selfs["server.request"],
        "server.frames": it.frames,
        "server.records": it.records,
        "raster.to_png_frac": selfs["raster.to_png"] / run_s,
        "raster.png_calls": c["raster.png_calls"],
        "raster.png_bytes_in": c["raster.png_bytes_in"],
        "raster.png_bytes_out": c["raster.png_bytes_out"],
        "obs.self_frac": obs_self / run_s,
        "obs.store.sample_frac": selfs["obs.store.sample"] / run_s,
        "obs.store.samples": it.obs_counts.get("samples", 0),
        "obs.journal.events": it.obs_counts.get("events", 0),
        "obs.frame_trace.traces": it.obs_counts.get("traces", 0),
        "obs.stats.stages": it.obs_counts.get("stages", 0),
        "obs.payload_frac": it.obs_counts.get("payload_s", 0.0) / run_s,
        "trace.spans": len(log.spans),
    }
    for kind in OPERATOR_KINDS:
        name = f"operators.{kind}"
        m[f"{name}.busy_frac"] = busy[kind] / busy_s
        m[f"{name}.calls"] = c[name + ".calls"]
        m[f"{name}.points_in"] = c[name + ".points_in"]
        m[f"{name}.points_out"] = c[name + ".points_out"]
    scale = it.run_s / it.run_raw_s
    for name in m:
        if PER_LAYER[name] == "s" and name != "ingest.synthesize_s":
            m[name] *= scale
    push_s = inclusive["plan.feed"] + inclusive["plan.flush"] - sum(
        v for k, v in in_plan.items() if k == "raster.to_png" or k.startswith("obs.")
    )
    return m, push_s * scale


def check_names() -> list[str]:
    """Every metric name and unit that breaks the naming rules."""
    bad = []
    for table in (END_TO_END, PER_LAYER):
        for name, unit in table.items():
            if not NAME_RE.match(name):
                bad.append(f"name {name!r}")
            if not UNIT_RE.match(unit):
                bad.append(f"unit {unit!r} of {name}")
    overlap = set(END_TO_END) & set(PER_LAYER)
    bad.extend(f"name {name!r} in both tables" for name in sorted(overlap))
    return bad
