"""The DSMS benchmark: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 perfbench/run.py --workload fanout_regions --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric, measured with tracing off;
``--trace 1`` prints every per-layer metric from traced iterations and
writes their spans to ``.perfbench/``. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the command exits 1 when
any delivered frame or record differs from the reference. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Shipped defaults are what gets measured: no mode or snapshot overrides.
for _var in ("REPRO_COLUMNAR", "REPRO_NUMPY", "REPRO_OBS_SNAPSHOT", "REPRO_BENCH_SMOKE"):
    os.environ.pop(_var, None)

# The seed later performance claims must also hold on; never tune on it.
HELD_OUT_SEED = 20060326
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
TRACED_ROUNDS_MIN = 2
# Stop adding iterations past this many seconds, whatever the minimums.
WALL_CAP_S = 100.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test faults: a wrong reference digest, or a churn resume that
    # skips one frame period. Both must make the run fail.
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--drop-period", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _meta(workload, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_digest": _source_digest(),
        "mode": workload.mode,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(bench, seconds: float, metrics_mod, pace_mod):
    speed = pace_mod.Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(pace_mod.MIN_SAMPLES)
        spent0 = speed.spent
        t0 = perf_counter()
        bench.setup(speed)
        t1 = perf_counter()
        speed.sample(pace_mod.MIN_SAMPLES)
        raw = t1 - t0 - (speed.spent - spent0)
        setup_times.append(raw * speed.scale_between(t0, t1))
    done = [bench.iterate()]  # warm-up: verified, not timed
    measured = []
    start = perf_counter()
    while perf_counter() - start < WALL_CAP_S:
        measured.append(bench.iterate())
        frames = sum(len(it.latencies) for it in measured)
        if (
            perf_counter() - start >= seconds
            and len(measured) >= MIN_ITERATIONS
            and frames >= metrics_mod.MIN_LATENCY_SAMPLES
        ):
            break
    values, counts = metrics_mod.end_to_end(measured, setup_times, _peak_rss_mb())
    scale = statistics.median(it.run_s / it.run_raw_s for it in measured)
    return values, counts, done + measured, {"speed_scale": scale}


def _traced(bench, seconds: float, metrics_mod, spans_mod, pace_mod, out: Path):
    speed = pace_mod.Speedometer()
    bench.setup(speed)
    done = [bench.iterate()]  # warm-up
    log = spans_mod.SpanLog()
    untraced_s, plain_s, traced_s, pull_s, push_s = [], [], [], [], []
    rounds: list[dict] = []
    start = perf_counter()
    while perf_counter() - start < WALL_CAP_S:
        it = bench.iterate()
        done.append(it)
        untraced_s.append(it.run_s)
        if bench.workload.observed:
            plain = bench.iterate(observed=False)
            done.append(plain)
            plain_s.append(plain.run_s)
        log.reset()
        log.install()
        try:
            it = bench.iterate()
        finally:
            log.uninstall()
        done.append(it)
        layer, push = metrics_mod.per_layer(log, it, bench.synthesize_s)
        rounds.append(layer)
        traced_s.append(it.run_s)
        push_s.append(push)
        pull_s.append(bench.pull_s(speed))
        if perf_counter() - start >= seconds and len(rounds) >= TRACED_ROUNDS_MIN:
            break
    log.write(out)
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["engine.pull_s"] = statistics.median(pull_s)
    values["plan.push_pull_ratio"] = statistics.median(push_s) / values["engine.pull_s"]
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    values["obs.overhead_frac"] = (
        statistics.median(untraced_s) / statistics.median(plain_s) - 1.0 if plain_s else 0.0
    )
    counts = {name: len(rounds) for name in values}
    return values, counts, done, {}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metrics as metrics_mod
    import pace as pace_mod
    import spans as spans_mod
    from workloads import WORKLOADS, Bench

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bad = metrics_mod.check_names()
    if bad:
        print("perfbench: bad metric names: " + ", ".join(bad), file=sys.stderr)
        return 2
    bench = Bench(workload, args.seed, corrupt_reference=args.corrupt_reference,
                  drop_period=args.drop_period)
    if args.trace:
        out = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        values, counts, iterations, extra = _traced(
            bench, args.seconds, metrics_mod, spans_mod, pace_mod, out
        )
        units = metrics_mod.PER_LAYER
    else:
        values, counts, iterations, extra = _untraced(bench, args.seconds, metrics_mod, pace_mod)
        units = metrics_mod.END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6g} {unit:<8} n={counts[name]}")
    print(f"{'failed_frac':<40} {failed / attempted:>16.6g} {'ratio':<8} n={attempted}")
    print(json.dumps({"meta": {**_meta(workload, args.seed, args.trace), **extra}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
