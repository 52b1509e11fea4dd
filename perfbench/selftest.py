"""Self-tests of the benchmark itself.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selftest.py

Checks that every metric name is well formed and prints with its unit in
both modes, that a corrupted reference digest and a ``query_churn``
resume that drops a frame period each make the command fail, and that
the command fails without printing a result when the program's sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402

TIMEOUT_S = 300


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict | None:
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def test_benchmark_json_matches() -> None:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table, key


def test_names_and_units() -> None:
    assert metrics.check_names() == [], metrics.check_names()
    for trace, table in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
        code, lines = bench("--workload", "full_sector_products", "--seed", "1",
                            "--seconds", "1", "--trace", trace)
        assert code == 0, f"trace {trace}: exit {code}"
        result = result_of(lines)
        assert result is not None and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(table)
        for name, unit in table.items():
            entry = result["metrics"][name]
            assert entry["unit"] == unit and isinstance(entry["value"], (int, float)), name
            assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name


def test_corrupt_reference_fails() -> None:
    code, lines = bench("--workload", "full_sector_products", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--corrupt-reference")
    result = result_of(lines)
    assert code != 0, "a corrupted reference digest must fail the run"
    assert result is not None and not result["correct"] and result["failed"] > 0


def test_dropped_churn_period_fails() -> None:
    code, lines = bench("--workload", "query_churn", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--drop-period", "5")
    result = result_of(lines)
    assert code != 0, "a resume that drops a frame period must fail the run"
    assert result is not None and not result["correct"] and result["failed"] > 0


def test_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "fanout_regions", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        assert code != 0 and result_of(lines) is None


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tests = [test_benchmark_json_matches, test_names_and_units, test_corrupt_reference_fails,
             test_dropped_churn_period_fails, test_fails_without_sources]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
