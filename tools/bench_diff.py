"""Print the perf trajectory between two sets of ``BENCH_*.json`` snapshots.

Run as ``python -m tools.bench_diff OLD NEW``. Each side is a directory
holding ``BENCH_*.json`` files (such as a ``REPRO_BENCH_OUT`` directory) or a
git ref whose tree has them at the repository root. For every numeric leaf
key both sides share, one line shows ``old -> new`` and the ratio new/old;
keys that only one side has are listed after. ``time_unix`` (when the
snapshot was written) is skipped.

Keys are ``<experiment>.<path>``, with list items indexed by position:
``a3_png_delivery.encode_ms.60x30.adaptive``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from collections.abc import Iterator, Sequence

_SKIPPED_LEAVES = {"time_unix"}


def _leaves(value: object, prefix: str) -> Iterator[tuple[str, float]]:
    """Numeric leaves of a JSON value, as ``(dotted key, number)``."""
    if isinstance(value, dict):
        for key, child in value.items():
            if key not in _SKIPPED_LEAVES:
                yield from _leaves(child, f"{prefix}.{key}")
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _leaves(child, f"{prefix}.{i}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield prefix, float(value)


def _snapshot_texts(source: str) -> dict[str, str]:
    """``{experiment: json text}`` from a directory or a git ref."""
    path = pathlib.Path(source)
    if path.is_dir():
        return {
            p.stem.removeprefix("BENCH_"): p.read_text(encoding="utf-8")
            for p in sorted(path.glob("BENCH_*.json"))
        }
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", source],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return {
        name.removeprefix("BENCH_").removesuffix(".json"): subprocess.run(
            ["git", "show", f"{source}:{name}"],
            check=True, capture_output=True, text=True,
        ).stdout
        for name in names
        if name.startswith("BENCH_") and name.endswith(".json")
    }


def load_leaves(source: str) -> dict[str, float]:
    """Every numeric leaf of every snapshot on one side."""
    out: dict[str, float] = {}
    for experiment, text in _snapshot_texts(source).items():
        out.update(_leaves(json.loads(text), experiment))
    return out


def diff_lines(old: dict[str, float], new: dict[str, float]) -> list[str]:
    """The report: shared keys with ratios, then one-sided keys."""
    lines = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        ratio = f"x{b / a:.3g}" if a else "n/a"
        lines.append(f"{key}: {a:.6g} -> {b:.6g}  {ratio}")
    for label, only in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        lines.extend(f"only in {label}: {key}" for key in sorted(only))
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: python -m tools.bench_diff OLD NEW  (directories or git refs)",
              file=sys.stderr)
        return 2
    for line in diff_lines(load_leaves(args[0]), load_leaves(args[1])):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
