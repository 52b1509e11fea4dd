"""tools/bench_diff.py: trajectory between two BENCH_*.json snapshot sets."""

import json
import subprocess

from tools.bench_diff import diff_lines, load_leaves, main


def write_set(directory, snapshots):
    directory.mkdir()
    for name, payload in snapshots.items():
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))
    return directory


OLD = {
    "a3": {"time_unix": 1.0, "smoke": False, "encode_ms": {"adaptive": 4.0, "none": 2.0}},
    "f4": {"rows": [{"n": 1, "chunks": 96}], "gone": 3},
}
NEW = {
    "a3": {"time_unix": 2.0, "smoke": False, "encode_ms": {"adaptive": 1.0, "none": 2.0}},
    "f4": {"rows": [{"n": 1, "chunks": 96}], "added": 5},
    "e9": {"layers": {"encode_s": 0.5}},
}


def test_directories(tmp_path, capsys):
    old = write_set(tmp_path / "old", OLD)
    new = write_set(tmp_path / "new", NEW)
    assert main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a3.encode_ms.adaptive: 4 -> 1  x0.25",
        "a3.encode_ms.none: 2 -> 2  x1",
        "f4.rows.0.chunks: 96 -> 96  x1",
        "f4.rows.0.n: 1 -> 1  x1",
        "only in old: f4.gone",
        "only in new: e9.layers.encode_s",
        "only in new: f4.added",
    ]


def test_booleans_and_timestamps_are_not_leaves(tmp_path):
    leaves = load_leaves(str(write_set(tmp_path / "s", OLD)))
    assert "a3.smoke" not in leaves and "a3.time_unix" not in leaves


def test_zero_baseline_has_no_ratio():
    assert diff_lines({"x.k": 0.0}, {"x.k": 1.0}) == ["x.k: 0 -> 1  n/a"]


def test_git_refs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "BENCH_a3.json").write_text(json.dumps(OLD["a3"]))
    git("add", "-A")
    git("commit", "-q", "-m", "old")
    (tmp_path / "BENCH_a3.json").write_text(json.dumps(NEW["a3"]))
    git("commit", "-q", "-am", "new")
    assert main(["HEAD~1", "HEAD"]) == 0
    out = capsys.readouterr().out
    assert "a3.encode_ms.adaptive: 4 -> 1  x0.25" in out


def test_usage_error():
    assert main(["only-one"]) == 2
