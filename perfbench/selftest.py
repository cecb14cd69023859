"""Tests of the benchmark itself: smoke mode of every workload, the tracer.

Run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

Each benchmark run happens in a copy of the checkout under pytest's
tmp_path, so the tests never touch perfbench/out of the working tree.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def checkout(tmp_path: Path, with_src: bool = True) -> Path:
    """The files a benchmark checkout holds: BENCHMARK.json, perfbench, src."""
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0",
         "--smoke", *args], cwd=root, capture_output=True, text=True,
        timeout=170)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {
        "ensemble", "portraits", "sweep"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("workload", ["ensemble", "portraits", "sweep"])
def test_smoke_run_is_correct_and_complete(tmp_path, workload):
    root = checkout(tmp_path)
    plain = bench(root, "--workload", workload, "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = bench(root, "--workload", workload, "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    layer = json.loads(traced.stdout.splitlines()[-1])
    assert layer["correct"], traced.stdout
    assert set(layer["metrics"]) == set(layers.UNITS)
    assert layer["metrics"]["config.parse_calls"]["value"] >= 1

    record = json.loads((root / "perfbench" / "out" / "results" /
                         f"{workload}-seed7-trace1-smoke.json").read_text())
    assert record["machine"]["src_lines"] > 0
    assert record["seed"] == 7
    assert record["setup_stopped"] and record["setup_absent"] == []
    assert record["reps"] == 1 and record["trace"] == 1


def test_without_source_fails_without_result(tmp_path):
    root = checkout(tmp_path, with_src=False)
    proc = bench(root, "--workload", "sweep", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_reports_missing_target_as_absent():
    mod = types.ModuleType("fake")
    mod.outer = lambda: mod.inner()
    mod.inner = lambda: 42
    tr = Tracer()
    tr.wrap(mod, "outer", "outer")
    tr.wrap(mod, "inner", "inner")
    tr.wrap(mod, "removed", "removed")
    tr.count(mod, "also_removed", "counter")
    assert mod.outer() == 42
    tr.restore()
    assert tr.absent == ["fake.removed", "fake.also_removed"]
    outer, = tr.named("outer")
    inner, = tr.named("inner")
    assert inner.parent is outer
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)
    assert mod.outer() == 42 and len(tr.spans) == 2


def test_reference_flags_reruns_of_the_same_code_only(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    problems = []
    run.check_reference("sweep|7|code1|in1", {"digest": "d1", "n": 5}, problems)
    run.check_reference("sweep|7|code1|in1", {"digest": "d1", "n": 5}, problems)
    run.check_reference("sweep|7|code2|in1", {"digest": "d2", "n": 6}, problems)
    assert problems == []
    run.check_reference("sweep|7|code1|in1", {"digest": "d1", "n": 6}, problems)
    assert len(problems) == 1 and problems[0].startswith("n 6 differs")


def test_fingerprint_follows_file_contents(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("ignored")
    before = run.fingerprint(tmp_path, "*.py")
    (tmp_path / "notes.txt").write_text("still ignored")
    assert run.fingerprint(tmp_path, "*.py") == before
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert run.fingerprint(tmp_path, "*.py") != before
