"""Smoke test of the benchmark on tiny versions of its workloads.

It runs every workload untraced and traced at smoke-test sizes and checks
the shape of the output: every metric `BENCHMARK.json` names for the mode
is there with its unit and a sample count, and the span file parses with
parent ids. It asserts nothing about timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else {})


def samples(stdout: str) -> dict:
    """The per-metric sample counts printed on the line before the result."""
    prefix = "perfbench: samples and bases: "
    line = stdout.strip().splitlines()[-2]
    assert line.startswith(prefix), line
    return json.loads(line[len(prefix):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_reported(workload, trace):
    done, result = run(workload, trace)
    assert done.returncode in (0, 1), done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    counts = samples(done.stdout)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, m["name"]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        n = counts[m["name"]]["samples"]
        assert isinstance(n, int) and n >= 1, m["name"]
    if trace:
        spans_file = HERE / "out" / f"{workload}-seed0-trace1-spans.jsonl"
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans) > 0
        for s in spans:
            assert set(s) == {"id", "name", "start", "end", "parent", "job"}
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                assert parent["job"] == s["job"]
        assert any(s["parent"] is not None for s in spans)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, result = run("hemi_vmf", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert result == {}
