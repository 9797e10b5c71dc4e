"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs shrunk in-process, traced and untraced; the test checks
that every metric named in BENCHMARK.json comes out with its unit and that
all output checks pass.  It also checks that the benchmark refuses to run
without the package sources.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "unconstrained_n50": dict(n=24, quality_trials=2),
    "unconstrained_n100_pool": dict(n=24, batch=2, quality_trials=2),
    "constrained_mix": dict(n=10, parts=2, cap=2, instances=2, h=3, t=1, m_cover=2,
                            m_cut=2, best_of=2, mcg_step=0.5, mcg_samples=1,
                            quality_trials=2),
}


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, name, replace(run.WORKLOADS[name], **TINY[name]))
    monkeypatch.setattr(run, "OUT", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, stdout.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constrained_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
