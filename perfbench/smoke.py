"""Smoke tests for the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/smoke.py``.
They are not named ``test_*.py`` so the package's own test run does not
pick them up; every tiny run below starts a dozen CLI processes.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tvd import serialize_scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _docs(name: str, seed: int) -> dict[str, bytes]:
    wl = workloads.generate(name, seed, tiny=True)
    return {stem: serialize_scenario(s) for stem, s in wl.generated.items()}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert _docs(name, 3) == _docs(name, 3)
    assert _docs(name, 3) != _docs(name, 4)


def test_workload_names_match_benchmark_json():
    import run

    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    rows = json.loads((HERE / "layer_map.json").read_text())["rows"]
    patterns = [p for row in rows for p in row["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert any(fnmatch.fnmatchcase(metric["name"], p) for p in patterns), metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_the_gate_and_prints_the_declared_metrics(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "small_batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
