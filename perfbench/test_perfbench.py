"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    """A workload with a handful of inputs per kind."""
    wl = workloads.WORKLOADS[name]()
    wl.small_repeats = 1
    wl.large_count = 1
    wl.seeds_per_run = 1
    return wl


def smoke(name: str, trace: bool, workload=None, seed: int = 3) -> dict:
    return harness.run(name, seed, 0.1, trace, setup_repeats=1, max_ops=4,
                       workload=workload or small(name))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric_once(name, trace):
    record = smoke(name, trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert record["digest"]["traced"] == record["digest"]["untraced"]
        assert record["wrapped_bindings"] > 50


def test_tracing_restores_every_binding():
    import fcmac
    from fcmac import cli, experiments, probability, schemes
    before = (cli.main, experiments.compose, probability.marginalize,
              schemes.monte_carlo_af, fcmac.check_feasibility)
    smoke("experiments", True)
    assert (cli.main, experiments.compose, probability.marginalize,
            schemes.monte_carlo_af, fcmac.check_feasibility) == before
    assert not hasattr(cli.main, "__wrapped__")


def test_same_seed_same_digest():
    first = smoke("graphs", False)["digest"]
    second = smoke("graphs", False)["digest"]
    assert first == second
    assert smoke("graphs", False, seed=4)["digest"] != first


class FlippedVerdict(workloads.Check):
    """Rewrites each report with its first verdict flipped before the gate."""

    def execute(self, op):
        result = super().execute(op)
        out = op.args[1]
        report = json.loads(out.read_text())
        rec = report["inequalities"][0]
        rec["verdict"] = "strict" if rec["verdict"] == "violated" else "violated"
        out.write_text(json.dumps(report))
        return result


def test_corrupted_output_counts_as_failed():
    wl = FlippedVerdict()
    wl.small_repeats = 1
    wl.large_count = 1
    result = smoke("check", False, workload=wl)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graphs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
