"""The benchmark harness still runs its call sequence against the package.

``bench/`` calls the public API by name and with fixed signatures, and
``bench/tracer.py`` patches some of them; an API change that breaks either
would otherwise show only when the benchmark is run.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_bench_selftest_passes():
    assert "selftest FAILED" not in _run("bench/selftest.py")


def _repetition(workload: str, traced: bool) -> dict:
    result = json.loads(_run("bench/worker.py", workload, "tier1", str(int(traced))).splitlines()[-1])
    assert "error" not in result, result["error"]
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    assert result["outputs"] == expected[workload]
    return result


@pytest.mark.parametrize("workload", ["min_time", "compare_coarse", "sweep_avg_angle"])
def test_bench_repetition_reproduces_expected_outputs(workload):
    _repetition(workload, traced=False)


def test_bench_traced_compare_coarse_repetition_runs():
    # the tracer patches functions by name and reads their results' shapes,
    # so an API change can break --trace 1 alone; and a layer that moves
    # out of the traced spans can take coverage below what run.py accepts
    layers = _repetition("compare_coarse", traced=True)["layers"]
    assert layers["dp.apply_policy_calls"] > 0 and layers["dp.backward_steps"] > 0
    assert layers["trace.coverage"] >= 0.9  # MIN_COVERAGE in bench/tracer.py
