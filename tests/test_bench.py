"""The benchmark harness still runs its call sequence against the package.

``bench/`` calls the public API by name and with fixed signatures, and
``bench/tracer.py`` patches some of them; an API change that breaks either
would otherwise show only when the benchmark is run.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_bench_selftest_passes():
    assert "selftest FAILED" not in _run("bench/selftest.py")


def test_bench_compare_coarse_repetition_reproduces_expected_outputs():
    result = json.loads(_run("bench/worker.py", "compare_coarse", "tier1", "0").splitlines()[-1])
    assert "error" not in result, result["error"]
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    assert result["outputs"] == expected["compare_coarse"]
