"""Smoke test of the benchmark at its smallest size; it gates no timing.

Run with ``python -m pytest perfbench/test_smoke.py`` from the checkout root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "cli-short",
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smallest_run_reports_every_metric(trace, section):
    done = bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["attempted"] % 27 == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads(done.stdout.splitlines()[-2])
    assert record["check_fail_share"]["failed_rows"] == result["failed"]
    assert len(record["report_sha256"]) == 64


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""
