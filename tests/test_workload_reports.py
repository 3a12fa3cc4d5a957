"""Every benchmark workload report, byte for byte.

The benchmark (``perfbench/run.py``) draws one sweep config per workload and
seed.  This test builds the report of each of the 30 configs (three
workloads, seeds 1-10) in process and compares its sha256 with the table in
``workload_report_sha256.txt``, one ``workload seed sha256`` line each.  A
change that alters any report byte fails here; one that means to must
re-pin the table and say why.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qdgates.report import SweepConfig, run_sweep, serialize

TESTS = Path(__file__).resolve().parent
PINS = {
    (workload, int(seed)): (digest, csv_digest)
    for workload, seed, digest, csv_digest in (
        line.split() for line in (TESTS / "workload_report_sha256.txt").read_text().splitlines()
    )
}


def load_make_config():
    path = TESTS.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config


make_config = load_make_config()


# the algebra rows are computed in longdouble, whose width is platform-defined
X87_ONLY = pytest.mark.skipif(
    np.finfo(np.longdouble).eps != 2.0**-63, reason="the pins assume x87 80-bit longdouble"
)


def digest(workload, seed, output_format=None):
    report = run_sweep(SweepConfig.from_payload(make_config(workload, seed)))
    return hashlib.sha256(serialize(report, output_format)).hexdigest()


@X87_ONLY
@pytest.mark.parametrize("workload, seed", sorted(PINS))
def test_workload_report_bytes_are_pinned(workload, seed):
    assert digest(workload, seed) == PINS[workload, seed][0]


@X87_ONLY
@pytest.mark.parametrize("workload, seed", sorted(PINS))
def test_workload_csv_rows_are_pinned(workload, seed):
    assert digest(workload, seed, "csv") == PINS[workload, seed][1]
