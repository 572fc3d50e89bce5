"""The benchmark's ops run in the tier-1 suite: each workload of
``perfbench/workloads.py`` sets up, runs one op and checks it, so a library
change that breaks an op fails here and not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    problems, _ = workload.check(0, workload.run_op(0))
    assert problems == []
