"""The benchmark's point queries, checked in tier-1.

perfbench/workloads.py checks every answer against its defining property, so
a kernel change that breaks a point query fails here, not only in a
benchmark run. The module is only read and run, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def context(workloads):
    return workloads.PointContext()


@pytest.mark.parametrize("seed", ["7", "8"])
def test_point_queries_answer_correctly(workloads, context, seed):
    result = workloads.run_queries(context, seed, count=400)
    assert result["ops"] == 400
    assert result["failed"] == 0, result["failures"]
    assert set(result["kinds"]) == {kind for kind, _ in workloads.DECK}
