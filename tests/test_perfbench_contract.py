"""perfbench's calls into gadel, played once per workload: the set-up at
seed 0 and the last, cheap operation of the round, judged by the
workload's own check.  The set-up compiles each theory and opens
`CandidateQuerySession(compiled, frozenset())`; the operations call
`evolve` and `enumerate_extensions` and read their certificates and
outcomes.  A change to any of these fails here, not only in a benchmark
run.  perfbench is imported as it is, and nothing under it is written."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports check and families
        import workloads
        yield workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_setup_and_last_operation(workloads, name):
    problems = []
    ops = workloads.WORKLOADS[name](0, problems)
    assert problems == []
    op = ops[-1]
    judged = op.judge(op.call())
    assert not judged.failed and judged.problem is None, judged.problem
