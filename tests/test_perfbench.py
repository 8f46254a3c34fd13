"""The benchmark's default-seed inputs and engine outputs still match
the digests frozen in ``perfbench/frozen.json``, so drift in the corpus
generators or the engine shows without a timed benchmark run; and every
case of each workload's first pass gets the right verdict, so a wrong
answer shows without one too."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="module", params=["oracle-agreement", "cousin-sufficiency", "fresh-objects"])
def workload(request, workloads):
    """A workload's name and default-seed inputs, built once for both tests."""
    return request.param, workloads.WORKLOADS[request.param](workloads.DEFAULT_SEED)


def test_frozen_digests(workloads, workload):
    name, inputs = workload
    frozen = json.loads((PERFBENCH / "frozen.json").read_text())
    assert frozen["seed"] == workloads.DEFAULT_SEED
    assert workloads.inputs_digest(inputs) == frozen[name]["inputs"]
    assert workloads.outputs_digest(inputs) == frozen[name]["outputs"]


def test_first_pass_verdicts(workload):
    # as a benchmark pass runs: every package cache emptied first, then
    # each case's check; a case that is not True would count as failed
    _, inputs = workload
    for cached in _perfbench_module("tracer").find_caches().values():
        cached.cache_clear()
    cases = inputs.passes[0]
    wrong = [(check.__name__, i) for i, (check, args) in enumerate(cases) if check(*args) is not True]
    assert cases and wrong == []
