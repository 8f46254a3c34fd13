"""The benchmark's default-seed inputs and engine outputs still match
the digests frozen in ``perfbench/frozen.json``, so drift in the corpus
generators or the engine shows without a timed benchmark run."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["oracle-agreement", "cousin-sufficiency", "fresh-objects"])
def test_frozen_digests(workloads, name):
    frozen = json.loads((PERFBENCH / "frozen.json").read_text())
    assert frozen["seed"] == workloads.DEFAULT_SEED
    inputs = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    assert workloads.inputs_digest(inputs) == frozen[name]["inputs"]
    assert workloads.outputs_digest(inputs) == frozen[name]["outputs"]
