"""The first round of every benchmark workload at the reference seed.

benchmark/workloads.py is loaded as it stands and each job goes through
the workload's own run, check and digest, against benchmark/reference.json.
A job that raises, fails its brute-force check or changes a pinned digest
fails here before a benchmark run counts it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


def load(name, alias):
    spec = importlib.util.spec_from_file_location(alias, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the benchmark's own `oracles`, which shares its
    # name with tests/oracles.py
    saved = sys.modules.get("oracles")
    sys.modules["oracles"] = load("oracles", "benchmark_oracles")
    try:
        return load("workloads", "benchmark_workloads").WORKLOADS
    finally:
        if saved is None:
            del sys.modules["oracles"]
        else:
            sys.modules["oracles"] = saved


@pytest.mark.parametrize("name", ["census", "search", "twist", "cli"])
def test_first_round_matches_the_reference(workloads, name):
    reference = json.loads((BENCH / "reference.json").read_text())
    digests = reference["digests"][name]
    w = workloads[name]
    jobs = next(w.rounds(reference["seed"]))
    for index, job in enumerate(jobs):
        output = w.run(job)
        assert w.check(job, output) == [], job["key"]
        assert w.digest(job, output) == digests[index], job["key"]
