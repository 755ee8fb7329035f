"""Seed handling of the benchmark's workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The same seed must give identical inputs and identical output digests; a
second seed must give different inputs whose jobs still pass every exact
check (a job raises when a check fails).
"""

import pytest

import worker
import workloads
from cosegal import documents

# a few jobs per workload keep the test short; the jobs are the benchmark's own
JOBS = {"free": 2, "cosegalify": 1, "lifting": 4}


def _canonical(name: str, item) -> str:
    if name == "free":
        return documents.dump_document(item, "diagram")
    if name == "lifting":
        g, trivial = item
        return documents.canonical_dumps([documents.map_to_dict(g), trivial])
    return item


def _digest(name: str, seed: int, tmp_path) -> tuple[list[str], str]:
    inputs = workloads.make_inputs(name, seed, JOBS[name])
    w = workloads.WORKLOADS[name]
    outputs = [w.output(w.job(a)) for a in w.prepare(inputs.items, str(tmp_path), "in")]
    return [_canonical(name, i) for i in inputs.items], worker.digest(outputs)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_and_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digest(name, 11, tmp_path) == _digest(name, 11, tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_other_inputs_still_exact(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first, d1 = _digest(name, 11, tmp_path)
    second, d2 = _digest(name, 12, tmp_path)
    assert first != second
    assert d1 != d2


def test_prefix_property():
    """A shorter draw is a prefix of a longer one, so reference jobs do not
    depend on the pool size."""
    short = workloads.make_inputs("lifting", 5, 3)
    long = workloads.make_inputs("lifting", 5, 6)
    assert [_canonical("lifting", i) for i in short.items] == [
        _canonical("lifting", i) for i in long.items[:3]
    ]
