"""The verification driver: determinism, report schema, worker pool."""

import json
import multiprocessing
import os
from fractions import Fraction

import pytest

from crtasep import verify
from crtasep.combinatorics import Word
from crtasep.errors import NoConvergence, RelationViolation
from crtasep.oracles.markov import build_transition_matrix
from crtasep.verify import SUITES, run_suite, worker_count

W = Word.from_string


def test_report_schema_and_pass():
    report = run_suite("relations", 0, 42)
    assert set(report) == {"suite", "instances", "failures", "elapsed_ms"}
    assert report["suite"] == "relations"
    assert report["instances"] == 40
    assert report["failures"] == []
    json.dumps(report)  # serialisable


def test_instances_deterministic_under_seed():
    a = run_suite("recurrence", 2, 7)
    b = run_suite("recurrence", 2, 7)
    assert a["instances"] == b["instances"]
    assert a["failures"] == b["failures"] == []


def test_all_runs_every_suite():
    report = run_suite("all", 2, 5)
    assert report["suite"] == "all"
    assert report["failures"] == []
    total = sum(run_suite(s, 2, 5)["instances"] for s in SUITES)
    assert report["instances"] == total


def test_worker_pool_matches_serial(monkeypatch):
    serial = run_suite("bijection", 3, 1, workers=1)
    parallel = run_suite("bijection", 3, 1, workers=2)
    assert serial["instances"] == parallel["instances"]
    assert serial["failures"] == parallel["failures"] == []
    monkeypatch.setenv("CRTASEP_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CRTASEP_WORKERS", "junk")
    assert worker_count() == 1


def test_raising_instance_is_recorded_and_the_rest_still_run(monkeypatch):
    make, check = verify._SUITE_FUNCS["relations"]
    bad = make(0, 42)[3]

    def flaky(instance):
        if instance == bad:
            raise NoConvergence("no stable value")
        return check(instance)

    monkeypatch.setitem(verify._SUITE_FUNCS, "relations", (make, flaky))
    report = run_suite("relations", 0, 42, workers=1)
    assert set(report) == {"suite", "instances", "failures", "elapsed_ms"}
    assert report["instances"] == 40
    assert report["failures"] == [
        {"instance": list(bad), "error": "NoConvergence: no stable value", "suite": "relations"}
    ]


def test_pool_size_clamped_to_cpus_and_tasks(monkeypatch):
    sizes = []

    class RecordingPool:  # records the requested size; starts no process
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=1):
            return [func(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setenv("CRTASEP_WORKERS", str(10**9))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_suite("relations", 0, 42)["failures"] == []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_suite("relations", 0, 42)["failures"] == []
    assert sizes == [4, 40]  # 40 instances
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_suite("relations", 0, 42)
    assert sizes == [4, 40]  # an unknown CPU count runs serially


def _wrong_at(real, args, wrong):
    """``real``, except that the call with positional arguments ``args``
    answers wrong(its real answer)."""

    def patched(*call, **keywords):
        value = real(*call, **keywords)
        return wrong(value) if call == args else value

    return patched


def _violation(report):
    raise RelationViolation(report["checks"][2], (3, 4), 1, 2)


# suite, bound, instances, the callee in crtasep.verify and its arguments at
# the one failing instance, its wrong answer there, that instance, and the
# keys the suite's check reports for it
FAILURE_PATHS = [
    (
        "markov", 3, 57,
        "build_transition_matrix", (1, 1, 1, Fraction(1, 3)),
        lambda matrix: build_transition_matrix(1, 1, 1, Fraction(2, 3)),
        [1, 1, 1, "1/3"], {"state": "012", "solved": "7/45", "formula": "5/36"},
    ),
    (
        "recurrence", 2, 18, "tab_qtx", (W("12"),), lambda v: v + v,
        ["sym", "12"], {"error": "symbolic trace identity fails"},
    ),
    (
        "numeric-trace", 1, 9,
        "truncated_trace", (W("1"), Fraction(2, 3), Fraction(2, 9), (Fraction(19, 20),)), lambda v: 0.0,
        ["1", "2/3", "2/9", ("19/20",)], {"relative_error": 1.0},
    ),
    (
        "relations", 0, 40, "check_ansatz_relations", (Fraction(7, 8), Fraction(1, 8)), _violation,
        ["ansatz", "7/8", "1/8"], {"relation": "A1A2=t*A2A1+(1-t)*A1", "entry": [3, 4]},
    ),
    (
        # one queue twice: the sorted matchings differ, so no length test is needed
        "bijection", 2, 12, "enumerate_queues", (W("12"),), lambda queues: queues + queues[:1],
        ["12"], {"error": "queue enumeration mismatch"},
    ),
    (
        "symmetries", 2, 21, "partition_function", (0, 1, 1), lambda z: z + z,
        ["psym", "21"], {"error": "P at q=1, x=1 is not the partition function"},
    ),
    (
        "specialization", 2, 12, "tab_t", (W("21"),), lambda v: v + v,
        ["21"], {"error": "q=1, x=1 specialization mismatch"},
    ),
]


@pytest.mark.parametrize(
    "suite, bound, instances, callee, args, wrong, instance, keys", FAILURE_PATHS, ids=[c[0] for c in FAILURE_PATHS]
)
def test_a_wrong_answer_fails_exactly_its_instance(monkeypatch, suite, bound, instances, callee, args, wrong, instance, keys):
    monkeypatch.setattr(verify, callee, _wrong_at(getattr(verify, callee), args, wrong))
    report = run_suite(suite, bound, 0, workers=1)
    assert report["instances"] == instances
    [failure] = report["failures"]
    assert list(failure) == ["instance", *keys, "suite"]
    assert failure == {"instance": instance, **keys, "suite": suite}
