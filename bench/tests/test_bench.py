"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from child import REF_PROBE_S, check_pass, digest, import_crtasep, reference_times, run_instances  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert make(7) != make(8)
    keys = [key for key, _ in make(7)]
    assert len(keys) == len(set(keys))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _fake_package(clock):
    """fakepkg.mod defines inner/outer/gen; fakepkg.user holds from-import copies."""
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        clock.advance(5)

    def outer():
        clock.advance(1)
        mod.inner()
        clock.advance(2)
        mod.inner()
        clock.advance(3)

    def gen():
        for value in (1, 2):
            clock.advance(4)
            yield value

    mod.inner, mod.outer, mod.gen = inner, outer, gen
    user = types.ModuleType("fakepkg.user")
    user.inner, user.gen = inner, gen
    return mod, user


@pytest.fixture
def fake_modules():
    clock = FakeClock()
    mod, user = _fake_package(clock)
    sys.modules.update({"fakepkg.mod": mod, "fakepkg.user": user})
    try:
        yield clock, mod, user
    finally:
        del sys.modules["fakepkg.mod"], sys.modules["fakepkg.user"]


def test_self_time_of_a_nested_call(fake_modules):
    clock, mod, user = fake_modules
    originals = (mod.inner, mod.outer, mod.gen)
    targets = [Target(name, None, fn) for name, fn in zip(("inner", "outer", "gen"), originals)]
    tracer = Tracer(targets, ("fakepkg",), clock=clock)
    with tracer:
        assert user.inner is not originals[0] and mod.inner is user.inner
        mod.outer()
        user.inner()
        for _ in user.gen():
            clock.advance(100)  # consumer time between resumptions is not the generator's
    assert (mod.inner, mod.outer, mod.gen, user.inner, user.gen) == originals + originals[:1] + originals[2:]
    report = tracer.report()
    assert report["outer.calls"] == 1 and report["inner.calls"] == 3 and report["gen.calls"] == 1
    assert report["outer.self_s"] == 1 + 2 + 3
    assert report["inner.self_s"] == 3 * 5
    assert report["gen.self_s"] == 2 * 4


def test_tracer_wraps_every_binding_and_restores_them():
    import_crtasep()
    from crtasep.algebra import poly, ratfunc
    from layers import PACKAGES, make_targets

    targets = make_targets()
    tracer = Tracer(targets, PACKAGES)
    before = {id(t): tracer.bindings(t) for t in targets}
    assert all(before.values())
    assert (ratfunc, "poly_gcd") in before[id(targets[0])]
    assert {attr for _, attr in before[id(next(t for t in targets if t.name == "algebra.MultiPoly.mul"))]} == {
        "__mul__",
        "__rmul__",
    }
    with tracer:
        assert not any(tracer.bindings(t) for t in targets)
        poly.MultiPoly.t() * poly.MultiPoly.q()
    assert {id(t): tracer.bindings(t) for t in targets} == before
    assert tracer.report()["algebra.MultiPoly.mul.calls"] == 1


def _checked(payload):
    value, expected = payload
    if value == "boom":
        raise ZeroDivisionError("boom")
    return str(value * 2), value * 2, None if value * 2 == expected else "wrong answer"


def test_wrong_and_raising_instances_count_as_failed():
    fake = Workload(
        "fake",
        make_inputs=lambda seed: [("a", (1, 2)), ("b", (2, 5)), ("c", ("boom", 0)), ("d", (4, 8))],
        compute=_checked,
        gate=lambda instances, values: [("total", None if sum(v or 0 for v in values) == 14 else "bad total")],
    )
    instances = fake.make_inputs(0)
    timed = run_instances(fake, instances)
    assert len(timed["instance_s"]) == 4 and timed["texts"][3] == "8"  # the rest still ran
    checked = check_pass(fake, instances, timed, golden=None)
    assert (checked["attempted"], checked["failed"]) == (5, 2)
    assert checked["failures"][0].startswith("b: wrong answer")
    assert "ZeroDivisionError" in checked["failures"][1]

    golden = {"a": digest("2"), "b": digest("4"), "d": digest("9")}
    assert check_pass(fake, instances, timed, golden)["failed"] == 3


def test_reference_times_scale_by_the_median_probe():
    probes = [REF_PROBE_S, 2 * REF_PROBE_S, 9 * REF_PROBE_S]
    assert reference_times([1.0, 4.0], probes) == pytest.approx([0.5, 2.0])


def test_probes_run_around_the_instances():
    fake = Workload("fake", lambda seed: [(str(i), (i, 2 * i)) for i in range(5)], _checked, lambda i, v: [])
    timed = run_instances(fake, fake.make_inputs(0), gauge=lambda: REF_PROBE_S)
    assert len(timed["probe_s"]) >= 2
    assert timed["instance_ref_s"] == pytest.approx(timed["instance_s"])
