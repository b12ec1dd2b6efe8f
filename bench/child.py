"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]

Imports crtasep from the checkout's ``src``, generates the workload's
inputs, checks that every cache starts cold, then prints ``ready``; the
parent times set-up up to that line.  It then runs the full instance list
(timed, traced with --trace), checks every answer untimed, and prints one
JSON line with the pass's figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
MAX_REPORTED_FAILURES = 10
PROBE_EVERY_S = 0.25
# The probe's median time on the 2-vCPU virtual machine where the benchmark
# was defined; ref_s figures are seconds at that speed.
REF_PROBE_S = 0.023


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe() -> float:
    """Seconds for a fixed pure-Python task, a sparse polynomial product over
    Fraction that shares no code with crtasep: a gauge of how fast the
    machine runs this kind of code at the moment."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(6)}
    start = time.perf_counter()
    for _ in range(3):
        prod: dict = {}
        for (ai, aj), ac in a.items():
            for (bi, bj), bc in a.items():
                key = (ai + bi, aj + bj)
                prod[key] = prod.get(key, 0) + ac * bc
    return time.perf_counter() - start


def reference_times(times: list[float], probes: list[float]) -> list[float]:
    """Instance times rescaled to the reference speed: each is multiplied by
    REF_PROBE_S over the pass's median probe time, so that a pass run while
    the machine is slow as a whole reads as it would at the usual speed."""
    scale = REF_PROBE_S / statistics.median(probes)
    return [t * scale for t in times]


def run_instances(workload, instances, tracer=None, gauge=None) -> dict:
    """Run every instance in order, timing each; an instance that raises is
    recorded as failed and the rest still run.  With ``gauge`` (a probe
    function) the machine's speed is probed before, after, and every
    PROBE_EVERY_S between instances, outside the instance timings."""
    texts, values, failures, times, probes = [], [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        if gauge is not None:
            probes.append(gauge())
        last_probe = time.perf_counter()
        for i, (_key, payload) in enumerate(instances):
            began = time.perf_counter()
            try:
                text, value, failure = workload.compute(payload)
            except Exception as exc:  # counted in failed_frac, never aborts the pass
                text, value, failure = None, None, f"{type(exc).__name__}: {exc}"
            finished = time.perf_counter()
            times.append(finished - began)
            texts.append(text)
            values.append(value)
            failures.append(failure)
            if gauge is not None and (finished - last_probe >= PROBE_EVERY_S or i + 1 == len(instances)):
                probes.append(gauge())
                last_probe = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"run_s": sum(times), "instance_s": times, "texts": texts, "values": values, "failures": failures}
    if gauge is not None:
        out["instance_ref_s"] = reference_times(times, probes)
        out["run_ref_s"] = sum(out["instance_ref_s"])
        out["probe_s"] = probes
    return out


def check_pass(workload, instances, timed: dict, golden: dict | None) -> dict:
    """Untimed checks: in-path failures, golden digests (when given) and the
    workload's gate.  Each failing instance or gate check counts once."""
    messages = []
    failed = 0
    digests = {}
    for (key, _payload), text, failure in zip(instances, timed["texts"], timed["failures"]):
        if text is not None:
            digests[key] = digest(text)
        if failure is None and golden is not None and golden.get(key) != digests.get(key):
            failure = "output differs from the golden digest"
        if failure is not None:
            failed += 1
            messages.append(f"{key}: {failure}")
    try:
        gate = workload.gate(instances, timed["values"])
    except Exception as exc:  # a broken gate is one failed check
        gate = [("gate", f"{type(exc).__name__}: {exc}")]
    for name, failure in gate:
        if failure is not None:
            failed += 1
            messages.append(f"{name}: {failure}")
    return {
        "attempted": len(instances) + len(gate),
        "failed": failed,
        "failures": messages[:MAX_REPORTED_FAILURES],
        "digests": digests,
    }


def require_cold() -> None:
    """Isolation guard: no worker pool and no warm cache before the first instance."""
    from crtasep.algebra.poly import poly_gcd
    from crtasep.oracles.recurrence import _SYMBOLIC_CACHE
    from crtasep.weights import _partition_function_cached

    problems = []
    if "CRTASEP_WORKERS" in os.environ:
        problems.append("CRTASEP_WORKERS is set")
    if poly_gcd.cache_info().currsize:
        problems.append("poly_gcd cache is warm")
    if _SYMBOLIC_CACHE:
        problems.append("_SYMBOLIC_CACHE is not empty")
    if _partition_function_cached.cache_info().currsize:
        problems.append("partition-function cache is warm")
    if problems:
        raise SystemExit("not a cold start: " + "; ".join(problems))


def import_crtasep():
    sys.path.insert(0, str(SRC))
    import crtasep

    if Path(crtasep.__file__).resolve().parent != SRC / "crtasep":
        raise SystemExit(f"crtasep imported from {crtasep.__file__}, not from {SRC}")
    return crtasep


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_crtasep()
    workload = WORKLOADS[args.workload]
    instances = workload.make_inputs(args.seed)
    require_cold()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from layers import PACKAGES, make_targets
        from tracer import Tracer

        tracer = Tracer(make_targets(), PACKAGES)
    timed = run_instances(workload, instances, tracer, gauge=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.report() if tracer is not None else None  # before the gate adds work
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[workload.name]
    checked = check_pass(workload, instances, timed, golden)
    timings = ("run_s", "instance_s", "run_ref_s", "instance_ref_s", "probe_s")
    result = {key: timed[key] for key in timings if key in timed}
    result["peak_rss_mb"] = peak_rss_mb
    result.update((key, checked[key]) for key in ("attempted", "failed", "failures"))
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
