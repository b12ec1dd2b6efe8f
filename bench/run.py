"""Entry point of the crtasep benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs the workload's full instance list in a fresh interpreter
(bench/child.py) with cold caches and CRTASEP_WORKERS removed, as a CLI
user pays on every command.  Passes repeat until S seconds have gone; the
run reports medians over passes.  With --trace 0 the last line holds the
end-to-end metrics of BENCHMARK.json; with --trace 1 untraced and traced
passes alternate and it holds the per-layer metrics, including the tracing
overhead.  The line before it is a JSON report with sample counts, the
failure fraction, every traced function's figures and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5  # set-up-only interpreters per untraced run, besides one per pass
MIN_PASSES = 3
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, trace: bool = False, setup_only: bool = False):
    """Run one child; returns (set-up seconds, the child's result or None)."""
    env = {k: v for k, v in os.environ.items() if k != "CRTASEP_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded the run's time limit")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return setup_s, (None if setup_only else json.loads(out.splitlines()[-1]))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    setups = [spawn(workload, seed, deadline, setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    passes = []
    began = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - began < seconds:
        setup_s, result = spawn(workload, seed, deadline)
        setups.append(setup_s)
        passes.append(result)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # run_s and the quantiles at the reference speed; the *_raw twins are plain wall time
    for suffix, field in (("", "ref_s"), ("_raw", "s")):
        # each instance's median over the passes, then quantiles over the instance list
        instance_s = [statistics.median(ts) for ts in zip(*(p[f"instance_{field}"] for p in passes))]
        values[f"run_s{suffix}"] = statistics.median(p[f"run_{field}"] for p in passes)
        values[f"instance_s_p50{suffix}"] = statistics.median(instance_s)
        values[f"instance_s_p90{suffix}"] = percentile(instance_s, 90)
    probes = [t for p in passes for t in p["probe_s"]]
    values["probe_s"] = statistics.median(probes)
    samples = {
        "setup_s": len(setups),
        "run_s": len(passes),
        "instance_s_p50": f"{len(instance_s)} instances x {len(passes)} passes",
        "instance_s_p90": f"{len(instance_s)} instances x {len(passes)} passes",
        "peak_rss_mb": len(passes),
        "probe_s": len(probes),
        "instances_per_pass": len(passes[0]["instance_s"]),
    }
    return values, samples, passes


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    plain, passes = [], []
    began = time.monotonic()
    while not passes or time.monotonic() - began < seconds:
        plain.append(spawn(workload, seed, deadline)[1])
        passes.append(spawn(workload, seed, deadline, trace=True)[1])
    keys = passes[0]["layers"]
    values = {key: statistics.median(p["layers"][key] for p in passes) for key in keys}
    untraced_s = statistics.median(p["run_ref_s"] for p in plain)
    traced_s = statistics.median(p["run_ref_s"] for p in passes)
    values["trace_overhead_s"] = traced_s - untraced_s
    samples = {"traced_passes": len(passes), "untraced_passes": len(plain)}
    return values, samples, plain + passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crtasep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "crtasep" / "__init__.py").is_file():
        print("error: src/crtasep is missing; run from the repository root", file=sys.stderr)
        return 1

    deadline = time.monotonic() + HARD_LIMIT_S
    env_before = machine()
    measure = traced if args.trace else end_to_end
    try:
        values, samples, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
        "values": values,
        "run_s_raw_per_pass": [p["run_s"] for p in passes],
        "machine": env_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }
    print(json.dumps({"report": report}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
