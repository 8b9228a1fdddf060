"""Outside-in benchmark of the sinegordon workbench.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {chaos,dipole,converge,audit}
                             --seed N --seconds S --trace {0,1}

Every round of a workload runs in a fresh single-threaded Python process
(``workloads.py``), one process at a time, so each pays what one ``sgbench``
call pays: the numpy import and cold process-global caches.  Untraced
(``--trace 0``), rounds are started until the next one would end after
``--seconds``; at least one always runs.  Traced (``--trace 1``), one
untraced and one traced round run at the same seed; their outputs must be
identical and the ratio of their CPU times is the tracing overhead.

Times are process CPU time, not wall time: on a shared virtual machine the
hypervisor can steal a large share of a core for minutes at a time, which
CPU time excludes and wall time does not.  The workloads are
single-threaded, so their CPU time is the wall time an unshared core gives.
The gated round time is rescaled to a nominal machine speed by a reference
kernel timed between short slices of each call (``calibrate.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
timed call into the workbench; it fails when it raises, when its output check
fails, or when its output digest differs from another round at the same seed.
A run exits 0 once it has printed its result, whose ``correct`` is false
when any operation failed, and 2 without a result when the checkout cannot
be benchmarked.  ``--workload all`` runs every workload untraced and traced,
prints every metric by name with its unit, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("chaos", "dipole", "converge", "audit")
SETUP_SAMPLES = 7        # set-up times per run; their median is setup_s
RUN_LIMIT_S = 170        # every run must end within 180 s

END_TO_END = {           # name -> unit
    "setup_s": "s",
    "round_norm_cpu_s": "s",
    "units_per_norm_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One fresh process; returns its report plus its process wall time."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["process_s"] = time.monotonic() - t0
    return report


def round_time(report: dict, clock: str = "cpu_s") -> float:
    return sum(c[clock] for c in report["calls"])


def count_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed calls, comparing each call's digest across rounds."""
    attempted, failed, why = 0, 0, []
    reference = {}
    for rnd in rounds:
        for call in rnd["calls"]:
            attempted += 1
            ref = reference.setdefault(call["name"], call.get("digest"))
            if not call["ok"]:
                why.append(f"{call['name']}: check failed "
                           f"{call.get('error', '')}".strip())
            elif call.get("digest") != ref:
                why.append(f"{call['name']}: output differs between rounds")
            else:
                continue
            failed += 1
    return attempted, failed, why


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(run_child(workload, seed, "run", deadline))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["process_s"] for r in rounds)
        if elapsed + typical > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", deadline)["setup_s"])
    norms = [round_time(r, "norm_cpu_s") for r in rounds]
    units = sum(c["units"] for r in rounds for c in r["calls"])
    metrics = {
        "setup_s": statistics.median(setups),
        "round_norm_cpu_s": statistics.median(norms),
        "units_per_norm_cpu_s": units / sum(norms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, []


def traced(workload: str, seed: int, deadline: float):
    plain = run_child(workload, seed, "run", deadline)
    trace = run_child(workload, seed, "trace", deadline)
    traced_wall = round_time(trace, "wall_s")
    overhead = round_time(trace) / round_time(plain) - 1
    values = dict(trace["layers"])
    values["stochastic.chaos_mean.time_to_1pct_s"] = 0.0
    values["stochastic.dipole_moment.time_to_1pct_s"] = 0.0
    for call in plain["calls"]:
        if "rel_se" in call:
            # time the estimator needs for a 1% relative standard error
            values[f"stochastic.{call['name']}.time_to_1pct_s"] = \
                call["norm_cpu_s"] * (call["rel_se"] / 0.01) ** 2
    values["process.wall_s"] = round_time(plain, "wall_s")
    values["process.cpu_s"] = round_time(trace)
    values["process.traced_wall_s"] = traced_wall
    values["process.tracing_overhead"] = overhead
    values["process.host_speed"] = statistics.median(
        c["speed"] for c in plain["calls"])
    problems = []
    if not trace.get("restored"):
        problems.append("tracer left a wrapped callable in place")
    # self times of all spans add up to the top-level spans, which cover the
    # traced wall time up to the benchmark's own loop overhead
    tolerance = max(abs(overhead), 1e-3)
    if abs(trace["self_total_s"] - trace["top_level_s"]) > 1e-6 * traced_wall \
            or abs(trace["top_level_s"] / traced_wall - 1) > tolerance:
        problems.append("span self times do not add up to the traced wall")
    metrics = {name: (values[name], unit) for name, unit, _ in metric_names()}
    return [plain, trace], metrics, problems


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: print each metric by name, return the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        rounds, metrics, problems = traced(workload, seed, deadline)
    else:
        rounds, metrics, problems = untraced(workload, seed, seconds, deadline)
    attempted, failed, why = count_failures(rounds)
    for line in why + problems:
        print(f"FAIL {workload}: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "sinegordon" / "__init__.py").is_file():
        print(f"error: no sinegordon package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)   # untimed: the build step
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
            print(json.dumps(result))
            return 0
        # every workload, untraced then traced; non-zero if any check fails
        correct = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = measure(workload, args.seed, args.seconds, trace)
                correct = correct and result["correct"]
        return 0 if correct else 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
