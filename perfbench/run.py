"""cmrank benchmark: four workloads, end-to-end metrics untraced, per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload {census,solutions,prank,verify,all} \
        --seed N --seconds S --trace {0,1} [--limit K]

Run from anywhere; cmrank is imported from the `src/` directory next to this
one, nothing is installed.  Each pass of a workload runs in a fresh
interpreter (worker.py), as every `cmrank` invocation does, with
PRANK_THREADS removed from its environment.

--trace 0 runs passes while another one fits in --seconds (at least one), plus extra
set-up-only interpreters, and reports medians over them:
  wall_s       time spent in the ops of a pass
  cpu_s        process CPU time spent in them
  peak_rss_mb  the pass's ru_maxrss
  setup_s      interpreter start until cmrank is imported and inputs built
The three times are normalised to a reference CPU speed measured alongside
(see worker.py); the plain clock readings are reported as wall_raw_s,
cpu_raw_s and setup_raw_s.  The report lines above the result also give
n_ops, op_p50_ms / op_p90_ms where the percentile rule allows them (raw
times), failed_frac and the environment.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of tracing.py, the untraced verify suite times and
trace.overhead_share = (traced wall_s - untraced wall_s) / untraced wall_s.

Every op's output is checked against perfbench/golden/ after the timed
window; a raised op or a mismatch counts as failed and the exit code is 1.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
--limit K keeps the first K ops of each workload (the smoke configuration).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, os.fspath(HERE))

import tracing  # noqa: E402
from workloads import VERIFY_SUITES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # set-ups per untraced run, pass interpreters included
RUN_DEADLINE_S = 170.0  # one workload run, all interpreters together
OP_TABLE_MAX = 30  # per-op medians are reported for workloads this small
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RAW_TIMES = ("wall_raw_s", "cpu_raw_s", "setup_raw_s")  # reported, not gated


class BenchError(RuntimeError):
    pass


def percentile(values, q: float):
    """Nearest-rank q-th percentile, or None unless at least ten samples lie
    above it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": _loadavg(),
        "threads": 1,
        "PRANK_THREADS_removed": os.environ.get("PRANK_THREADS"),
    }


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def spawn(workload: str, seed: int, mode: str, limit, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PRANK_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} pass")
    spawned = time.monotonic()
    cmd = [sys.executable, os.fspath(HERE / "worker.py"), workload, str(seed), mode,
           repr(spawned), "-" if limit is None else str(limit)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} pass exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(passes) -> tuple:
    attempted = sum(len(r["ops"]) for r in passes)
    errors = [(label, msg) for r in passes for label, msg in r["errors"].items()]
    return attempted, errors


def run_untraced(workload, seed, seconds, limit) -> tuple:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes = [spawn(workload, seed, "run", limit, deadline)]
    # add a pass while one more of the mean length still fits in --seconds
    while (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(spawn(workload, seed, "run", limit, deadline))
    setups = passes + [
        spawn(workload, seed, "setup", limit, deadline)
        for _ in range(SETUP_SAMPLES - len(passes))
    ]

    median = statistics.median

    def pooled(name):
        return median(r[name] for r in (setups if name.startswith("setup") else passes))

    metrics = {name: pooled(name) for name in END_TO_END_UNITS}
    n_ops = len(passes[0]["ops"])
    detail = {
        "passes": len(passes),
        "n_ops": n_ops,
        "setup_samples": len(setups),
        "wall_s_per_pass": [r["wall_s"] for r in passes],
        "ref_median_s_per_pass": [r["ref_median_s"] for r in passes],
    }
    detail.update((name, pooled(name)) for name in RAW_TIMES)
    if n_ops <= OP_TABLE_MAX:
        per_op = zip(passes[0]["ops"], zip(*(r["op_s"] for r in passes)))
        detail["op_ms"] = {label: median(times) * 1e3 for label, times in per_op}
    for name, q in (("op_p50_ms", 50), ("op_p90_ms", 90)):
        values = [percentile(r["op_s"], q) for r in passes]
        if None not in values:
            detail[name] = median(values) * 1e3
    return metrics, detail, passes


def run_traced(workload, seed, limit) -> tuple:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = spawn(workload, seed, "run", limit, deadline)
    traced = spawn(workload, seed, "trace", limit, deadline)
    metrics = dict(traced["layers"])
    op_s = dict(zip(base["ops"], base["op_s"])) if workload == "verify" else {}
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}_s"] = op_s.get(suite, 0.0)
    metrics["verify.checks_failed"] = base["checks_failed"] + traced["checks_failed"]
    metrics["trace.overhead_share"] = traced["wall_s"] / base["wall_s"] - 1
    detail = {"n_ops": len(base["ops"]), "untraced_wall_s": base["wall_s"],
              "traced_wall_s": traced["wall_s"]}
    return metrics, detail, [base, traced]


def per_layer_units() -> dict:
    units = dict(tracing.PER_LAYER_UNITS)
    units.update({f"verify.{suite}_s": "s" for suite in VERIFY_SUITES})
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, help="first K ops only (smoke runs)")
    args = ap.parse_args(argv)

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = run_traced(name, args.seed, args.limit)
            else:
                results[name] = run_untraced(name, args.seed, args.seconds, args.limit)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = _loadavg()
    env["numpy"] = next(iter(results.values()))[2][0]["numpy"]
    print("env " + json.dumps(env, sort_keys=True))

    attempted, failed, out = 0, 0, {}
    for name, (metrics, detail, passes) in results.items():
        n, errors = _tally(passes)
        attempted += n
        failed += len(errors)
        n_ops = detail["n_ops"]
        print(f"[{name}] seed={args.seed} trace={args.trace} " + json.dumps(detail, sort_keys=True))
        for metric, value in metrics.items():
            print(f"  {name}.{metric:<28} {value:>14.6g} {units[metric]:<6} n_ops={n_ops}")
        for metric, unit in (("op_p50_ms", "ms"), ("op_p90_ms", "ms")) + tuple((t, "s") for t in RAW_TIMES):
            if metric in detail:
                print(f"  {name}.{metric:<28} {detail[metric]:>14.6g} {unit:<6} n_ops={n_ops}")
        print(f"  {name}.{'failed_frac':<28} {len(errors) / n:>14.6g} ratio  n_ops={n}")
        for label, message in errors:
            print(f"  FAILED {name} {label}: {message}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in metrics.items():
            out[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
