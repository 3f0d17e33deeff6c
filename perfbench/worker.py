"""One pass of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace> <spawn_monotonic> <limit|->

`setup` stops after cmrank is imported and the inputs are built.  `run` then
times every op untraced; `trace` times them with the spans of tracing.py
installed.  Outputs are checked against the goldens after the timed window.
The result is one JSON object on the last line of stdout.

Speed reference.  On a shared host the CPU speed this process gets drifts by
up to 2x over minutes, so raw times of runs minutes apart differ more than any
useful bound.  Every TICK_S the pass times a fixed loop of the workload's kind
(`workloads.REFERENCE`): Python objects, or numpy for the vectorised census.
Scaling each op by the loop's nominal time over the loop times measured
around it gives wall_s / cpu_s: the op time at the speed where the loop takes
its nominal time.  setup_s is scaled likewise by loops timed right after
set-up.  The unscaled times are reported as *_raw_s.  The loops are
benchmark code, so a change to cmrank moves the normalised times as it moves
the raw ones.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TICK_S = 0.05  # a reference sample every TICK_S of wall time, ops included


def _arith_loop() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, i):
        return _Pair((self.a * i + 7) % 1009, (self.b + i * i) % 1009)


def _objects_loop() -> int:
    """Object creation, method calls, tuples and hashing, as in cmrank's
    FieldElement and DensePoly code."""
    x, seen = _Pair(1, 2), set()
    for i in range(3000):
        x = x.step(i)
        seen.add((x.a, x.b))
    return len(seen)


def _numpy_loop() -> None:
    import numpy as np

    x = np.arange(32768, dtype=np.int64)
    for _ in range(12):
        x = (x * 977 + 12345) % 1000003


# loop and its nominal time: the typical loop time on a 2-core Xeon VM, only a
# scale.  Ops use "objects" or "numpy" (workloads.REFERENCE); set-up, which is
# interpreter start and imports, tracked the plain "arith" loop best.
REFERENCE_LOOPS = {
    "objects": (_objects_loop, 0.0015),
    "numpy": (_numpy_loop, 0.0024),
    "arith": (_arith_loop, 0.0017),
}


def _timed(loop) -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference loop on a SIGALRM timer, during ops and between
    them.  Python runs the handler between bytecodes of the main thread, so
    a sample interrupts cmrank code but never runs beside it; `probe_s` is
    the wall time spent sampling, which the op timings subtract."""

    def __init__(self, loop):
        self.loop = loop
        self.samples = []
        self.probe_s = 0.0

    def sample(self, *_signal_args) -> None:
        elapsed = _timed(self.loop)
        self.samples.append(elapsed)
        self.probe_s += elapsed

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def time_ops(ops, reference) -> dict:
    """Run the ops in order under a SpeedProbe.  Each op's time is scaled by
    the nominal loop time over the mean of the samples taken during it and
    the nearest one on either side."""
    loop, nominal_s = reference
    outputs, op_s, op_cpu_s, windows, errors = [], [], [], [], {}
    with SpeedProbe(loop) as probe:
        for op in ops:
            first, probed = len(probe.samples), probe.probe_s
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception as exc:  # a failing op is counted, the pass goes on
                outputs.append(None)
                errors[op.label] = f"raised {type(exc).__name__}: {exc}"
            probed = probe.probe_s - probed
            op_s.append(time.perf_counter() - start - probed)
            op_cpu_s.append(time.process_time() - cpu0 - probed)
            windows.append((first - 1, len(probe.samples) + 1))
    scales = [nominal_s / statistics.fmean(probe.samples[lo:hi]) for lo, hi in windows]
    return {
        "outputs": outputs,
        "op_s": op_s,
        "errors": errors,
        "wall_raw_s": sum(op_s),
        "cpu_raw_s": sum(op_cpu_s),
        "wall_s": sum(t * k for t, k in zip(op_s, scales)),
        "cpu_s": sum(t * k for t, k in zip(op_cpu_s, scales)),
        "ref_median_s": statistics.median(probe.samples),
    }


def main(argv) -> int:
    workload, seed, mode, spawned, limit = argv
    seed, spawned = int(seed), float(spawned)
    limit = None if limit == "-" else int(limit)

    import numpy

    import cmrank
    import tracing
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(cmrank.__file__).resolve().parents:
        print(f"cmrank was imported from {cmrank.__file__}, not from {src}", file=sys.stderr)
        return 2

    with workloads.scratch_dir(ROOT) as scratch:
        ops = workloads.build_ops(workload, seed, limit, scratch)
        setup_raw_s = time.monotonic() - spawned
        loop, nominal_s = REFERENCE_LOOPS["arith"]
        ref_s = statistics.median(_timed(loop) for _ in range(5))
        result = {
            "setup_raw_s": setup_raw_s,
            "setup_s": setup_raw_s * nominal_s / ref_s,
            "numpy": numpy.__version__,
        }
        if mode == "setup":
            print(json.dumps(result))
            return 0

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer) if mode == "trace" else None
        timed = time_ops(ops, REFERENCE_LOOPS[workloads.REFERENCE[workload]])
        result["peak_rss_mb"] = _rss_mb()
        if uninstall is not None:
            uninstall()

        outputs, errors = timed.pop("outputs"), timed["errors"]
        for op, out in zip(ops, outputs):
            if op.label in errors:
                continue
            try:
                message = op.check(out)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
            if message is not None:
                errors[op.label] = message
        checks_failed = 0
        if workload == "verify":
            checks_failed = sum(
                not c["passed"] for out in outputs if out is not None for c in out["checks"]
            )

    result.update(timed, ops=[op.label for op in ops], checks_failed=checks_failed)
    if mode == "trace":
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(1, os.fspath(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
