"""Outside-in benchmark for fracture: one closed-loop client, no threads.

    python3 perfbench/run.py --workload kgl2-wide --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run generates passes of requests from the seed (see workloads.py)
and issues them one after another until the next pass would end past
``--seconds``.  Every request is checked by an oracle; a failed check or
an unexpected exception counts as a failed request.

A fixed pure-Python calibration loop runs before the first request of a
pass and after every request.  On a shared host the speed of Python code
drifts between runs by more than the changes a perf PR is after, so the
gated latencies are host-scaled: each request's time is divided by the
mean of the calibration times just before and after it, giving a unit
("cal") of one calibration loop.  The same figures in seconds, and the
calibration times themselves, are on the line before the result, so the
host noise stays visible.

``setup_s`` is host-scaled in the same way but stays in seconds: see
measure_setup.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
runs every pass twice, untraced and then traced (see tracer.py), and
reports the per-layer metrics: self times and counts per pass, plus the
traced-over-untraced time ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import EXPECT_ANSWER, WORKLOADS, Runner, sha256, write_sources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASHES = HERE / "output_sha256.json"

SETUP_SPAWNS = 40
SETUP_CALIBRATION_ROUNDS = 50_000
# The set-up calibration loop's time on the host the baseline was recorded
# on (2 vCPU, CPython 3.11) when no neighbour slows it.
SETUP_REFERENCE_S = 0.005
CALIBRATION_ROUNDS = 400_000
TAIL_BEYOND = 10

SELF_TIMED = (
    "presentation.expand",
    "presentation.parse",
    "assembler.defect_check",
    "assembler.corners",
    "assembler.assemble",
    "localization.invert",
    "localization.complete",
    "localization.composite_action",
    "localization.insertion",
    "snf.smith_normal_form",
    "snf.is_isomorphism",
    "snf.kernel",
    "snf.cokernel",
    "snf.solve_hom",
    "snf.invert_iso",
    "snf.span_equal",
    "bigraded.act",
    "bigraded.validate_module",
    "bigraded.restrict",
    "charts.render",
)
CALL_COUNTED = (
    "localization.invert",
    "localization.complete",
    "localization.composite_action",
    "localization.insertion",
    "snf.smith_normal_form",
    "snf.is_isomorphism",
    "bigraded.act",
)

# A fresh interpreter times a calibration loop, imports the package and
# parses the workload's presets, then times the calibration loop again.
SETUP_CHILD = """\
import sys, time
def calibrate(rounds):
    start = time.perf_counter()
    acc = 0
    for i in range(rounds):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start
rounds = int(sys.argv[2])
before = calibrate(rounds)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fracture
for spec in sys.argv[3:]:
    name, prime = spec.split(":")
    fracture.preset_presentation(name, int(prime))
setup = time.perf_counter() - start
print(setup, before, calibrate(rounds))
"""


def load_fracture():
    """Import fracture from this checkout's src/, never from elsewhere."""
    package = SRC / "fracture"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fracture package at {package}")
    sys.path.insert(0, str(SRC))
    import fracture

    if Path(fracture.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported fracture from {fracture.__file__}, not {package}")
    return fracture


def measure_setup(workload):
    """Host-scaled set-up time of import plus parse, and the raw figures.

    Each fresh interpreter times its set-up and a short calibration loop
    just before and after it.  Set-up time over the mean of the two loop
    times, times SETUP_REFERENCE_S, is the set-up time in seconds on a
    host where the loop takes SETUP_REFERENCE_S; the first quartile over
    all interpreters is reported.  On a shared host one interpreter runs
    up to twice as fast or as slow as the next: the scaling follows slow
    phases that last, the low quartile passes over short ones.
    """
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(SETUP_CALIBRATION_ROUNDS)]
    argv += [f"{name}:{prime}" for name, prime in workload.presets]
    raw, scaled = [], []
    for k in range(SETUP_SPAWNS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        setup, before, after = map(float, done.stdout.split())
        if k:  # the first spawn only warms the file cache
            raw.append(setup)
            scaled.append(SETUP_REFERENCE_S * 2 * setup / (before + after))
    figures = {"median_s": statistics.median(raw), "min_s": min(raw), "n": len(raw)}
    return statistics.quantiles(scaled, n=4)[0], figures


def calibrate():
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def host_scaled(latencies, calibration):
    """Each latency over the mean calibration time just before and after it."""
    return [2 * lat / (before + after) for lat, before, after in zip(latencies, calibration, calibration[1:])]


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that percentile to lie above the median the
    maximum stands in.  Returns (value, percentile, samples beyond).
    """
    xs = sorted(samples)
    k = len(xs) - 1 - TAIL_BEYOND
    if 2 * k < len(xs):
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


class Session:
    """Issues requests, checks them and keeps the tallies of one run."""

    def __init__(self, runner, hashes):
        self.runner = runner
        self.hashes = hashes
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.outputs = 0
        self.drift = 0
        self.problems = []
        self.requested_cells = 0
        self.oracle_s = 0.0

    def request(self, req, tracer=None):
        """Issue one request; returns its latency in seconds."""
        self.attempted += 1
        expands = tracer.calls.get("presentation.expand", 0) if tracer else 0
        start = time.perf_counter()
        try:
            result = self.runner.call(req)
            latency = time.perf_counter() - start
            problems, outputs = self.runner.check(req, result)
            self.oracle_s += time.perf_counter() - start - latency
        except Exception as exc:  # an unexpected error fails this request only
            latency = time.perf_counter() - start
            problems, outputs = [f"{type(exc).__name__}: {exc}"], {}
        if tracer:
            self.requested_cells += req.cells * (tracer.calls.get("presentation.expand", 0) - expands)
        if problems:
            self.failed += 1
            self.problems.append(f"{req.key()}: {problems[0]}")
        if req.expect != EXPECT_ANSWER:
            self.refused += 1
        for key, data in outputs.items():
            self.outputs += 1
            if self.hashes.get(key) != sha256(data):
                self.drift += 1
        return latency

    def run_pass(self, requests, tracer=None):
        """Issue one pass; returns its latencies and the calibration times around them."""
        calibration = [calibrate()]
        latencies = []
        for req in requests:
            latencies.append(self.request(req, tracer))
            calibration.append(calibrate())
        return latencies, calibration


def layer_metrics(tracer, traced_passes, ratio, session, calibration, defect_cells):
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.s"] = (tracer.self_time.get(name, 0.0) / traced_passes, "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / traced_passes, "count")
    out["presentation.expand.cells"] = (tracer.expand_cells / traced_passes, "count")
    requested = session.requested_cells
    out["assembler.padding_ratio"] = (tracer.expand_cells / requested if requested else 0.0, "ratio")
    out["snf.max_matrix_entries"] = (tracer.max_snf_entries, "count")
    out["bigraded.pgroup.constructed"] = (tracer.constructed["bigraded.pgroup"] / traced_passes, "count")
    out["bigraded.phom.constructed"] = (tracer.constructed["bigraded.phom"] / traced_passes, "count")
    out["cli.main.self_s"] = (tracer.self_time.get("cli.main", 0.0) / traced_passes, "s")
    out["trace.overhead_ratio"] = (ratio, "ratio")
    out["charts.output_drift"] = (session.drift, "count")
    out["host.calibration_s"] = (statistics.median(calibration), "s")
    out["oracle.known_defect_cells"] = (defect_cells, "count")
    return out


def run(args):
    fracture = load_fracture()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    hashes = json.loads(HASHES.read_text(encoding="utf-8"))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT))
    try:
        session = Session(Runner(fracture, write_sources(workdir)), hashes)
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(workload)
        session.runner.check(workload.warmup, session.runner.call(workload.warmup))
        defect_cells = session.runner.known_defect_cells()

        tracer = Tracer() if args.trace else None
        passes, traced, cycles = [], [], []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            requests = workload.make_pass(rng)
            passes.append(session.run_pass(requests))
            if tracer:
                with tracer:
                    traced.append(session.run_pass(requests, tracer))
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            if now - start + statistics.median(cycles) > args.seconds:
                break
        measured_s = now - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [lat for lats, _ in passes for lat in lats]
    calibration = [c for _, cals in passes for c in cals]
    scaled_passes = [host_scaled(lats, cals) for lats, cals in passes]
    scaled = [x for xs in scaled_passes for x in xs]
    tail_s, tail_pct, tail_beyond = tail(latencies)
    seconds = {
        "wall_s": statistics.median(sum(lats) for lats, _ in passes),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_s,
    }
    stats = {
        "seconds": seconds,
        "passes": len(passes),
        "requests": session.attempted,
        "refused": session.refused,
        "failed": session.failed,
        "error_rate": session.failed / session.attempted,
        "outputs_hashed": session.outputs,
        "oracle_s": session.oracle_s,
        "measured_s": measured_s,
        "output_drift": session.drift,
        "known_defect_cells": defect_cells,
        "timed_requests": len(latencies),
        "request_tail": {"percentile": tail_pct, "beyond": tail_beyond},
        "setup_raw": setup_raw,
        "first_problems": session.problems[:5],
    }
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": {
            "median": statistics.median(calibration),
            "min": min(calibration),
            "max": max(calibration),
            "n": len(calibration),
        },
    }
    if tracer:
        ratio = sum(sum(lats) for lats, _ in traced) / sum(latencies)
        metrics = layer_metrics(tracer, len(traced), ratio, session, calibration, defect_cells)
    else:
        metrics = {
            "wall_cal": (statistics.median(sum(xs) for xs in scaled_passes), "cal"),
            "request_p50_cal": (statistics.median(scaled), "cal"),
            "request_tail_cal": (tail(scaled)[0], "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    for line in session.problems[:5]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps({"env": env, "stats": stats}, sort_keys=True))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


if __name__ == "__main__":
    run(parse_args())
