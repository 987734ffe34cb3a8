"""Benchmark of exact depth computation, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload headline|symmetric|verify \
        --seed N --seconds S --trace 0|1

One process, one thread.  Set-up (import of ``subdepth`` from ``src/``,
input generation from the seed and, for ``verify``, the family and its
tables) is repeated SETUP_REPEATS times and its median is ``setup_s``.  A
warm-up pass follows (reported, not counted), then whole passes over the
workload's ops until ``--seconds`` have passed; their median is ``pass_s``.
Both are seconds at the reference speed (see ``Clock``).

``--trace 0`` times passes with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` spends half the time on untraced passes and half on
passes with the layer wrappers of ``tracer.py`` installed, and reports the
per-layer metrics.  Every op is checked: a known depth (or a verification
that must pass), and a sha256 of its JSON output that must not change
between passes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans, digests and pass
times go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("perm", "constructions", "chartab", "modlin", "depth", "graphs", "lemma")
SETUP_REPEATS = 9
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# The machine this benchmark was written on runs in phases up to 2x slower,
# changing within a second, with CPU time rising with wall time (no steal).
# A fixed kernel that never touches subdepth is therefore timed before and
# after every op and every set-up, and each measured time is scaled by
# CALIBRATION_REF_S over the mean of the two kernel times around it: seconds at
# the reference speed, the kernel's time when the machine is fast.  Measured
# per op, the op time follows the kernel time with slope 0.9, correlation 0.91.
CALIBRATION_REF_S = 0.0123


def calibration_kernel():
    """Seconds for fixed pure-Python work like subdepth's: exact fractions and
    the breadth-first closure of S7 on image tuples."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
    index = {tuple(range(7)): 0}
    raw = list(index)
    for x in raw:
        for g in gens:
            y = tuple(map(x.__getitem__, g))
            if y not in index:
                index[y] = len(raw)
                raw.append(y)
    if len(raw) != 5040:
        raise RuntimeError("calibration kernel closure is wrong")
    return perf_counter() - start


class Clock:
    """Times calls and scales each time by the calibration kernel around it."""

    def __init__(self):
        self.kernel = calibration_kernel()

    def time(self, fn):
        """Call ``fn``; return (result, raw seconds, seconds at reference speed)."""
        t0 = perf_counter()
        result = fn()
        dt = perf_counter() - t0
        after = calibration_kernel()
        scaled = dt * 2 * CALIBRATION_REF_S / (self.kernel + after)
        self.kernel = after
        return result, dt, scaled


class SourceMissing(RuntimeError):
    pass


def load_subdepth():
    """Import ``subdepth`` afresh from ``src/`` and return its layer modules."""
    if not (SRC / "subdepth" / "__init__.py").is_file():
        raise SourceMissing(f"no subdepth package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "subdepth" or m.startswith("subdepth.")]:
        del sys.modules[name]
    pkg = importlib.import_module("subdepth")
    if Path(pkg.__file__).resolve().parent != (SRC / "subdepth").resolve():
        raise SourceMissing(f"subdepth was imported from {pkg.__file__}, not {SRC}")
    return {m: importlib.import_module("subdepth." + m) for m in MODULES}


def set_up(workload, seed):
    """Import, generate the inputs and build the workload's state."""
    sd = load_subdepth()
    return sd, WORKLOADS[workload](sd, seed)


class Runner:
    """Runs passes over a workload's ops, checking every op."""

    def __init__(self, work, clock):
        self.work = work
        self.clock = clock
        self.digests = {}      # op name -> sha256 of the first pass's output
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None):
        """One pass over the ops; returns (raw seconds, seconds at reference speed)."""
        raw = scaled = 0.0
        for label, op in self.work.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = label
            try:
                (text, problem), dt, dt_scaled = self.clock.time(op)
                raw += dt
                scaled += dt_scaled
            except Exception:
                text, problem = None, traceback.format_exc()
            if text is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                first = self.digests.setdefault(label, digest)
                if problem is None and digest != first:
                    problem = f"output digest {digest} differs from first pass {first}"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{label}: {problem}")
                print(f"op {label} failed: {problem}", file=sys.stderr)
        return raw, scaled

    def run_for(self, seconds, tracer=None):
        """Whole passes until ``seconds`` have passed (at least MIN_PASSES).
        Returns the raw and the scaled pass times."""
        raw, scaled = [], []
        deadline = perf_counter() + seconds
        while len(raw) < MIN_PASSES or perf_counter() < deadline:
            if tracer is not None:
                tracer.begin_pass()
            dt, dt_scaled = self.run_pass(tracer)
            if tracer is not None:
                tracer.end_pass()
            raw.append(dt)
            scaled.append(dt_scaled)
        return raw, scaled


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line object, details for the results file)."""
    clock = Clock()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        (sd, work), dt, dt_scaled = clock.time(lambda: set_up(workload, seed))
        setup_raw.append(dt)
        setup_scaled.append(dt_scaled)
    runner = Runner(work, clock)
    warmup_raw, warmup_scaled = runner.run_pass()
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "machine": machine(), "calibration_ref_s": CALIBRATION_REF_S,
               "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
               "warmup_raw_s": warmup_raw, "warmup_scaled_s": warmup_scaled,
               "ops": [label for label, _ in work.ops]}
    if not trace:
        raw, scaled = runner.run_for(seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        details["pass_raw_s"] = raw
        details["pass_scaled_s"] = scaled
    else:
        untraced_raw, untraced_scaled = runner.run_for(seconds / 2)
        tracer = Tracer()
        tracer.install(sd)
        traced_raw, traced_scaled = runner.run_for(seconds / 2, tracer)
        metrics = per_layer_metrics(tracer, traced_raw, traced_scaled, untraced_scaled)
        details["untraced_pass_raw_s"] = untraced_raw
        details["untraced_pass_scaled_s"] = untraced_scaled
        details["traced_pass_raw_s"] = traced_raw
        details["traced_pass_scaled_s"] = traced_scaled
        details["spans"] = [[list(s) for s in spans] for spans in tracer.passes]
    details["digests"] = runner.digests
    details["problems"] = runner.problems
    details["attempted"] = runner.attempted
    details["failed"] = runner.failed
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def write_details(details):
    RESULTS.mkdir(exist_ok=True)
    name = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    path = RESULTS / name
    with open(path, "w") as fh:
        json.dump(details, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_details(details)
    print(f"workload {args.workload} seed {args.seed}: {details['attempted']} ops, "
          f"{details['failed']} failed, fail_ratio "
          f"{details['failed'] / details['attempted']:.4f}; "
          f"warm-up pass {details['warmup_scaled_s']:.3f} s; details in {path.relative_to(ROOT)}")
    for label, digest in details["digests"].items():
        print(f"  digest {label}: {digest}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
