"""Smoke check of the benchmark: the cheapest op of each workload, both modes.

Runs the S4 base pairs (``headline``), S6 < S7 (``symmetric``) and the
n = 2 verification pass (``verify``) through ``run.main`` with tracing off
and on.  It fails unless every op gives its known answer, the result line
carries exactly the metrics of ``BENCHMARK.json`` with their units, and the
traced self times plus ``trace.unattributed_s`` add up to ``trace.pass_s``.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NOT_SELF_TIMES = {name + "_s" for name in tracer.INCLUSIVE} | {
    "trace.pass_s", "trace.overhead_s"}


def expected_metrics(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(workload, trace, lines, spec):
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"ops failed: {result['failed']} of {result['attempted']}")
    want = expected_metrics(spec, "per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                        f" or units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    for name, unit in want.items():
        if not any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"{name} is not printed with its unit {unit}")
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        parts = sum(v for k, v in values.items()
                    if k.endswith("_s") and k not in NOT_SELF_TIMES)
        if abs(parts - values["trace.pass_s"]) > 1e-6 * max(1.0, values["trace.pass_s"]):
            problems.append(f"self times add to {parts}, traced pass is {values['trace.pass_s']}")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # the cheapest op of each workload
    workloads.HEADLINE_PAIRS[:] = [p for p in workloads.HEADLINE_PAIRS if p[2] is None]
    workloads.SYMMETRIC_NS[:] = [6]
    failures = 0
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7",
                                 "--seconds", "0.01", "--trace", str(trace)])
            lines = out.getvalue().splitlines()
            problems = [f"exit code {code}"] if code else check_result(
                workload, trace, lines, spec)
            print(f"{workload} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print("   ", p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
