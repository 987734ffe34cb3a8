"""The benchmark reads and wraps subdepth names from outside the package: a
rename or deletion of any of them must fail here, not in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Loads subdepth the way perfbench/run.py does, installs every layer wrapper
# and checks that each plain module attribute it names was really wrapped.
INSTALL = """
import sys
sys.path.insert(0, "perfbench")
import run
from tracer import COUNTED, SPANS, Tracer

sd = run.load_subdepth()
Tracer().install(sd)
for sites in (*SPANS.values(), *COUNTED.values()):
    for module, attr in sites:
        if "." not in attr:
            assert hasattr(getattr(sd[module], attr), "__wrapped__"), (module, attr)
print("installed")
"""


def test_benchmark_tracer_installs_on_the_package():
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"


def test_benchmark_smoke_passes():
    # the cheapest op of every workload, traced and untraced: a name the
    # workloads read that is renamed or deleted fails here
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
