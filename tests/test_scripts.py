"""Smoke runs of the scripts under scripts/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_law_fuzz_small_budget():
    proc = run_script("law_fuzz.py", "--cases", "200", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "total failures: 0" in proc.stdout


def test_extend_demo_runs():
    proc = run_script("extend_demo.py")
    assert proc.returncode == 0, proc.stderr


BENCH_TRACER = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
from ordercuts import hahn_concrete as hc

make = hc.HahnElement.make
tracer = tracing.Tracer()
tracer.install()
assert hc.HahnElement.make is not make
hc.HahnElement.make(hc.INT_CHAIN, [(1, 1), (2, 1)])
# each index-chain check is wrapped once, so two points count twice
assert tracer.counts["hahn.point_checks"] == 2, tracer.counts
tracer.uninstall()
assert hc.HahnElement.make is make
"""


def test_benchmark_tracer_resolves_library_names():
    """perfbench/tracing.py patches library names from outside: every name
    it resolves must exist, and uninstall must put the originals back."""
    proc = run_python("-c", BENCH_TRACER, str(ROOT / "perfbench"))
    assert proc.returncode == 0, proc.stderr
