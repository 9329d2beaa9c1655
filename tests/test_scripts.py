"""Smoke runs of the scripts under scripts/."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


def test_law_fuzz_small_budget():
    proc = run_script("law_fuzz.py", "--cases", "200", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "total failures: 0" in proc.stdout


def test_extend_demo_runs():
    proc = run_script("extend_demo.py")
    assert proc.returncode == 0, proc.stderr
