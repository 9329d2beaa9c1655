"""Python subprocesses that import the `ordercuts` of this checkout."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args):
    """`python *args` with this checkout's `src` first on PYTHONPATH, so the
    child imports it whether or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)
