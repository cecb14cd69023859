"""Run the lcse command line, or any code, in a child interpreter.

The child imports the package from this checkout's src/, prepended to its
PYTHONPATH, so the subprocess tests pass without an install, as the rest of
the suite does through pytest's `pythonpath` setting.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict:
    """This process's environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "lcse.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout, env=child_env())
