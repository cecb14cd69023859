"""Time lcse set-up in a fresh interpreter; prints one JSON line.

Usage: python3 setup_probe.py SRC_DIR CONFIG.ini OUT_DIR

Set-up is what `lcse run --config CONFIG.ini --out OUT_DIR` does before its
first integration: `import lcse`, parsing the config and building the
objects. The probe rebinds the entry points the CLI hands the built objects
to so that they raise a sentinel, runs `lcse.cli.main`, and stops the clock
at the sentinel. An entry point that no longer exists is reported as absent.
If no sentinel is raised, the time covers the whole run and `stopped` is
false, so a lost stop shows as slower set-up, never as a gain.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import lcse  # noqa: E402
import lcse.cli  # noqa: E402

ENTRY_POINTS = ["integrate", "run_transfer", "run_ensemble",
                "contour_portrait"]


class FirstIntegration(BaseException):
    """Raised by the rebound entry points; not caught by the CLI."""


def stop(*_args, **_kwargs):
    raise FirstIntegration


absent = [name for name in ENTRY_POINTS if not hasattr(lcse.cli, name)]
for name in ENTRY_POINTS:
    if name not in absent:
        setattr(lcse.cli, name, stop)

stopped = False
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lcse.cli.main(["run", "--config", sys.argv[2],
                              "--out", sys.argv[3]])
    if code != 0:
        sys.exit(f"lcse run exited with {code}")
except FirstIntegration:
    stopped = True
elapsed = time.perf_counter() - t0
if not lcse.__file__.startswith(sys.argv[1]):
    sys.exit(f"lcse imported from {lcse.__file__}, not {sys.argv[1]}")
print(json.dumps({"setup_s": elapsed, "absent": absent, "stopped": stopped}))
