"""The package surface: what `import lcse` exports and what the README
shows a reader to run.

Verifies:
  - every name in lcse.__all__ resolves, and none is listed twice
  - the README's python example runs as written in a fresh interpreter
  - the README's table of the keys each mode reads is config's table
"""

import re
import subprocess
import sys
from pathlib import Path

import lcse
from lcse import config

from cli_run import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_readme_example_runs():
    names = lcse.__all__
    assert len(set(names)) == len(names), "a name is listed twice"
    missing = [n for n in names if not hasattr(lcse, n)]
    assert not missing, f"listed in __all__ but not defined: {missing}"

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.9  # the example's "n0 dips below 0.9"


def test_readme_key_table_matches_config():
    # rows "| `mode` | `[section]` | key, **required key**, ... |"
    rows = re.findall(r"^\| `([\w/]+)` \| `\[(\w+)\]` \| (.*) \|$",
                      README.read_text(), re.M)
    documented = {}
    for reader, sec, keys in rows:
        assert sec not in documented.setdefault(reader, {}), (reader, sec)
        documented[reader][sec] = {
            k.strip("*"): k.startswith("**") for k in keys.split(", ")}
    assert documented == {
        reader: {sec: keys for sec, keys in reads.items() if sec != "scenario"}
        for reader, reads in config._TABLE.items()}
