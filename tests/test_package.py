"""The package surface: what `import lcse` exports and what the README
shows a reader to run.

Verifies:
  - every name in lcse.__all__ resolves, and none is listed twice
  - the README's python example runs as written in a fresh interpreter
  - the README's table of the keys each mode reads is config's table
  - `import lcse` and a run of every mode load no scipy module
"""

import re
import subprocess
import sys
from pathlib import Path

import lcse
from lcse import config
from lcse.presets import preset_text

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


def short_run_texts() -> dict:
    """A short config of each mode, from the presets."""
    fig2 = preset_text("fig2-collision").replace("tau_end = 50",
                                                 "tau_end = 5")
    fig4 = preset_text("fig4-cpt").replace("tau_end = 150", "tau_end = 5")
    return {
        "effective": fig2,
        "pendulum": fig2.replace("mode = effective", "mode = pendulum")
        .replace("n_plus = 0.05\nn_zero = 0.9\nn_minus = 0.05",
                 "theta = 0.5\nn_zero = 0.9"),
        "resonant": fig4.replace("mode = cpt", "mode = resonant"),
        "cpt": fig4,
        "landscape": preset_text("fig3-portraits"),
        "ensemble": preset_text("fig4-ensemble")
        .replace("tau_end = 150", "tau_end = 5").replace("runs = 16",
                                                         "runs = 2"),
    }


def test_no_mode_loads_scipy(tmp_path):
    # the library needs only numpy (scipy is a test dependency, for the
    # oracles): a fresh interpreter runs each mode through lcse.cli.main
    # and then holds no scipy module
    args = []
    for mode, text in short_run_texts().items():
        path = tmp_path / f"{mode}.ini"
        path.write_text(text)
        args += [str(path), str(tmp_path / mode)]
    child = """
import sys
from lcse import cli
args = sys.argv[1:]
codes = [cli.main(["run", "--config", ini, "--out", out])
         for ini, out in zip(args[::2], args[1::2])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, env=child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
    for mode in short_run_texts():
        assert (tmp_path / mode / "manifest.json").exists(), mode
