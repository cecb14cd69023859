"""Config parsing, presets, and the command-line interface.

Verifies:
  - serialize/parse round trips reproduce the config exactly, for the
    presets and for configs drawn over the key table of every mode
  - the validator reports every problem at once with exit code 2, and
    rejects every key the mode does not read (config._TABLE)
  - validate builds the library objects run builds, so it refuses what
    run refuses before integrating
  - built-in presets load, list, and run end to end
  - CLI outputs: CSV columns, manifest fields, and rerun byte-identity;
    CSV cells equal format(x, ".17g"), byte for byte
  - exit codes 2 (bad input, an unreadable config, an --out that is a
    file, a run too large for memory, landscape grids too large for the
    free disk), 3 (domain violation) and 4 (a run past the step budget); a
    failed run leaves no output directory it made
  - JSON artifacts are strict JSON: a NaN is written as null
  - one parser serves consecutive main() calls in a process
"""

import decimal
import io
import json
import math
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcse import (ConfigError, InvalidInputError, ValidityWarning, cli,
                  config, dynamics)
from lcse.config import build, config_to_dict, parse_config, serialize_config
from lcse.landscape import LandscapeParams, energy_block, energy_grid
from lcse.presets import load_preset, preset_description, preset_names, preset_text

from cli_run import run_cli

PRESET_NAMES = ["fig2-collision", "fig2-frozen", "fig2-reversed",
                "fig3-portraits", "fig4-cpt", "fig4-ensemble"]


def test_preset_registry():
    assert preset_names() == PRESET_NAMES
    for name in PRESET_NAMES:
        assert preset_description(name)
    with pytest.raises(InvalidInputError):
        load_preset("fig9-unknown")


def test_load_preset_fields():
    cfg = load_preset("fig2-collision")
    assert cfg.mode == "effective"
    assert cfg.params["q"] == pytest.approx(0.01)
    assert cfg.params["omega_p"] == 0.0
    assert cfg.initial["n_zero"] == pytest.approx(0.9)
    assert cfg.integration["tau_end"] == 50.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_round_trip_presets(name):
    cfg = load_preset(name)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # and the dict view is JSON-serializable
    json.dumps(config_to_dict(cfg))


finite = st.floats(allow_nan=False, allow_infinity=False)
# keys whose values parse_config cross-checks; every other key takes any
# value of its schema type
CONSTRAINED = {
    ("integration", "samples"): st.integers(2, 10 ** 6),
    ("integration", "tau_start"): st.floats(-1e6, 1e6),
    ("seeds", "runs"): st.integers(1, 10 ** 6),
    ("initial", "n_plus"): st.floats(0.0, 0.25),
    ("initial", "n_minus"): st.floats(0.0, 0.25),
    ("initial", "n_m"): st.floats(0.0, 0.25),
}


def schema_value(sec, key):
    if (sec, key) in CONSTRAINED:
        return CONSTRAINED[sec, key]
    typ, _default = config._SCHEMA[sec][key]
    if typ is float:
        return finite
    if typ == "floats":
        return st.lists(finite, min_size=1, max_size=4).map(tuple)
    if typ is int:
        return st.integers(-10 ** 12, 10 ** 12)
    if typ is str:
        return st.text("abcXYZ019/._-", max_size=12)
    return st.sampled_from(typ)


@st.composite
def scenario_texts(draw):
    """INI text for any mode (an ensemble of either kind), every key the
    mode reads drawn or left to its default, with the values parse_config
    cross-checks kept valid."""
    reader = draw(st.sampled_from(sorted(config._TABLE)))
    mode, _, kind = reader.partition("/")
    values = {}
    for sec, keys in config._TABLE[reader].items():
        if sec == "scenario":
            continue
        values[sec] = {}
        for key, required in keys.items():
            if (required or config._SCHEMA[sec][key][1] is config._REQ
                    or draw(st.booleans())):
                values[sec][key] = draw(schema_value(sec, key))
    if kind:
        values["seeds"]["kind"] = kind
    ini = values.get("initial", {})
    if "n_plus" in ini:
        ini["n_zero"] = 1.0 - ini["n_plus"] - ini["n_minus"] - 2.0 * ini.get(
            "n_m", 0.0)
    integ = values.get("integration")  # landscape integrates nothing
    if integ is not None:
        integ["tau_end"] = integ["tau_start"] + draw(st.floats(1e-6, 1e6))
    pulse = values.get("pulse", {})
    if pulse.get("theta_variant") == "fixed":
        pulse.setdefault("theta_fixed", draw(finite))
    else:
        pulse.pop("theta_fixed", None)
    lines = [f"[scenario]\nmode = {mode}\n"]
    for sec, vals in values.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {config._fmt(v)}" for k, v in vals.items()]
        lines.append("")
    return "\n".join(lines), mode, values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=scenario_texts())
def test_round_trip_over_schema(drawn):
    text, mode, values = drawn
    cfg = parse_config(text)
    assert cfg.mode == mode
    for sec, vals in values.items():
        for key, val in vals.items():
            assert getattr(cfg, sec)[key] == val, (sec, key)
    again = serialize_config(cfg)
    assert parse_config(again) == cfg
    assert serialize_config(parse_config(again)) == again


def test_round_trip_is_stable_text():
    for name in PRESET_NAMES:
        text = serialize_config(load_preset(name))
        assert serialize_config(parse_config(text)) == text


def test_parse_rejects_empty():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("")


def test_parse_reports_all_problems_at_once():
    text = preset_text("fig2-collision")
    broken = text.replace("q = 0.01", "q = hello\nmystery = 3")
    broken += "\n[unknown-section]\nx = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    msg = str(err.value)
    assert "q" in msg
    assert "mystery" in msg
    assert "unknown-section" in msg


def test_parse_rejects_irrelevant_section():
    text = preset_text("fig2-collision") + "\n[pulse]\nomega_p = 1\n"
    with pytest.raises(ConfigError, match="pulse"):
        parse_config(text)


def test_parse_rejects_unnormalized_initial():
    text = preset_text("fig2-collision").replace("n_zero = 0.9",
                                                 "n_zero = 1.5")
    with pytest.raises(ConfigError, match="sum to"):
        parse_config(text)


def test_parse_rejects_bad_time_window():
    text = preset_text("fig2-collision").replace("tau_end = 50",
                                                 "tau_end = 0")
    with pytest.raises(ConfigError, match="tau"):
        parse_config(text)


def test_parse_rejects_molecules_in_effective_mode():
    # the three-mode system has no molecular mode: n_m used to be dropped
    # and the rest rescaled, so this start ran as 0.0625 / 0.875 / 0.0625
    text = preset_text("fig2-collision").replace("n_zero = 0.9",
                                                 "n_zero = 0.7\nn_m = 0.1")
    with pytest.raises(ConfigError, match="n_m") as err:
        parse_config(text)
    assert err.value.problems == [
        "key 'n_m' in [initial] is not used by mode 'effective'",
        "[initial] populations sum to 0.8, not 1 (tol 1e-9)"]


def test_cli_molecules_in_effective_mode_exit_2(tmp_path):
    path = tmp_path / "molecules.ini"
    path.write_text(preset_text("fig2-collision").replace(
        "n_zero = 0.9", "n_zero = 0.7\nn_m = 0.1"))
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert ("key 'n_m' in [initial] is not used by mode 'effective'"
            in proc.stderr)
    assert not (out / "trajectory.csv").exists()


def test_parse_rejects_too_few_samples():
    text = preset_text("fig2-collision").replace("samples = 1001",
                                                 "samples = 1")
    with pytest.raises(ConfigError, match="samples"):
        parse_config(text)


def test_parse_rejects_fixed_lock_without_value():
    text = preset_text("fig4-cpt").replace(
        "omega_p = 1", "omega_p = 1\ntheta_variant = fixed")
    with pytest.raises(ConfigError, match="theta_fixed"):
        parse_config(text)


def test_parse_rejects_theta_fixed_without_fixed_lock():
    text = preset_text("fig4-cpt").replace(
        "omega_p = 1", "omega_p = 1\ntheta_fixed = 5")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [
        "[pulse] theta_fixed needs theta_variant 'fixed'"]


def test_parse_rejects_bad_enum():
    text = preset_text("fig4-cpt").replace(
        "omega_p = 1", "omega_p = 1\ntheta_variant = resonant")
    with pytest.raises(ConfigError, match="theta_variant"):
        parse_config(text)


def test_parse_rejects_non_numeric():
    text = preset_text("fig2-collision").replace("q = 0.01", "q = fast")
    with pytest.raises(ConfigError, match="q"):
        parse_config(text)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_rejects_nonfinite(raw):
    text = preset_text("fig2-collision").replace("q = 0.01", f"q = {raw}")
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config(text)
    text = preset_text("fig3-portraits").replace(
        "c_eff_over_c2 = 1, 0.5", f"c_eff_over_c2 = 1, {raw}")
    with pytest.raises(ConfigError, match="c_eff_over_c2"):
        parse_config(text)


def test_parse_lists_nonfinite_with_other_problems():
    text = (preset_text("fig2-collision").replace("q = 0.01", "q = nan")
            .replace("n_zero = 0.9", "n_zero = oops"))
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    joined = "\n".join(info.value.problems)
    assert "q = 'nan'" in joined and "n_zero = 'oops'" in joined


@pytest.mark.parametrize("key, raw, problem", [
    ("q = 0.01", "q = nan", "[params] q = 'nan': not a finite number"),
    ("n_zero = 0.9", "n_zero = oops",
     "[initial] n_zero = 'oops': not a valid number")])
def test_parse_reports_a_bad_required_value_once(key, raw, problem):
    # a required key that is present with a bad value is not also missing
    text = preset_text("fig2-collision").replace(key, raw)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.problems == [problem]


@pytest.mark.parametrize("preset", ["fig2-collision", "fig3-portraits"])
def test_cli_nonfinite_input_fails_fast(tmp_path, preset):
    # a nan used to pass validation and then hang the integrator
    path = tmp_path / "nan.ini"
    path.write_text(preset_text(preset).replace("q = 0.01", "q = nan"))
    for args in (("validate",), ("run", "--out", str(tmp_path / "o"))):
        proc = run_cli(*args, "--config", str(path), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "not a finite number" in proc.stderr


def test_cli_presets_listing():
    proc = run_cli("presets")
    assert proc.returncode == 0
    for name in PRESET_NAMES:
        assert name in proc.stdout


def test_cli_validate_ok(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(preset_text("fig2-frozen"))
    proc = run_cli("validate", "--config", str(path))
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_cli_validate_bad_config_exits_2(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text(preset_text("fig2-frozen").replace("n_zero = 0.9",
                                                       "n_zero = oops"))
    proc = run_cli("validate", "--config", str(path))
    assert proc.returncode == 2
    assert "n_zero" in proc.stderr


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_unreadable_config_exits_2(tmp_path, command):
    # a missing file, a directory, and bytes that are not UTF-8
    bad = tmp_path / "latin1.ini"
    bad.write_bytes(preset_text("fig2-frozen").encode() + b"# caf\xe9\n")
    for path, problem in ((tmp_path / "missing.ini", "No such file"),
                          (tmp_path, "Is a directory"),
                          (bad, "not UTF-8")):
        proc = run_cli(command, "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert problem in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


def test_cli_out_naming_a_file_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        proc = run_cli("run", "--preset", "fig2-frozen", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cannot create output directory" in proc.stderr
    assert taken.read_text() == "not a directory\n"


def test_cli_run_frozen_preset(tmp_path):
    out = tmp_path / "frozen"
    proc = run_cli("run", "--preset", "fig2-frozen", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True,
                         skip_header=2)
    assert abs(data["n_zero"] - 0.9).max() < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "effective"
    assert "library_version" in manifest
    assert "wall_clock_seconds" in manifest
    assert "trajectory.csv" in manifest["outputs"]
    assert manifest["conservation"]["max_total_n_drift"] < 1e-8


def test_cli_run_domain_violation_exits_3(tmp_path):
    text = preset_text("fig3-portraits")
    cfg = parse_config(text)
    # rebuild a single-coupling pendulum run that starts on the boundary
    pend = """
[scenario]
mode = pendulum

[params]
q = 0.01
omega_p = 0
omega_d = 0
big_delta_prime = 1

[initial]
theta = 0
n_zero = 1.0

[integration]
tau_start = 0
tau_end = 10
samples = 101
"""
    path = tmp_path / "boundary.ini"
    path.write_text(pend)
    proc = run_cli("run", "--config", str(path), "--out",
                   str(tmp_path / "o"))
    assert proc.returncode == 3
    assert cfg.mode == "landscape"


def test_cli_seed_flag_restricted(tmp_path):
    proc = run_cli("run", "--preset", "fig2-frozen", "--seed", "5",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "seed" in proc.stderr.lower()


def test_cli_variant_flag_restricted(tmp_path):
    # an explicit --variant is refused on a run without [pulse], whichever
    # value it names (the default applies only to pulsed runs)
    for variant in ("literal", "symmetrized"):
        proc = run_cli("run", "--preset", "fig2-frozen", "--variant",
                       variant, "--out", str(tmp_path / variant))
        assert proc.returncode == 2, variant
        assert proc.stderr == ("invalid input: --variant only applies to "
                               "resonant, cpt and kind = cpt ensemble "
                               "runs\n"), variant
        assert not (tmp_path / variant).exists()


SHORT_ENSEMBLE = """
[scenario]
mode = ensemble

[seeds]
mode = vacuum-sampled
kind = {kind}
atom_number = 1e4
rng_seed = 5
runs = 2

[params]
{params}

[integration]
tau_start = 0
tau_end = 10
samples = 101
"""
CPT_DRIVE = ("small_delta = 3\ngamma = 1\n\n[pulse]\nomega_p = 1\n"
             "omega_d0 = 40\nt_zero = 20")
EFFECTIVE_DRIVE = ("c2n = -0.5\nq = 0.5\nomega_p = 0.01\nomega_d = 0.1\n"
                   "big_delta_prime = 1")


def test_cli_ensemble_records_variant(tmp_path):
    path = tmp_path / "cpt.ini"
    path.write_text(SHORT_ENSEMBLE.format(kind="cpt", params=CPT_DRIVE))
    variants = {}
    for variant in ("literal", "symmetrized"):
        out = tmp_path / variant
        proc = run_cli("run", "--config", str(path), "--out", str(out),
                       "--variant", variant)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["variant"] == variant
        assert any(note.startswith("transfer bounds")
                   for note in manifest["notes"])
        variants[variant] = (out / "ensemble.csv").read_text()
    assert variants["literal"] != variants["symmetrized"]


@pytest.mark.parametrize("mode", ["resonant", "cpt"])
def test_cli_pulse_run_echoes_its_pulse_once(tmp_path, mode):
    # the pulse is echoed as read, under config; derived holds only the
    # equation variant
    path = tmp_path / "run.ini"
    path.write_text(preset_text("fig4-cpt").replace(
        "mode = cpt", f"mode = {mode}").replace(
        "tau_end = 150", "tau_end = 10").replace("samples = 2001",
                                                 "samples = 101"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["pulse"] == {
        "omega_p": 1.0, "omega_d0": 40.0, "t_zero": 20.0,
        "theta_variant": "coherence"}
    assert manifest["derived"] == {"variant": "symmetrized"}


def test_cli_effective_ensemble_refuses_variant(tmp_path):
    path = tmp_path / "effective.ini"
    path.write_text(SHORT_ENSEMBLE.format(kind="effective",
                                          params=EFFECTIVE_DRIVE))
    proc = run_cli("run", "--config", str(path), "--out",
                   str(tmp_path / "x"), "--variant", "literal")
    assert proc.returncode == 2
    assert "--variant" in proc.stderr
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert "variant" not in manifest["derived"]
    # off-resonant members transfer nothing: no transfer bounds are noted
    assert not any(note.startswith("transfer bounds")
                   for note in manifest["notes"])


def test_cli_rerun_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = run_cli("run", "--preset", "fig2-collision", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    csv_a = (outs[0] / "trajectory.csv").read_bytes()
    csv_b = (outs[1] / "trajectory.csv").read_bytes()
    assert csv_a == csv_b
    ma = json.loads((outs[0] / "manifest.json").read_text())
    mb = json.loads((outs[1] / "manifest.json").read_text())
    ma.pop("wall_clock_seconds"), mb.pop("wall_clock_seconds")
    assert ma == mb


SHORT_PULSE = """
[params]
small_delta = 3
gamma = 1

[pulse]
omega_p = 1
omega_d0 = 40
t_zero = 0.1

[integration]
tau_start = 0
tau_end = 150
samples = 301
"""


@pytest.mark.parametrize("mode", ["cpt", "ensemble"])
def test_cli_short_pulse_runs(tmp_path, mode):
    # tau / t_zero reaches 1500, far past where cosh overflows a float: the
    # dump must read 0 there, not raise OverflowError (exit 1)
    if mode == "cpt":
        head = ("[scenario]\nmode = cpt\n\n[initial]\nn_plus = 1e-5\n"
                "n_zero = 0.99998\nn_minus = 1e-5\n")
    else:
        head = ("[scenario]\nmode = ensemble\n\n[seeds]\n"
                "mode = vacuum-sampled\nkind = cpt\natom_number = 1e4\n"
                "rng_seed = 5\nruns = 3\n")
    path = tmp_path / "short.ini"
    path.write_text(head + SHORT_PULSE)
    assert run_cli("validate", "--config", str(path)).returncode == 0
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out),
                   timeout=120)
    assert proc.returncode == 0, proc.stderr
    if mode == "cpt":
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",",
                             names=True, skip_header=2)
        assert data["omega_d"][0] == 40.0
        assert data["omega_d"][-1] == 0.0
        assert np.all(np.isfinite(data["n_plus"]))
    else:
        data = np.genfromtxt(out / "ensemble.csv", delimiter=",",
                             names=True, skip_header=3)
        assert len(data) == 3
        assert np.all(np.isfinite(data["final_side"]))


def test_cli_landscape_starts_on_domain_edge(tmp_path):
    # starts_n0_max = 1 - m_mag: (1 - n0)^2 - m^2 rounds to -1.7e-18 there,
    # which must count as the edge, not outside the domain
    path = tmp_path / "edge.ini"
    path.write_text("[scenario]\nmode = landscape\n\n[params]\nq = 0.01\n\n"
                    "[grid]\nc_eff_over_c2 = -0.5\nshifts = off\n"
                    "m_mag = 0.1\ntau_max = 200\nn_theta = 5\nn_n0 = 10\n"
                    "n0_max = 0.9\nstarts_n_theta = 3\nstarts_n_n0 = 3\n"
                    "starts_n0_min = 0.1\nstarts_n0_max = 0.9\n")
    out = tmp_path / "o"
    proc = run_cli("run", "--config", str(path), "--out", str(out),
                   timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "portrait.json").read_text())["shifts_off"]
    edge = [v["verdict"] for v in doc["verdicts"] if v["n_zero"] == 0.9]
    assert edge == ["Boundary"] * 3
    grid = np.genfromtxt(out / "energy_grid.csv", delimiter=",", names=True,
                         skip_header=2)
    assert not grid["mask"].any()


@pytest.mark.parametrize("key", ["starts_n_theta", "starts_n_n0"])
def test_cli_negative_start_count_exits_2(tmp_path, key):
    path = tmp_path / "starts.ini"
    path.write_text("[scenario]\nmode = landscape\n\n[grid]\n"
                    f"c_eff_over_c2 = -0.5\nshifts = off\n{key} = -1\n")
    proc = run_cli("run", "--config", str(path), "--out",
                   str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_write_csv_matches_format_17g(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
    n = 2 * cli._CSV_BLOCK_ROWS + 3  # the rows span three blocks
    rng = np.random.default_rng(3)
    x = np.concatenate([special, rng.standard_normal(n - len(special))
                        * 10.0 ** rng.integers(-300, 300, n - len(special))])
    runs = list(range(n))
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a table", "columns: run, x"], {"run": runs, "x": x})
    lines = path.read_text().split("\n")
    assert lines[:3] == ["# a table", "# columns: run, x", "run,x"]
    assert lines[3:] == [f"{format(float(k), '.17g')},{format(v, '.17g')}"
                         for k, v in zip(runs, x.tolist())] + [""]
    assert lines[3:9] == ["0,nan", "1,inf", "2,-inf", "3,-0",
                          "4,4.9406564584124654e-324", "5,0.10000000000000001"]


def test_write_csv_repeated_value_blocks_match_format_17g(tmp_path):
    # blocks 0 and 2 repeat a few values (0 and -0, NaNs of either sign and
    # another payload, the infinities, subnormals), block 1 is mostly
    # distinct; the numpy formatter lays out the zeros with their sign and
    # hands the rest of the specials to Python's "%.17g"
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
    special = [0.0, -0.0, math.nan, -math.nan, nan_payload, math.inf,
               -math.inf, 5e-324, -5e-324, 0.1, 1.0]
    rows = cli._CSV_BLOCK_ROWS
    n = 2 * rows + 64
    x = np.resize(np.array(special), n)
    x[rows:2 * rows] = np.random.default_rng(5).standard_normal(rows)
    mask = np.arange(n) % 3 == 0
    runs = np.arange(n)
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a table"], {"run": runs, "mask": mask, "x": x})
    lines = path.read_text().split("\n")
    assert lines[:2] == ["# a table", "run,mask,x"]
    assert lines[2:] == [f"{format(float(k), '.17g')},"
                         f"{format(float(b), '.17g')},{format(v, '.17g')}"
                         for k, b, v in zip(runs.tolist(), mask.tolist(),
                                            x.tolist())] + [""]
    assert lines[2:13] == ["0,1,0", "1,0,-0", "2,0,nan", "3,1,nan",
                           "4,0,nan", "5,0,inf", "6,1,-inf",
                           "7,0,4.9406564584124654e-324",
                           "8,0,-4.9406564584124654e-324",
                           "9,1,0.10000000000000001", "10,0,1"]


def test_write_csv_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    cli._write_csv(path, ["nothing"], {"a": [], "b": np.array([], bool)})
    assert path.read_text() == "# nothing\na,b\n"


def written_cells(path, values, ncols):
    """values written by _write_csv as a table of ncols columns (the last
    row padded with 1.0), and its cells as read back."""
    values = list(values) + [1.0] * (-len(values) % ncols)
    table = np.array(values, dtype=float).reshape(-1, ncols)
    cli._write_csv(path, ["cells"],
                   {f"c{j}": table[:, j] for j in range(ncols)})
    lines = path.read_text().split("\n")
    assert lines[:2] == ["# cells", ",".join(f"c{j}" for j in range(ncols))]
    assert lines[-1] == ""
    return table.ravel().tolist(), [c for line in lines[2:-1]
                                    for c in line.split(",")]


def assert_cells_match_format_17g(path, values, ncols=3):
    values, cells = written_cells(path, values, ncols)
    assert cells == [format(v, ".17g") for v in values]


@settings(max_examples=150, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=400,
                     unique=True),
       ncols=st.integers(1, 9))
def test_write_csv_cells_match_format_17g_for_bit_patterns(tmp_path_factory,
                                                           bits, ncols):
    # any float64 bit pattern: NaN payloads, infinities, subnormals, and
    # both notations
    values = np.array(bits, dtype=np.uint64).view(float)
    assert_cells_match_format_17g(tmp_path_factory.mktemp("bits") / "t.csv",
                                  values, ncols)


@settings(max_examples=150, deadline=None)
@given(mags=st.lists(st.floats(1e-6, 1e18), min_size=1, max_size=400,
                     unique=True),
       signs=st.integers(0, 2 ** 400 - 1), ncols=st.integers(1, 9))
def test_write_csv_cells_match_format_17g_across_notations(tmp_path_factory,
                                                           mags, signs,
                                                           ncols):
    # magnitudes across the fixed-notation range, its edges and beyond
    values = [-m if signs >> k & 1 else m for k, m in enumerate(mags)]
    assert_cells_match_format_17g(tmp_path_factory.mktemp("mags") / "t.csv",
                                  values, ncols)


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _is_tie(x):
    # the exact decimal value of x has 18 significant digits, the last a 5
    digits = list(decimal.Decimal(x).as_tuple().digits)
    while digits[-1] == 0:
        digits.pop()
    return len(digits) == 18 and digits[-1] == 5


NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(float).tolist()
NAMED_CELLS = {
    "zeros-nan-inf-subnormal": [0.0, -0.0, math.nan, -math.nan,
                                *NAN_PAYLOADS, math.inf, -math.inf, 5e-324,
                                -5e-324, 2.2250738585072009e-308,
                                -1.5e-315, 2.2250738585072014e-308],
    "powers-of-ten": [v for k in range(-8, 23)
                      for v in _neighbours(10.0 ** k)],
    "notation-switches": [v for x in (1e-5, 1e-4, 1e16, 1e17)
                          for v in (*_neighbours(x), -x,
                                    *_neighbours(0.99999999999999999 * x))],
    # 17 nines round up to the next power of ten, which may switch notation
    "round-up-to-next-power": [float(f"9.99999999999999999e{k}")
                               for k in range(-7, 18)]
                              + [9.999999999999999e-5, 99999999999999984.0,
                                 9.9999999999999995e-5],
    # the prefixes of 12345678912345678 (each an exact double), whose
    # 17-digit integers end in z = 0 .. 16 zeros, then zero runs across its
    # splits at 10**9 and 10**4 and fractional texts, each with either sign
    "trailing-zero-runs": [sign * v for v in (
        *[float("12345678912345678"[:17 - z]) for z in range(17)],
        10000000000000002.0, 1.000000001, 100000001.0, 100000000.5,
        12345678.9, 1.2345e-4, 2.0 ** -10) for sign in (1.0, -1.0)],
}


@pytest.mark.parametrize("values", NAMED_CELLS.values(), ids=NAMED_CELLS)
def test_write_csv_named_cells_match_format_17g(tmp_path, values):
    assert_cells_match_format_17g(tmp_path / "t.csv", values)
    assert_cells_match_format_17g(tmp_path / "t.csv", values, ncols=1)


def test_write_csv_rounds_exact_ties_to_even(tmp_path):
    # integers in [1e16, 1e17) times 2**-j, kept where the exact value lies
    # halfway between two 17-digit decimals
    ties = [x for n in range(10 ** 16, 10 ** 16 + 800, 2)
            for x in (float(n) * 2.0 ** -j for j in range(1, 60))
            if _is_tie(x)]
    assert len(ties) > 500
    values, cells = written_cells(tmp_path / "t.csv", ties, 4)
    assert cells == [format(v, ".17g") for v in values]
    # to the even neighbour, which lies below as often as above
    up = [decimal.Decimal(c) > decimal.Decimal(v)
          for c, v in zip(cells, ties)]
    assert 0.3 < sum(up) / len(up) < 0.7
    assert "1250000000000000.2" in cells and "1250000000000000.8" in cells


def _write_csv_peak(path, columns) -> int:
    """tracemalloc's heap peak while _write_csv writes columns, warmed up."""
    cli._write_csv(path, ["warm-up"], columns)
    tracemalloc.start()
    try:
        cli._write_csv(path, ["a table"], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_heap_peak_at_most_the_python_formatter(tmp_path):
    # a 1001 x 8 table of mostly distinct values (a trajectory's shape):
    # "%.17g" over each 1024-row block peaked at 619,883 bytes on it
    # (tracemalloc, numpy 2.4), the numpy formatter at 542,807 in 512-row
    # blocks, 12 % below: the bound is the former
    rng = np.random.default_rng(17)
    table = (rng.uniform(-1.0, 1.0, (1001, 8))
             * 10.0 ** rng.uniform(-3.0, 3.0, (1001, 8)))
    columns = {f"c{j}": table[:, j] for j in range(8)}
    path = tmp_path / "t.csv"
    peak = _write_csv_peak(path, columns)
    assert peak <= 619_883, peak
    assert path.read_text().split("\n")[2:-1] == [
        ",".join(format(v, ".17g") for v in row) for row in table.tolist()]

    # the fig3 energy grid at c_eff/c2 = -0.5, shifts both: 18,281 x 6
    # cells of few distinct values, a third of them 0 (both masks). The
    # formatter that wrote each distinct value once in Python peaked at
    # 1,316,626 bytes on it (numpy 2.4.6), the numpy formatter at 1,255,503
    cfg = parse_config(edited("fig3-portraits", "1, 0.5, -0.5, -1", "-0.5"))
    _, kw = build(cfg)
    grids = {s: energy_grid(lp, kw["grid"])
             for s, lp in sorted(kw["cases"][-0.5].items())}
    theta, n_zero = np.meshgrid(grids["off"].theta, grids["off"].n_zero)
    columns = {"theta": theta.ravel(), "n_zero": n_zero.ravel()}
    for s, eg in grids.items():
        columns[f"energy_shifts_{s}"] = np.where(eg.mask, 0.0,
                                                 eg.values).ravel()
        columns[f"mask_shifts_{s}"] = eg.mask.ravel()
    table = np.column_stack(list(columns.values())).astype(float)
    assert table.shape == (18_281, 6)
    assert 0.3 < np.mean(table == 0) < 0.4
    peak = _write_csv_peak(path, columns)
    assert peak <= 1_316_626, peak
    assert path.read_text().split("\n")[2:-1] == [
        ",".join(format(v, ".17g") for v in row) for row in table.tolist()]


def refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_write_json_matches_streamed_dump(tmp_path):
    # numpy values are written as Python ones, NaN and infinities as null
    obj = {"b": [np.float64(0.1), np.int64(3), np.arange(3.0),
                 np.float64(math.nan), (1, math.inf)],
           "a": {"x": math.nan, "y": -0.0, "z": "text",
                 "w": np.array([-math.inf, 2.5])}, "c": None}
    plain = {"b": [0.1, 3, [0.0, 1.0, 2.0], None, [1, None]],
             "a": {"x": None, "y": -0.0, "z": "text", "w": [None, 2.5]},
             "c": None}
    cli._write_json(tmp_path / "o.json", obj)
    stream = io.StringIO()
    json.dump(plain, stream, indent=2, sort_keys=True)
    text = (tmp_path / "o.json").read_text()
    assert text == stream.getvalue() + "\n"
    assert json.loads(text, parse_constant=refuse_constant) == plain


def test_cli_ensemble_without_onset_writes_strict_json(tmp_path):
    # no member reaches the onset by tau = 0.2, so the onset statistics
    # are NaN: null in the JSON artifacts, nan in the CSV
    path = tmp_path / "short.ini"
    path.write_text(edited("fig4-ensemble", "tau_end = 150", "tau_end = 0.2")
                    .replace("runs = 16", "runs = 2"))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    stats = json.loads((out / "ensemble_stats.json").read_text(),
                       parse_constant=refuse_constant)
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=refuse_constant)
    assert stats["mean_tau_onset"] is None and stats["onset_misses"] == 2
    assert manifest["derived"]["stats"] == stats
    rows = (out / "ensemble.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[1] for r in rows[-2:]] == ["nan", "nan"]


def test_cli_main_reuses_its_parser(tmp_path, capsys):
    # the parser is built once per process; consecutive calls, and a call
    # after a usage error, parse afresh
    path = tmp_path / "scenario.ini"
    path.write_text(preset_text("fig2-frozen"))
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "trajectory.csv").is_file()
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(path), "--unknown"])
    assert exc.value.code == 2
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert cli._parser() is cli._parser()
    assert "OK: mode = effective" in capsys.readouterr().out


_BLOCK = cli._GRID_BLOCK_CELLS
# (q, [grid] lines) of landscape runs whose energy grids _write_grid cuts
# into blocks in each of its ways
GRID_SHAPES = {
    # the n0 = 1 row lies outside (1-n0)^2 >= m^2
    "masked-3x5": (0.01, "shifts = off\nm_mag = 0.1\nn_theta = 3\n"
                         "n_n0 = 5\nn0_max = 1\n"),
    "shifts-both": (0.01, "shifts = both\nm_mag = 0.1\nn_theta = 7\n"
                          "n_n0 = 6\nn0_max = 1\n"),
    # every n0 row is cut inside by a block
    "row-wider-than-block": (0.01, f"shifts = both\nn_theta = {_BLOCK + 5}"
                                   "\nn_n0 = 3\n"),
    # the last block holds fewer n0 rows than the others, masked and not
    "rows-not-a-block-multiple": (
        0.01, f"shifts = both\nm_mag = 0.1\nn_theta = 181\n"
              f"n_n0 = {2 * (_BLOCK // 181) + 5}\nn0_max = 1\n"),
    # with q = 0 and n0 <= 1e-6 every energy but the n0 = 0 row's is below
    # 1e-5 in magnitude, written in exponent notation
    "exponent-cells": (0.0, "shifts = off\nn_theta = 9\nn_n0 = 4\n"
                            "n0_max = 1e-6\n"),
}


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_cli_energy_grid_rows_and_masked_cells(tmp_path, capsys, shape):
    q, grid = GRID_SHAPES[shape]
    text = (f"[scenario]\nmode = landscape\n\n[params]\nq = {q}\n\n"
            f"[grid]\nc_eff_over_c2 = -0.5\ntau_max = 200\n{grid}"
            "starts_n_theta = 2\nstarts_n_n0 = 2\nstarts_n0_max = 0.9\n")
    path = tmp_path / "grid.ini"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
    _starts, kw = build(parse_config(text))
    settings = sorted(kw["cases"][-0.5])
    grids = [energy_grid(kw["cases"][-0.5][s], kw["grid"]) for s in settings]
    lines = (tmp_path / "o" / "energy_grid.csv").read_text().splitlines()
    suffixes = ([f"_shifts_{s}" for s in settings] if len(settings) > 1
                else [""])
    assert lines[2] == ",".join(["theta", "n_zero"] + [
        f"{c}{x}" for x in suffixes for c in ("energy", "mask")])
    eg = grids[0]
    expected = []
    for i, n0 in enumerate(eg.n_zero):          # n0 outer, theta inner
        for j, th in enumerate(eg.theta):
            row = [th, n0]
            for g in grids:
                row += [0.0, 1.0] if g.mask[i, j] else [g.values[i, j], 0.0]
            expected.append(",".join(format(float(v), ".17g") for v in row))
    assert lines[3:] == expected
    if shape == "masked-3x5":
        assert eg.mask[-1].all() and not eg.mask[:-1].any()  # the n0 = 1 row
        assert lines[-3:] == [f"{format(th, '.17g')},1,0,1"
                              for th in eg.theta.tolist()]
    if shape == "exponent-cells":
        assert all("e-" in line.split(",")[2] for line in lines[3 + 9:])


@pytest.mark.parametrize("block", [cli._GRID_BLOCK_CELLS, 3])
@pytest.mark.parametrize("shifts", [["off"], ["off", "on"]])
def test_write_grid_packed_columns_match_format_17g(tmp_path, monkeypatch,
                                                    block, shifts):
    # axes whose longest texts need 4 and 3 words with the separator:
    # signed zeros, the 24-character smallest subnormal and a value in
    # [1e16, 1e17) on theta; 0, 1e-300 (exponent notation), 0.1 and 1
    # (outside (1-n0)^2 >= m^2) on n0; the masks take 1 word
    monkeypatch.setattr(cli, "_GRID_BLOCK_CELLS", block)
    theta = np.array([-0.0, 0.0, -4.9406564584124654e-324,
                      12345678912345678.0, -2.5])
    n_zero = np.array([0.0, 1e-300, 0.1, 1.0])
    words = cli._grid_words(theta, n_zero)
    assert [w.shape[1] for w in words] == [4, 3, 1]
    lps = {"off": LandscapeParams(-0.5, 1.0, 0.01, m_mag=0.1),
           "on": LandscapeParams(-0.4, 1.0, 0.01, m_mag=0.1,
                                 lightshift_delta=0.2, lightshift_p=0.05)}
    settings = {s: lps[s] for s in shifts}
    path = tmp_path / "grid.csv"
    cli._write_grid(path, theta, n_zero, words, settings)
    blocks = [energy_block(lp, theta, n_zero, 0.0) for lp in settings.values()]
    expected = []
    for i, n0 in enumerate(n_zero.tolist()):
        for j, th in enumerate(theta.tolist()):
            row = [th, n0]
            for energies, masked in blocks:
                row += [energies[i, j], float(masked[i])]
            expected.append(",".join(format(float(v), ".17g") for v in row))
    lines = path.read_text().split("\n")
    assert lines[3:] == expected + [""]
    assert lines[3].startswith("-0,0,") and lines[-2].endswith(",0,1")
    assert lines[5].startswith("-4.9406564584124654e-324,0,")
    assert [line.split(",")[1] for line in lines[3:-1:theta.size]] == [
        "0", "1e-300", "0.10000000000000001", "1"]


def test_cli_landscape_heap_peak_below_its_table(tmp_path, capsys):
    # a 500 x 500 grid, shifts off: its CSV table, the 8,000,000 bytes that
    # config._require_memory counts, was built whole and peaked at 18.3 MB
    # of heap; written a block of n0 rows at a time it stays below the table
    text = ("[scenario]\nmode = landscape\n\n[params]\nq = 0.01\n\n[grid]\n"
            "c_eff_over_c2 = -0.5\nshifts = off\nn_theta = 500\n"
            "n_n0 = 500\nstarts_n_theta = 2\nstarts_n_n0 = 2\n")
    path = tmp_path / "big.ini"
    path.write_text(text)
    out = str(tmp_path / "o")
    assert cli.main(["run", "--config", str(path), "--out", out]) == 0  # warm
    tracemalloc.start()
    try:
        assert cli.main(["run", "--config", str(path), "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * 500 * 4 * 8, peak


PENDULUM = """
[scenario]
mode = pendulum

[params]
q = 0.01
omega_p = 0
omega_d = 0
big_delta_prime = 1

[initial]
theta = 0.5
n_zero = 0.5

[integration]
tau_start = 0
tau_end = 10
samples = 101
"""

# one config that parses for each reader of the key table
VALID_TEXTS = {
    "effective": preset_text("fig2-collision"),
    "pendulum": PENDULUM,
    "resonant": preset_text("fig4-cpt").replace("mode = cpt",
                                                "mode = resonant"),
    "cpt": preset_text("fig4-cpt"),
    "landscape": preset_text("fig3-portraits"),
    "ensemble/cpt": preset_text("fig4-ensemble"),
    "ensemble/effective": SHORT_ENSEMBLE.format(kind="effective",
                                                params=EFFECTIVE_DRIVE),
}


def with_key(text, sec, key, raw):
    """text with `key = raw` added to [sec], appending [sec] if absent."""
    if f"[{sec}]\n" in text:
        return text.replace(f"[{sec}]\n", f"[{sec}]\n{key} = {raw}\n", 1)
    return text + f"\n[{sec}]\n{key} = {raw}\n"


@pytest.mark.parametrize("reader", sorted(config._TABLE))
def test_parse_rejects_each_key_the_mode_does_not_read(reader):
    # a key outside the mode's table entry is one problem naming the key
    # (or, outside the sections the mode reads, its section) and the mode
    text = VALID_TEXTS[reader]
    parse_config(text)
    reads = config._TABLE[reader]
    for sec, keys in config._SCHEMA.items():
        for key, (typ, _default) in keys.items():
            if key in reads.get(sec, {}):
                continue
            raw = typ[0] if isinstance(typ, tuple) else "3"
            with pytest.raises(ConfigError) as err:
                parse_config(with_key(text, sec, key, raw))
            expected = (f"key '{key}' in [{sec}] is not used by mode "
                        f"'{reader}'" if sec in reads else
                        f"section [{sec}] is not used by mode '{reader}'")
            assert err.value.problems == [expected], (sec, key)


def test_invalid_seed_kind_exits_2(tmp_path, capsys):
    text = preset_text("fig4-ensemble").replace("kind = cpt",
                                                "kind = classical")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [
        "[seeds] kind = 'classical': must be one of cpt|effective"]
    path = tmp_path / "kind.ini"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "[seeds] kind" in capsys.readouterr().err


def edited(preset, old, new):
    text = preset_text(preset)
    assert old in text
    return text.replace(old, new, 1)


# configs that parse but fail a library range check before integration,
# and keys a mode does not read; each cause is named on stderr
REFUSED = [
    pytest.param(edited("fig2-collision", "tau_start",
                        "rel_tol = 0\ntau_start"),
                 ["tolerances must lie in (0, 1e-2]"], id="rel_tol"),
    pytest.param(edited("fig4-cpt", "t_zero = 20", "t_zero = 0"),
                 ["t0 must be > 0"], id="t_zero"),
    pytest.param(edited("fig3-portraits", "shifts", "m_mag = 2\nshifts"),
                 ["(1-n0)^2 - m^2 must be >= 0"], id="grid-m_mag"),
    pytest.param(edited("fig3-portraits", "shifts",
                        "starts_n0_max = 1.5\nshifts"),
                 ["n_zero must lie in [0, 1]"], id="starts_n0_max"),
    pytest.param(edited("fig4-ensemble", "atom_number = 1e4",
                        "atom_number = 5"),
                 ["atom_number_N must be >= 10"], id="atom_number"),
    pytest.param(edited("fig4-ensemble", "runs", "classical_n = 0.5\nruns"),
                 ["classical_n must lie in [0, 0.1]"], id="classical_n"),
    pytest.param(edited("fig2-collision", "big_delta_prime = 1\n",
                        "big_delta_prime = 0\n"),
                 ["big_delta_prime = 0: adiabatic elimination is singular"],
                 id="big_delta_prime"),
    pytest.param(edited("fig4-cpt", "t_zero = 20",
                        "t_zero = 20\ntheta_fixed = 5"),
                 ["[pulse] theta_fixed needs theta_variant 'fixed'"],
                 id="theta_fixed"),
    pytest.param(edited("fig4-cpt", "gamma = 1",
                        "gamma = 1\nomega_p = 7\nq = 3"),
                 ["key 'omega_p' in [params] is not used by mode 'cpt'",
                  "key 'q' in [params] is not used by mode 'cpt'"],
                 id="cpt-params"),
    pytest.param(edited("fig2-collision", "n_minus = 0.05",
                        "n_minus = 0.05\ntheta = 2.5\nm_mag = 0.4"),
                 ["key 'theta' in [initial] is not used by mode 'effective'",
                  "key 'm_mag' in [initial] is not used by mode 'effective'"],
                 id="effective-initial"),
    pytest.param(PENDULUM.replace("n_zero = 0.5",
                                  "n_zero = 0.5\nn_plus = 0.9\nn_m = 0.3"),
                 ["key 'n_plus' in [initial] is not used by mode 'pendulum'",
                  "key 'n_m' in [initial] is not used by mode 'pendulum'"],
                 id="pendulum-initial"),
]


@pytest.mark.parametrize("text, causes", REFUSED)
def test_cli_validate_refuses_what_run_refuses(tmp_path, capsys, text,
                                               causes):
    path = tmp_path / "refused.ini"
    path.write_text(text)
    out = tmp_path / "o"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert cli.main([*args, "--config", str(path)]) == 2, args
        err = capsys.readouterr().err
        assert all(cause in err for cause in causes), (args, err)
    assert not out.exists()  # refused before the output directory is made


@pytest.mark.parametrize("initial, code", [
    pytest.param("theta = 0\nn_zero = 1.0", 3, id="n_zero-edge"),
    pytest.param("theta = 0.5\nn_zero = 0.5\nm_mag = 0.5", 3,
                 id="m_mag-edge"),
    pytest.param("theta = 0.5\nn_zero = 0.5", 0, id="interior"),
])
def test_cli_validate_and_run_agree_on_pendulum_starts(tmp_path, capsys,
                                                       initial, code):
    # a start on the (1-n0)^2 = m^2 edge is a domain error (exit 3) for
    # both commands, found before the output directory is made
    path = tmp_path / "pendulum.ini"
    path.write_text(PENDULUM.replace("theta = 0.5\nn_zero = 0.5", initial))
    out = tmp_path / "o"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert cli.main([*args, "--config", str(path)]) == code, args
        err = capsys.readouterr().err
        assert ("pendulum initial state on the domain boundary" in err) == (
            code == 3), (args, err)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("preset, member", [("fig4-cpt", False),
                                            ("fig4-ensemble", True)])
def test_cli_run_past_step_budget_exits_4(tmp_path, capsys, monkeypatch,
                                          preset, member):
    # a single run and an ensemble both stop at the budget, naming the tau
    # reached (and in an ensemble the run, once, by its run number), and
    # leave no output directory behind
    monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 100)
    out = tmp_path / "o"
    assert cli.main(["run", "--preset", preset, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    found = re.fullmatch(r"numerical failure: integration stopped"
                         r"(?: for member (\d+))? after 100 step attempts "
                         r"at tau = \S+\n", err)
    assert found, err
    assert err.count("member") == member
    if member:  # fig4-ensemble has runs 0 to 15
        assert 0 <= int(found[1]) < 16
    assert not out.exists()


HUGE_GRID = ("shifts = off\nn_theta = 3000000\nn_n0 = 3000000\n"
             "starts_n_theta = 2\nstarts_n_n0 = 2")
# a grid the memory check lets through on a 2**62-byte machine, whose
# theta axis alone numpy refuses
HUGE_AXIS = ("shifts = off\nn_theta = 10000000000000\nn_n0 = 2\n"
             "starts_n_theta = 2\nstarts_n_n0 = 2")


@pytest.mark.parametrize("preset, old, new, need, start, memory", [
    ("fig2-collision", "samples = 1001", "samples = 10000000000000",
     "needs at least 509 TiB of arrays", "[integration] samples = ", None),
    ("fig4-ensemble", "runs = 16", "runs = 100000000000",
     "need at least 8 TiB of arrays", "[integration] samples = ", None),
    ("fig3-portraits", "shifts = both", HUGE_GRID,
     "need at least 262 TiB of arrays and start states",
     "[grid] n_theta = 3000000, ", None),
    # on a machine that could hold the grid's table, numpy still refuses
    # an axis that large
    ("fig3-portraits", "shifts = both", HUGE_AXIS,
     "72.8 TiB for an array", "Unable to allocate ", 2 ** 62),
])
def test_cli_oversized_run_exits_2(tmp_path, capsys, monkeypatch, preset,
                                   old, new, need, start, memory):
    # samples, runs and landscape grids larger than any machine's memory
    # are refused before the run allocates them; past that check, numpy
    # refuses a grid axis that large at once. Either way the run ends with
    # one line and no output directory
    if memory:
        _physical_memory(monkeypatch, memory)
    path = tmp_path / "huge.ini"
    path.write_text(edited(preset, old, new))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {start}")
    assert need in err and err.count("\n") == 1
    assert not out.exists()


def _physical_memory(monkeypatch, nbytes):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)


@pytest.mark.parametrize("preset, old, key, fits, billion, memory", [
    # 1 GiB holds 19173961 effective samples of 56 bytes (tau and three
    # complex amplitudes), and 12201429 ensemble runs of 88 bytes beside
    # 2001 tau samples
    ("fig2-collision", "samples = 1001", "samples", 19173961, "52.2 GiB",
     "1 GiB"),
    ("fig4-ensemble", "runs = 16", "runs", 12201429, "82 GiB", "1 GiB"),
    # 1 MiB holds the 10 x 10 starts of 152 bytes and 213 rows of n0 = 101
    # grid cells of 48 bytes (theta, n0, and with shifts = both two
    # energies and two masks); or the default 181 x 101 grid and 112 rows
    # of 10 starts. validate does not build the starts it refuses
    ("fig3-portraits", "[grid]", "n_theta", 213, "4.41 TiB", "1 MiB"),
    ("fig3-portraits", "[grid]", "starts_n_theta", 112, "1.38 TiB",
     "1 MiB"),
])
def test_cli_validate_refuses_run_beyond_physical_memory(
        tmp_path, capsys, monkeypatch, preset, old, key, fits, billion,
        memory):
    # validate builds the run's inputs and allocates none of its arrays
    _physical_memory(monkeypatch, {"1 GiB": 2 ** 30, "1 MiB": 2 ** 20}[memory])
    path = tmp_path / "big.ini"
    for count in (fits, fits + 1, 10 ** 9):
        new = f"{key} = {count}"
        if old == "[grid]":  # a key the preset leaves at its default
            new = f"{old}\n{new}"
        path.write_text(edited(preset, old, new))
        code = cli.main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        if count == fits:
            assert code == 0 and err == "", err
            continue
        assert code == 2, count
        assert err.startswith("invalid input: [integration] samples = "
                              if old != "[grid]" else
                              "invalid input: [grid] n_theta = ")
        assert f"{key} = {count}" in err
        assert err.endswith(f", more than the {memory} of physical memory\n")
    assert f"at least {billion} of arrays" in err


def test_cli_failed_run_removes_only_directories_it_made(tmp_path, capsys,
                                                        monkeypatch):
    # the run makes keep/a/b; failing, it removes those two, not keep
    monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 100)
    keep = tmp_path / "keep"
    keep.mkdir()
    assert cli.main(["run", "--preset", "fig4-cpt",
                     "--out", str(keep / "a" / "b")]) == 4
    assert keep.is_dir() and not any(keep.iterdir())


def test_cli_landscape_refuses_grids_past_free_disk(tmp_path, capsys,
                                                    monkeypatch):
    # the fig3 grids need at least 2 bytes a cell, a character and a
    # separator: 4 grids of 181 x 101 rows and 6 columns. A file system
    # with room for the grids the run writes lets it run; one with a byte
    # less than that bound refuses it before anything is written
    need = 2 * 4 * 181 * 101 * 6
    assert cli.main(["run", "--preset", "fig3-portraits",
                     "--out", str(tmp_path / "full")]) == 0
    written = sum(p.stat().st_size
                  for p in (tmp_path / "full").glob("energy_grid_*.csv"))
    assert need <= written
    for free, code in ((written, 0), (need - 1, 2)):
        monkeypatch.setattr(cli.shutil, "disk_usage",
                            lambda path: SimpleNamespace(free=free))
        out = tmp_path / f"free{free}" / "o"
        assert cli.main(["run", "--preset", "fig3-portraits",
                         "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == (f"invalid input: [grid] n_theta = 181, n_n0 = 101 need "
                   f"at least 857 KiB of energy grid files, more than the "
                   f"857 KiB free on the file system of {str(out)!r}\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("section, key", [
    ("params", "c0n"), ("grid", "eps_return"), ("integration", "rel_tol"),
    ("integration", "tau_end"), ("integration", "samples")])
def test_cli_landscape_refuses_keys_no_computation_reads(tmp_path, capsys,
                                                          section, key):
    # c0n is the unit, eps_return belonged to a deleted flow classifier,
    # and a landscape integrates nothing
    path = tmp_path / "landscape.ini"
    path.write_text(with_key(preset_text("fig3-portraits"), section, key,
                             "1"))
    out = tmp_path / "o"
    cause = (f"section [{section}] is not used by mode 'landscape'"
             if section == "integration" else
             f"unknown key '{key}' in [{section}]")
    for args in (["validate"], ["run", "--out", str(out)]):
        assert cli.main([*args, "--config", str(path)]) == 2, args
        assert cause in capsys.readouterr().err, args
    assert not out.exists()


@pytest.mark.parametrize("reader", sorted(VALID_TEXTS))
def test_parse_refuses_c0n(reader):
    # every quantity is in units of c0n, so no mode has a c0n key
    with pytest.raises(ConfigError) as err:
        parse_config(with_key(VALID_TEXTS[reader], "params", "c0n", "1"))
    assert err.value.problems == ["unknown key 'c0n' in [params]"]


def test_landscape_accepts_tau_max_and_records_it_only_when_set():
    # the benchmark's portraits inputs set [grid] tau_max, which no verdict
    # reads; it has no default
    text = preset_text("fig3-portraits")
    assert "tau_max" not in config_to_dict(parse_config(text))["grid"]
    cfg = parse_config(with_key(text, "grid", "tau_max", "2500"))
    assert config_to_dict(cfg)["grid"]["tau_max"] == 2500.0


def test_cli_validity_warning_once_per_call(tmp_path):
    # |big_delta_prime| below 10 max(omega_p, omega_d) warns when the
    # coupling is built, which validate and run each do once
    path = tmp_path / "near.ini"
    path.write_text(edited("fig2-collision", "big_delta_prime = 1\n",
                           "big_delta_prime = 0.5\n").replace(
                               "omega_d = 0\n", "omega_d = 0.1\n"))
    for args in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        with pytest.warns(ValidityWarning) as record:
            assert cli.main([*args, "--config", str(path)]) == 0
        assert len([w for w in record
                    if w.category is ValidityWarning]) == 1, args


def test_cli_landscape_counts_keep_close_couplings_apart(tmp_path):
    # two couplings equal to 6 digits keep one counts entry each
    mults = (0.5, 0.50000001)
    path = tmp_path / "close.ini"
    path.write_text("[scenario]\nmode = landscape\n\n[grid]\n"
                    f"c_eff_over_c2 = {mults[0]!r}, {mults[1]!r}\n"
                    "shifts = off\nn_theta = 3\nn_n0 = 3\n"
                    "starts_n_theta = 2\nstarts_n_n0 = 2\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    counts = json.loads((out / "manifest.json").read_text())["derived"][
        "counts"]
    assert counts == {
        f"{format(m, '.17g')}/off": json.loads(
            (out / f"portrait_{k}.json").read_text())["shifts_off"]["counts"]
        for k, m in enumerate(mults, start=1)}
