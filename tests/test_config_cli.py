"""Config parsing, presets, and the command-line interface.

Verifies:
  - serialize/parse round trips reproduce the config exactly
  - the validator reports every problem at once with exit code 2
  - built-in presets load, list, and run end to end
  - CLI outputs: CSV columns, manifest fields, and rerun byte-identity
  - exit codes 2 (bad input) and 3 (domain violation)
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lcse import ConfigError, InvalidInputError, cli
from lcse.config import build_grid_spec, landscape_cases
from lcse.config import config_to_dict, parse_config, serialize_config
from lcse.landscape import energy_grid
from lcse.presets import load_preset, preset_description, preset_names, preset_text

PRESET_NAMES = ["fig2-collision", "fig2-frozen", "fig2-reversed",
                "fig3-portraits", "fig4-cpt", "fig4-ensemble"]


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "lcse.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


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
    proc = run_cli("run", "--preset", "fig2-frozen", "--variant", "literal",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 2


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


def test_cli_energy_grid_rows_and_masked_cells(tmp_path, capsys):
    text = ("[scenario]\nmode = landscape\n\n[params]\nq = 0.01\n\n"
            "[grid]\nc_eff_over_c2 = -0.5\nshifts = off\nm_mag = 0.1\n"
            "tau_max = 200\nn_theta = 3\nn_n0 = 5\nn0_max = 1\n"
            "starts_n_theta = 2\nstarts_n_n0 = 2\nstarts_n0_max = 0.9\n")
    path = tmp_path / "mask.ini"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
    cfg = parse_config(text)
    eg = energy_grid(landscape_cases(cfg)[0][2], build_grid_spec(cfg))
    assert eg.mask[-1].all() and not eg.mask[:-1].any()  # the n0 = 1 row
    lines = (tmp_path / "o" / "energy_grid.csv").read_text().splitlines()
    assert lines[2] == "theta,n_zero,energy,mask"
    expected = []
    for i, n0 in enumerate(eg.n_zero):          # n0 outer, theta inner
        for j, th in enumerate(eg.theta):
            cell = [0.0, 1.0] if eg.mask[i, j] else [eg.values[i, j], 0.0]
            expected.append(",".join(format(float(v), ".17g")
                                     for v in (th, n0, *cell)))
    assert lines[3:] == expected
    assert lines[-3:] == [f"{format(th, '.17g')},1,0,1"
                          for th in eg.theta.tolist()]
