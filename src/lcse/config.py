"""Scenario configs: strict INI schema, validation, (de)serialization.

One flat `key = value` file per run. The schema is strict in both directions:
unknown keys and sections that the selected mode does not use are rejected,
so a typo cannot silently fall back to a default. parse_config collects
every problem it can find and reports them all at once.

Builder helpers at the bottom turn a validated ScenarioConfig into the
library objects (SystemParams, initial state, pulse, grid, seed spec).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Optional

from .constants import RB87_C2_OVER_C0
from .core import (CouplingSummary, SpinorAmplitudes, SystemParams,
                   effective_coupling, ladder_lightshifts)
from .cpt import THETA_VARIANTS, PulseSchedule, make_schedule
from .dynamics import IntegratorConfig, PendulumState
from .errors import ConfigError
from .landscape import GridSpec, LandscapeParams
from .stochastic import SEED_MODES, SeedSpec

MODES = ("effective", "pendulum", "resonant", "landscape", "cpt", "ensemble")

_REQ = object()  # sentinel: no default, may be required per mode

# section -> key -> (type, default); type is float/int/str or a tuple of
# allowed strings; "floats" parses a comma-separated list
_SCHEMA = {
    "scenario": {"mode": (MODES, _REQ)},
    "params": {
        "c0n": (float, 1.0),
        "c2n": (float, RB87_C2_OVER_C0),
        "q": (float, 0.0),
        "omega_p": (float, 0.0),
        "omega_d": (float, 0.0),
        "big_delta_prime": (float, 1.0),
        "small_delta": (float, 0.0),
        "gamma": (float, 0.0),
    },
    "initial": {
        "n_plus": (float, _REQ),
        "n_zero": (float, _REQ),
        "n_minus": (float, _REQ),
        "n_m": (float, 0.0),
        "phase_plus": (float, 0.0),
        "phase_zero": (float, 0.0),
        "phase_minus": (float, 0.0),
        "phase_m": (float, 0.0),
        "theta": (float, _REQ),
        "m_mag": (float, 0.0),
    },
    "integration": {
        "rel_tol": (float, 1e-10),
        "abs_tol": (float, 1e-12),
        "tau_start": (float, _REQ),
        "tau_end": (float, _REQ),
        "samples": (int, 1001),
    },
    "pulse": {
        "omega_p": (float, _REQ),
        "omega_d0": (float, _REQ),
        "t_zero": (float, _REQ),
        "theta_variant": (THETA_VARIANTS, "coherence"),
        "theta_fixed": (float, None),
    },
    "grid": {
        "theta_min": (float, -math.pi),
        "theta_max": (float, math.pi),
        "n0_min": (float, 0.0),
        "n0_max": (float, 1.0),
        "n_theta": (int, 181),
        "n_n0": (int, 101),
        "c_eff_over_c2": ("floats", _REQ),
        "shifts": (("on", "off", "both"), _REQ),
        "tau_max": (float, 500.0),
        "eps_return": (float, 1e-4),
        "m_mag": (float, 0.0),
        "starts_n_theta": (int, 10),
        "starts_n_n0": (int, 10),
        "starts_n0_min": (float, 0.05),
        "starts_n0_max": (float, 0.95),
    },
    "seeds": {
        "mode": (SEED_MODES, _REQ),
        "kind": (("cpt", "effective"), "cpt"),
        "classical_n": (float, 1e-5),
        "atom_number": (float, 1e4),
        "rng_seed": (int, _REQ),
        "runs": (int, _REQ),
    },
    "output": {"dir": (str, ".")},
}

# sections each mode consumes (ensemble adds 'pulse' when seeds.kind = cpt)
_MODE_SECTIONS = {
    "effective": ("scenario", "params", "initial", "integration", "output"),
    "pendulum": ("scenario", "params", "initial", "integration", "output"),
    "resonant": ("scenario", "params", "initial", "integration", "pulse",
                 "output"),
    "cpt": ("scenario", "params", "initial", "integration", "pulse",
            "output"),
    "landscape": ("scenario", "params", "grid", "integration", "output"),
    "ensemble": ("scenario", "params", "seeds", "integration", "output"),
}

# (section, key) required per mode, beyond scenario.mode
_MODE_REQUIRED = {
    "effective": [("params", "omega_p"), ("params", "omega_d"),
                  ("params", "big_delta_prime"), ("params", "q"),
                  ("initial", "n_plus"), ("initial", "n_zero"),
                  ("initial", "n_minus"),
                  ("integration", "tau_start"), ("integration", "tau_end")],
    "pendulum": [("params", "omega_p"), ("params", "omega_d"),
                 ("params", "big_delta_prime"), ("params", "q"),
                 ("initial", "theta"), ("initial", "n_zero"),
                 ("integration", "tau_start"), ("integration", "tau_end")],
    "resonant": [("params", "small_delta"), ("params", "gamma"),
                 ("initial", "n_plus"), ("initial", "n_zero"),
                 ("initial", "n_minus"),
                 ("integration", "tau_start"), ("integration", "tau_end"),
                 ("pulse", "omega_p"), ("pulse", "omega_d0"),
                 ("pulse", "t_zero")],
    "landscape": [("grid", "c_eff_over_c2"), ("grid", "shifts")],
    "ensemble": [("seeds", "mode"), ("seeds", "rng_seed"), ("seeds", "runs"),
                 ("integration", "tau_start"), ("integration", "tau_end")],
}
_MODE_REQUIRED["cpt"] = list(_MODE_REQUIRED["resonant"])


@dataclass
class ScenarioConfig:
    """Validated run description with all defaults applied."""

    mode: str
    params: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    integration: dict = field(default_factory=dict)
    pulse: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

def _convert(section: str, key: str, raw: str, problems: list):
    typ, _ = _SCHEMA[section][key]
    try:
        if typ is float or typ == "floats":
            parts = raw.split(",") if typ == "floats" else [raw]
            vals = tuple(float(p) for p in parts)
            if not all(math.isfinite(v) for v in vals):
                problems.append(
                    f"[{section}] {key} = {raw!r}: not a finite number")
                return None
            return vals if typ == "floats" else vals[0]
        if typ is int:
            return int(raw)
        if typ is str:
            return raw
        if raw not in typ:
            problems.append(
                f"[{section}] {key} = {raw!r}: must be one of {'|'.join(typ)}")
            return None
        return raw
    except ValueError:
        kind = "number" if typ is not int else "integer"
        problems.append(f"[{section}] {key} = {raw!r}: not a valid {kind}")
        return None


def parse_config(text: str) -> ScenarioConfig:
    """Validate config text; raises ConfigError listing every problem."""
    problems: list[str] = []
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    mode = cp.get("scenario", "mode", fallback=None)
    if mode is None:
        problems.append("missing required key 'mode' in [scenario]")
    elif mode not in MODES:
        problems.append(
            f"[scenario] mode = {mode!r}: must be one of {'|'.join(MODES)}")
        mode = None

    allowed = set(_MODE_SECTIONS.get(mode, tuple(_SCHEMA)))
    if mode == "ensemble" and cp.get("seeds", "kind", fallback="cpt") == "cpt":
        allowed.add("pulse")

    sections = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            problems.append(f"unknown section [{sec}]")
            continue
        if sec not in allowed:
            problems.append(f"section [{sec}] is not used by mode '{mode}'")
            continue
        vals = {}
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                problems.append(f"unknown key '{key}' in [{sec}]")
                continue
            val = _convert(sec, key, raw, problems)
            if val is not None:
                vals[key] = val
        sections[sec] = vals

    if mode is not None:
        required = list(_MODE_REQUIRED[mode])
        if mode == "ensemble":
            kind = sections.get("seeds", {}).get("kind", "cpt")
            if kind == "cpt":
                required += [("params", "small_delta"), ("params", "gamma"),
                             ("pulse", "omega_p"), ("pulse", "omega_d0"),
                             ("pulse", "t_zero")]
            else:
                required += [("params", "omega_p"), ("params", "omega_d"),
                             ("params", "big_delta_prime"), ("params", "q")]
        for sec, key in required:
            if key not in sections.get(sec, {}):
                problems.append(
                    f"missing required key '{key}' in [{sec}] "
                    f"for mode '{mode}'")
        for sec in allowed - {"scenario"}:
            merged = {k: d for k, (_t, d) in _SCHEMA[sec].items()
                      if d is not _REQ}
            merged.update(sections.get(sec, {}))
            sections[sec] = merged
        sections.pop("scenario", None)

    _cross_validate(mode, sections, problems)
    if problems:
        raise ConfigError(problems)

    cfg = ScenarioConfig(mode=mode)
    for sec in ("params", "initial", "integration", "pulse", "grid",
                "seeds", "output"):
        if sec in sections:
            getattr(cfg, sec).update(sections[sec])
    return cfg


def _cross_validate(mode: Optional[str], sections: dict, problems: list):
    if mode is None:
        return
    ini = sections.get("initial", {})
    needs_norm = (mode in ("effective", "resonant", "cpt")
                  and all(k in ini for k in ("n_plus", "n_zero", "n_minus")))
    if needs_norm:
        total = (ini["n_plus"] + ini["n_zero"] + ini["n_minus"]
                 + 2.0 * ini.get("n_m", 0.0))
        if abs(total - 1.0) > 1e-9:
            problems.append(
                f"[initial] populations sum to {total!r}, not 1 (tol 1e-9)")
    integ = sections.get("integration", {})
    if "tau_start" in integ and "tau_end" in integ:
        if integ["tau_end"] <= integ["tau_start"]:
            problems.append("[integration] tau_end must exceed tau_start")
    if integ.get("samples", 2) < 2:
        problems.append("[integration] samples must be >= 2")
    pulse = sections.get("pulse", {})
    if pulse.get("theta_variant") == "fixed" and pulse.get("theta_fixed") is None:
        problems.append("[pulse] theta_variant 'fixed' needs theta_fixed")
    seeds = sections.get("seeds", {})
    if seeds.get("runs", 1) < 1:
        problems.append("[seeds] runs must be >= 1")


def _fmt(val) -> str:
    if isinstance(val, float):
        return format(val, ".17g")
    if isinstance(val, tuple):
        return ", ".join(format(v, ".17g") for v in val)
    return str(val)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit INI text that parses back to an equal ScenarioConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["scenario"] = {"mode": cfg.mode}
    for sec in ("params", "initial", "integration", "pulse", "grid",
                "seeds", "output"):
        data = getattr(cfg, sec)
        if data:
            cp[sec] = {k: _fmt(v) for k, v in data.items() if v is not None}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-friendly echo of the config (tuples become lists)."""
    out = {"mode": cfg.mode}
    for sec in ("params", "initial", "integration", "pulse", "grid",
                "seeds", "output"):
        data = getattr(cfg, sec)
        if data:
            out[sec] = {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in data.items() if v is not None}
    return out


# ---------------------------------------------------------------------------
# builders: validated config -> library objects

def build_system_params(cfg: ScenarioConfig) -> SystemParams:
    p = cfg.params
    return SystemParams(c0n=p["c0n"], c2n=p["c2n"], q=p["q"],
                        omega_p=p["omega_p"], omega_d=p["omega_d"],
                        big_delta_prime=p["big_delta_prime"],
                        small_delta=p["small_delta"], gamma=p["gamma"])


def build_coupling(cfg: ScenarioConfig) -> CouplingSummary:
    return effective_coupling(build_system_params(cfg))


def build_initial_state(cfg: ScenarioConfig,
                        resonant: bool) -> SpinorAmplitudes:
    ini = cfg.initial
    n_m = ini.get("n_m", 0.0) if resonant else 0.0
    total = ini["n_plus"] + ini["n_zero"] + ini["n_minus"] + 2.0 * n_m
    scale = 1.0 / total  # exact renormalization of the allowed 1e-9 slack
    return SpinorAmplitudes.from_populations(
        ini["n_plus"] * scale, ini["n_zero"] * scale, ini["n_minus"] * scale,
        n_m=n_m * scale, resonant=resonant,
        phase_plus=ini["phase_plus"], phase_zero=ini["phase_zero"],
        phase_minus=ini["phase_minus"], phase_m=ini["phase_m"])


def build_pendulum_state(cfg: ScenarioConfig) -> PendulumState:
    ini = cfg.initial
    return PendulumState(ini["theta"], ini["n_zero"], ini["m_mag"])


def build_integrator(cfg: ScenarioConfig) -> IntegratorConfig:
    integ = cfg.integration
    return IntegratorConfig(rel_tol=integ["rel_tol"],
                            abs_tol=integ["abs_tol"])


def build_pulse(cfg: ScenarioConfig) -> PulseSchedule:
    pl = cfg.pulse
    return make_schedule(pl["omega_p"], pl["omega_d0"], pl["t_zero"],
                         small_delta=cfg.params["small_delta"],
                         c2n=cfg.params["c2n"],
                         theta_variant=pl["theta_variant"],
                         theta_fixed=pl.get("theta_fixed"))


def build_seed_spec(cfg: ScenarioConfig) -> SeedSpec:
    sd = cfg.seeds
    return SeedSpec(mode=sd["mode"], classical_n=sd["classical_n"],
                    atom_number_N=sd["atom_number"],
                    rng_seed=int(sd["rng_seed"]))


def landscape_cases(cfg: ScenarioConfig) -> list[tuple[float, str, LandscapeParams]]:
    """One LandscapeParams per (coupling multiple, shift setting) pair.

    shifts 'on' derives the light shifts from the two-channel ladder tied to
    the drive strength W = c_eff - c2n (delta-shift 10 W, pump-shift W / 10);
    'off' zeroes them; 'both' yields the on and off case for each coupling.
    """
    g = cfg.grid
    c2 = cfg.params["c2n"]
    shift_settings = ("on", "off") if g["shifts"] == "both" else (g["shifts"],)
    cases = []
    for mult in g["c_eff_over_c2"]:
        c_eff = mult * c2
        w = c_eff - c2
        for setting in shift_settings:
            delta, p = ladder_lightshifts(w) if setting == "on" else (0.0, 0.0)
            cases.append((mult, setting, LandscapeParams(
                c_eff=c_eff, c2n=c2, q=cfg.params["q"], m_mag=g["m_mag"],
                lightshift_delta=delta, lightshift_p=p)))
    return cases


def build_grid_spec(cfg: ScenarioConfig) -> GridSpec:
    g = cfg.grid
    return GridSpec(theta_range=(g["theta_min"], g["theta_max"]),
                    n0_range=(g["n0_min"], g["n0_max"]),
                    resolution=(g["n_theta"], g["n_n0"]))
