"""Scenario configs: strict INI schema, validation, (de)serialization.

One flat `key = value` file per run. The schema is strict in both directions:
unknown keys, and keys or sections that the selected mode does not read, are
rejected, so a typo cannot silently fall back to a default and a key cannot
be silently ignored. parse_config collects every problem it can find and
reports them all at once.

build() turns a validated ScenarioConfig into the library objects its mode
runs with, so one module knows the modes: _READS for the keys each reads,
build for the objects it makes of them.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, field

from .constants import RB87_C2_OVER_C0
from .core import (SpinorAmplitudes, SystemParams, effective_coupling,
                   ladder_lightshifts)
from .cpt import THETA_VARIANTS, PulseSchedule
from .dynamics import IntegratorConfig, PendulumState, require_interior
from .errors import ConfigError, InvalidInputError
from .landscape import GridSpec, LandscapeParams, default_start_grid
from .stochastic import SEED_MODES, SeedSpec

MODES = ("effective", "pendulum", "resonant", "landscape", "cpt", "ensemble")

_REQ = object()  # sentinel: no default

# section -> key -> (type, default); type is float/int/str or a tuple of
# allowed strings; "floats" parses a comma-separated list
_SCHEMA = {
    "scenario": {"mode": (MODES, _REQ)},
    "params": {
        "c2n": (float, RB87_C2_OVER_C0),
        "q": (float, 0.0),
        "omega_p": (float, _REQ),
        "omega_d": (float, _REQ),
        "big_delta_prime": (float, _REQ),
        "small_delta": (float, _REQ),
        "gamma": (float, _REQ),
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
        # read by nothing; accepted, without a default, only because the
        # benchmark's portraits inputs still set it
        "tau_max": (float, None),
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

# the keys each mode reads, by section; a trailing '*' marks a required one.
# An ensemble of kind k is the reader 'ensemble/k': [seeds], [integration]
# and [output], plus the [params] and [pulse] keys of mode k.
_INTEGRATION = "rel_tol abs_tol tau_start* tau_end* samples"
_AMPLITUDES = "n_plus* n_zero* n_minus* phase_plus phase_zero phase_minus"
_OFF_RESONANT = {"params": "c2n q* omega_p* omega_d* big_delta_prime*"}
_RESONANT = {"params": "c2n small_delta* gamma*",
             "pulse": "omega_p* omega_d0* t_zero* theta_variant theta_fixed"}
_ENSEMBLE = {"seeds": "mode* kind classical_n atom_number rng_seed* runs*",
             "integration": _INTEGRATION, "output": "dir"}
_READS = {
    "effective": {**_OFF_RESONANT, "initial": _AMPLITUDES,
                  "integration": _INTEGRATION, "output": "dir"},
    "pendulum": {**_OFF_RESONANT, "initial": "n_zero* theta* m_mag",
                 "integration": _INTEGRATION, "output": "dir"},
    "resonant": {**_RESONANT, "initial": _AMPLITUDES + " n_m phase_m",
                 "integration": _INTEGRATION, "output": "dir"},
    "landscape": {
        "params": "c2n q",
        "grid": "theta_min theta_max n0_min n0_max n_theta n_n0 "
                "c_eff_over_c2* shifts* tau_max m_mag "
                "starts_n_theta starts_n_n0 starts_n0_min starts_n0_max",
        "output": "dir"},
    "ensemble/cpt": {**_RESONANT, **_ENSEMBLE},
    "ensemble/effective": {**_OFF_RESONANT, **_ENSEMBLE},
}
_READS["cpt"] = _READS["resonant"]
# reader -> section -> key -> required, expanded once; [scenario] mode is
# read by every mode
_TABLE = {reader: {sec: {k.rstrip("*"): k.endswith("*") for k in keys.split()}
                   for sec, keys in {"scenario": "mode*", **reads}.items()}
          for reader, reads in _READS.items()}
_SECTIONS = tuple(sec for sec in _SCHEMA if sec != "scenario")


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
    kind = cp.get("seeds", "kind", fallback="cpt")
    reader = f"ensemble/{kind}" if mode == "ensemble" else mode
    # None for an invalid mode or kind, which [scenario] or [seeds] reports
    reads = _TABLE.get(reader) if mode in MODES else None

    sections = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            problems.append(f"unknown section [{sec}]")
            continue
        if reads is not None and sec not in reads:
            problems.append(f"section [{sec}] is not used by mode '{reader}'")
            continue
        vals = {}
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                problems.append(f"unknown key '{key}' in [{sec}]")
            elif reads is not None and key not in reads[sec]:
                problems.append(
                    f"key '{key}' in [{sec}] is not used by mode '{reader}'")
            elif (val := _convert(sec, key, raw, problems)) is not None:
                vals[key] = val
        sections[sec] = vals

    if reads is not None:
        for sec, keys in reads.items():
            # a key that is present with a bad value is reported as such
            for key, required in keys.items():
                if required and not cp.has_option(sec, key):
                    problems.append(f"missing required key '{key}' in "
                                    f"[{sec}] for mode '{mode}'")
        sections = {sec: {**{k: _SCHEMA[sec][k][1] for k in keys
                             if _SCHEMA[sec][k][1] is not _REQ},
                          **sections.get(sec, {})}
                    for sec, keys in reads.items() if sec != "scenario"}

    _cross_validate(sections, problems)
    if problems:
        raise ConfigError(problems)

    cfg = ScenarioConfig(mode=mode)
    for sec in sections:
        getattr(cfg, sec).update(sections[sec])
    return cfg


def _cross_validate(sections: dict, problems: list):
    ini = sections.get("initial", {})
    if all(k in ini for k in ("n_plus", "n_zero", "n_minus")):
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
    fixed = pulse.get("theta_variant", "coherence") == "fixed"
    if fixed and pulse.get("theta_fixed") is None:
        problems.append("[pulse] theta_variant 'fixed' needs theta_fixed")
    if not fixed and pulse.get("theta_fixed") is not None:
        problems.append("[pulse] theta_fixed needs theta_variant 'fixed'")
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
    for sec in _SECTIONS:
        data = getattr(cfg, sec)
        if data:
            cp[sec] = {k: _fmt(v) for k, v in data.items() if v is not None}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-friendly echo of the config (tuples become lists)."""
    out = {"mode": cfg.mode}
    for sec in _SECTIONS:
        data = getattr(cfg, sec)
        if data:
            out[sec] = {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in data.items() if v is not None}
    return out


# ---------------------------------------------------------------------------
# the objects each mode runs with

# bytes a run's arrays hold at least: per sample its tau and its state
# (16 per complex amplitude, 8 per pendulum coordinate; an ensemble keeps
# only the tau grid), and per ensemble run its two seeds, four final
# populations, side, onset and onset sample index
_SAMPLE_BYTES = {"effective": 8 + 3 * 16, "pendulum": 8 + 2 * 8,
                 "resonant": 8 + 4 * 16, "cpt": 8 + 4 * 16, "ensemble": 8}
_RUN_BYTES = 2 * 16 + 4 * 8 + 3 * 8
# a landscape counts the CSV table it writes, per grid cell its theta, n0
# and an energy and a mask per shift setting, as float64: the run writes it
# a block of n0 rows at a time, so its heap holds one block and the term
# bounds the table, not the heap. A start is a PendulumState in a list,
# 152 bytes on CPython 3.11 (tracemalloc over default_start_grid)
_START_BYTES = 152


def _size(nbytes: int) -> str:
    """nbytes in binary units to three significant digits (72.8 TiB); a
    count beyond float range reads inf EiB."""
    k = min(max(0, (nbytes.bit_length() - 1) // 10), 6)
    unit = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")[k]
    try:
        return f"{nbytes / 1024 ** k:.3g} {unit}"
    except OverflowError:
        return f"inf {unit}"


def _require_memory(cfg: ScenarioConfig) -> None:
    """Refuse a run whose arrays (and a landscape's start states) alone
    exceed the machine's physical memory, before anything is allocated:
    numpy would grant them, and the run would swap or be killed instead of
    failing."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not a POSIX system
        return
    held = "arrays"
    if cfg.mode == "landscape":
        g = cfg.grid
        n_th, n_n0 = g["n_theta"], g["n_n0"]
        s_th, s_n0 = g["starts_n_theta"], g["starts_n_n0"]
        columns = 2 + 2 * (2 if g["shifts"] == "both" else 1)
        # a negative count is refused by its constructor, not here
        need = (max(0, n_th) * max(0, n_n0) * columns * 8
                + max(0, s_th) * max(0, s_n0) * _START_BYTES)
        what = (f"[grid] n_theta = {n_th}, n_n0 = {n_n0}, starts_n_theta = "
                f"{s_th} and starts_n_n0 = {s_n0} need")
        held = "arrays and start states"
    else:
        samples = cfg.integration["samples"]
        need = samples * _SAMPLE_BYTES[cfg.mode]
        what = f"[integration] samples = {samples} needs"
        if cfg.mode == "ensemble":
            need += cfg.seeds["runs"] * _RUN_BYTES
            what = (f"[integration] samples = {samples} and [seeds] runs = "
                    f"{cfg.seeds['runs']} need")
    if need > have:
        raise InvalidInputError(f"{what} at least {_size(need)} of {held}, "
                                f"more than the {_size(have)} of physical "
                                "memory")


def build(cfg: ScenarioConfig) -> tuple[object, dict]:
    """What a run of cfg starts from, and the arguments it runs with: named
    as integrate's, or for landscape its GridSpec and its cases, grouped
    as {coupling multiple: {shift setting: LandscapeParams}} (a repeated
    multiple is one group); shifts 'on' takes the drive ladder's light
    shifts at W = c_eff - c2n, and 'both' gives an 'on' and an 'off'
    case. The constructors hold the range
    checks, in a fixed order, so `validate` refuses first what `run`
    refuses first, before integrating."""
    _require_memory(cfg)
    par, integ, ini = cfg.params, cfg.integration, cfg.initial
    if cfg.mode == "landscape":
        g = cfg.grid
        starts = default_start_grid(g["starts_n_theta"], g["starts_n_n0"],
                                    g["starts_n0_min"], g["starts_n0_max"],
                                    g["m_mag"])
        grid = GridSpec(theta_range=(g["theta_min"], g["theta_max"]),
                        n0_range=(g["n0_min"], g["n0_max"]),
                        resolution=(g["n_theta"], g["n_n0"]))
        settings = ("on", "off") if g["shifts"] == "both" else (g["shifts"],)
        cases = {}
        for mult in g["c_eff_over_c2"]:
            c_eff = mult * par["c2n"]
            cases[mult] = {setting: LandscapeParams(
                c_eff, par["c2n"], par["q"], g["m_mag"],
                *(ladder_lightshifts(c_eff - par["c2n"]) if setting == "on"
                  else (0.0, 0.0))) for setting in settings}
        return starts, {"grid": grid, "cases": cases}
    # keys the mode does not read keep SystemParams' defaults
    params = SystemParams(**par)
    kw = {"params": params,
          "tau_span": (integ["tau_start"], integ["tau_end"])}
    if cfg.pulse:  # the resonant family
        kw["pulse"] = PulseSchedule(**cfg.pulse, c2n=par["c2n"],
                                    small_delta=par["small_delta"])
    else:
        kw["coupling"] = effective_coupling(params)
    if cfg.mode == "pendulum":
        # a start on the domain boundary is refused here, as run refuses it
        start = PendulumState(ini["theta"], ini["n_zero"], ini["m_mag"])
        require_interior(start)
    elif cfg.mode == "ensemble":
        sd = cfg.seeds
        start = SeedSpec(mode=sd["mode"], classical_n=sd["classical_n"],
                         atom_number_N=sd["atom_number"],
                         rng_seed=int(sd["rng_seed"]))
    else:
        n_m = ini.get("n_m", 0.0)
        # exact renormalization of the allowed 1e-9 slack
        scale = 1.0 / (ini["n_plus"] + ini["n_zero"] + ini["n_minus"]
                       + 2.0 * n_m)
        start = SpinorAmplitudes.from_populations(
            ini["n_plus"] * scale, ini["n_zero"] * scale,
            ini["n_minus"] * scale, n_m=n_m * scale, resonant="n_m" in ini,
            phase_plus=ini["phase_plus"], phase_zero=ini["phase_zero"],
            phase_minus=ini["phase_minus"], phase_m=ini.get("phase_m", 0.0))
    kw.update(config=IntegratorConfig(rel_tol=integ["rel_tol"],
                                      abs_tol=integ["abs_tol"]),
              sampling=integ["samples"])
    return start, kw
