"""Command-line front end: `lcse run | presets | validate`.

Dispatches validated scenario configs to the library, writes plot-ready CSV
and JSON artifacts at 17 significant digits, and emits a manifest for every
run. Exit codes: 0 success, 2 config problem, 3 domain violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, build, config_to_dict, parse_config
from .core import classify_regime
from .cpt import run_transfer
from .dynamics import integrate
from .errors import ConfigError, DomainError, InvalidInputError, NumericalError
from .landscape import contour_portrait, energy_grid
from .presets import load_preset, preset_description, preset_names
from .stochastic import run_ensemble

_NOTES = [
    "time axis is scaled: tau = c0n * t",
    "populations are fractions of total atom number; molecules count twice",
    "couplings, detunings and q are in units of c0n",
]

# quality bounds for pulsed-transfer runs, fixed from the zero-loss-free
# baseline sweep at the standard pulse (seeds 1e-6 .. 1e-2, span [0, 150]):
# capture of a non-dark start costs ~5% of atoms at the pulse peak, after
# which the trapped state keeps the molecular fraction below 5e-3
_TRANSFER_NOTES = [
    "transfer bounds: surviving-atom transfer fraction >= 0.8, "
    "|n_plus - n_minus| < 1e-6, peak n_m < 0.12 during capture, "
    "n_m < 5e-3 for tau >= 30",
]


_CSV_BLOCK_ROWS = 1024


def _format_block(block: np.ndarray) -> str:
    """The rows of block with each value as "%.17g". When fewer than half
    of its cells hold distinct float64 bit patterns (an energy grid: one
    theta axis, few n0 values, E even in theta), each distinct pattern is
    formatted once and the rows are joined from those strings; -0.0 and
    0.0, and NaNs of different payload, stay apart as patterns."""
    bits = block.view(np.int64).ravel()
    srt = np.sort(bits)
    if 2 * (1 + np.count_nonzero(srt[1:] != srt[:-1])) >= bits.size:
        row = ",".join(["%.17g"] * block.shape[1]) + "\n"
        return row * len(block) % tuple(block.ravel().tolist())
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = "%.17g," * distinct.size % tuple(distinct.view(float).tolist())
    strs = np.array(text.split(",")[:-1], dtype=object)
    row = ",".join(["%s"] * block.shape[1]) + "\n"
    return row * len(block) % tuple(strs[inverse].tolist())


def _write_csv(path: Path, comments: list[str], columns: dict) -> None:
    """Comments, a header of the column names, then one row per index with
    each value as format(float(x), ".17g"), formatted a block at a time."""
    table = np.column_stack([np.asarray(c, dtype=float)
                             for c in columns.values()])
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write(_format_block(table[start:start + _CSV_BLOCK_ROWS]))


def _columns_line(columns: dict) -> str:
    return "columns: " + ", ".join(columns)


def _plain(obj):
    """obj as JSON data: numpy values as Python ones, and a NaN or an
    infinity as None, which strict JSON parsers accept as null."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _drift(traj) -> dict:
    n = traj.monitors["total_n"]
    m = traj.monitors["magnetization"]
    out = {"max_total_n_drift": float(np.abs(n - n[0]).max()),
           "max_magnetization_drift": float(np.abs(m - m[0]).max())}
    if "energy" in traj.monitors:
        e = traj.monitors["energy"]
        out["max_energy_drift"] = float(np.abs(e - e[0]).max())
    return out


def _run_effective(initial, kw: dict, out: Path) -> tuple[list[str], dict]:
    params, coupling = kw["params"], kw["coupling"]
    traj = integrate("effective", initial, **kw)
    pops = traj.populations()
    columns = {"tau": traj.times, "n_plus": pops[0], "n_zero": pops[1],
               "n_minus": pops[2], "theta": traj.theta(),
               "total_n": traj.monitors["total_n"],
               "magnetization": traj.monitors["magnetization"],
               "energy": traj.monitors["energy"]}
    _write_csv(out / "trajectory.csv",
               ["off-resonant three-mode run", _columns_line(columns)],
               columns)
    derived = {
        "omega_eff": coupling.omega_eff, "c_eff": coupling.c_eff,
        "lightshift_delta": coupling.lightshift_delta,
        "lightshift_p": coupling.lightshift_p,
        "regime": classify_regime(coupling.c_eff, params.c2n).value,
    }
    return ["trajectory.csv"], {"conservation": _drift(traj),
                                "derived": derived}


def _run_pendulum(initial, kw: dict, out: Path) -> tuple[list[str], dict]:
    params, coupling = kw["params"], kw["coupling"]
    traj = integrate("pendulum", initial, **kw)
    columns = {"tau": traj.times, "theta": traj.values[0],
               "n_zero": traj.values[1], "energy": traj.monitors["energy"]}
    _write_csv(out / "trajectory.csv",
               ["reduced (theta, n0) pendulum run at fixed magnetization "
                f"m = {initial.m_mag!r}", _columns_line(columns)],
               columns)
    derived = {"c_eff": coupling.c_eff,
               "regime": classify_regime(coupling.c_eff, params.c2n).value}
    return ["trajectory.csv"], {"conservation": _drift(traj),
                                "derived": derived}


def _run_resonant(cfg: ScenarioConfig, initial, kw: dict, out: Path,
                  variant: str) -> tuple[list[str], dict]:
    pulse, span = kw["pulse"], kw["tau_span"]
    if cfg.mode == "cpt":
        result = run_transfer(initial, **kw, variant=variant)
        traj = result.trajectory
    else:
        traj = integrate("resonant", initial, **kw, variant=variant)
        result = None
    pops = traj.populations()
    _, omega_d, theta_big = pulse.drive(traj.times)
    _write_csv(out / "trajectory.csv",
               ["resonant four-mode run (molecular mode explicit)",
                "columns: tau, n_plus, n_zero, n_minus, n_m, theta_big "
                "(two-photon detuning), omega_d (dump Rabi)"],
               {"tau": traj.times, "n_plus": pops[0], "n_zero": pops[1],
                "n_minus": pops[2], "n_m": pops[3],
                "theta_big": theta_big, "omega_d": omega_d})
    outputs = ["trajectory.csv"]
    extra = {"conservation": _drift(traj),
             "derived": {"pulse": dict(pulse.meta), "variant": variant}}
    if result is not None:
        payload = result.to_dict()
        payload["tau_span"] = list(span)
        payload["variant"] = variant
        _write_json(out / "transfer.json", payload)
        outputs.append("transfer.json")
    return outputs, extra


def _run_landscape(cfg: ScenarioConfig, starts, kw: dict,
                   out: Path) -> tuple[list[str], dict]:
    gridspec, cases = kw["grid"], kw["cases"]
    mults = list(dict.fromkeys(mult for mult, _s, _lp in cases))
    single = len(mults) == 1
    outputs: list[str] = []
    counts_echo = {}
    for k, mult in enumerate(mults, start=1):
        doc: dict = {"c_eff_over_c2": mult, "q": cfg.params["q"],
                     "m_mag": cfg.grid["m_mag"]}
        grids = {}
        for m2, setting, lp in cases:
            if m2 != mult:
                continue
            summary = contour_portrait(lp, gridspec, starts)
            doc[f"shifts_{setting}"] = {
                "c_eff": lp.c_eff,
                "lightshift_delta": lp.lightshift_delta,
                "lightshift_p": lp.lightshift_p,
                **summary.to_dict(),
            }
            grids[setting] = energy_grid(lp, gridspec)
            counts_echo[f"{format(mult, '.17g')}/{setting}"] = summary.counts
        jname = "portrait.json" if single else f"portrait_{k}.json"
        _write_json(out / jname, doc)
        outputs.append(jname)

        settings = sorted(grids)
        eg0 = grids[settings[0]]
        theta, n_zero = np.meshgrid(eg0.theta, eg0.n_zero)  # n0 outer
        columns = {"theta": theta.ravel(), "n_zero": n_zero.ravel()}
        for s in settings:
            suffix = f"_shifts_{s}" if len(settings) > 1 else ""
            eg = grids[s]
            columns["energy" + suffix] = np.where(eg.mask, 0.0,
                                                  eg.values).ravel()
            columns["mask" + suffix] = eg.mask.ravel()
        cname = "energy_grid.csv" if single else f"energy_grid_{k}.csv"
        _write_csv(out / cname,
                   ["energy surface over (theta, n0)",
                    _columns_line(columns) + "; mask 1 marks cells outside "
                    "(1-n0)^2 >= m^2 (energy written as 0 there)"],
                   columns)
        outputs.append(cname)
    return outputs, {"derived": {"counts": counts_echo}}


def _run_ensemble(cfg: ScenarioConfig, spec, kw: dict, out: Path,
                  variant: str) -> tuple[list[str], dict]:
    # a kind = cpt member is a resonant transfer
    stats = run_ensemble(spec, int(cfg.seeds["runs"]),
                         "resonant" if cfg.pulse else "effective", **kw,
                         variant=variant)
    finals = stats.final_populations
    columns = {"run": np.arange(stats.runs),
               "seed_plus_re": stats.seed_plus.real,
               "seed_plus_im": stats.seed_plus.imag,
               "seed_minus_re": stats.seed_minus.real,
               "seed_minus_im": stats.seed_minus.imag,
               "n_plus_final": finals[0], "n_zero_final": finals[1],
               "n_minus_final": finals[2], "n_m_final": finals[3],
               "final_side": stats.final_side, "tau_onset": stats.tau_onset}
    _write_csv(out / "ensemble.csv",
               [f"{spec.mode} ensemble, kind = {cfg.seeds['kind']}, "
                f"rng_seed = {spec.rng_seed}", _columns_line(columns),
                "tau_onset = first sampled tau with n_plus + n_minus > 0.1 "
                "(nan if never)"],
               columns)
    _write_json(out / "ensemble_stats.json", stats.to_dict())
    derived = {"stats": stats.to_dict()}
    if cfg.pulse:
        derived["variant"] = variant
    return ["ensemble.csv", "ensemble_stats.json"], {"derived": derived}


def _dispatch(cfg: ScenarioConfig, start, kw: dict, out: Path,
              variant: str) -> dict:
    t0 = time.perf_counter()
    if cfg.mode == "effective":
        outputs, extra = _run_effective(start, kw, out)
    elif cfg.mode == "pendulum":
        outputs, extra = _run_pendulum(start, kw, out)
    elif cfg.mode in ("resonant", "cpt"):
        outputs, extra = _run_resonant(cfg, start, kw, out, variant)
    elif cfg.mode == "landscape":
        outputs, extra = _run_landscape(cfg, start, kw, out)
    else:
        outputs, extra = _run_ensemble(cfg, start, kw, out, variant)
    notes = list(_NOTES)
    if cfg.mode in ("cpt", "ensemble") and cfg.pulse:  # transfer runs
        notes += _TRANSFER_NOTES
    manifest = {
        "config": config_to_dict(cfg),
        "library_version": __version__,
        "wall_clock_seconds": time.perf_counter() - t0,
        "outputs": outputs,
        "notes": notes,
    }
    manifest.update(extra)
    _write_json(out / "manifest.json", manifest)
    return manifest


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parse_args leaves
    it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="lcse",
        description="laser-catalyzed spin-exchange simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to an INI scenario file")
    src.add_argument("--preset", help="name of a built-in scenario")
    p_run.add_argument("--out", help="output directory (default: config "
                       "[output] dir or the working directory)")
    p_run.add_argument("--seed", type=int,
                       help="override the ensemble rng_seed")
    p_run.add_argument("--variant", choices=["literal", "symmetrized"],
                       default="symmetrized",
                       help="resonant equation variant")

    sub.add_parser("presets", help="list built-in scenarios")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _execute(args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy refuses an array that cannot fit (a huge `samples` or
        # `runs`) at once, with its size in the message
        print(f"invalid input: {exc or 'out of memory'}", file=sys.stderr)
        return 2


def _read_config(path: str) -> ScenarioConfig:
    """Parse the UTF-8 INI file at path; a file that cannot be read or
    decoded is invalid input, not a traceback."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path!r}: "
                                f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"config file {path!r} is not UTF-8 text: "
                                f"{exc.reason} at byte {exc.start}") from None
    return parse_config(text)


def _execute(args) -> int:
    if args.command == "presets":
        for name in preset_names():
            print(f"{name:16s} {preset_description(name)}")
        return 0

    if args.command == "validate":
        cfg = _read_config(args.config)
        build(cfg)
        print(f"OK: mode = {cfg.mode}")
        return 0

    if args.preset:
        cfg = load_preset(args.preset)
    else:
        cfg = _read_config(args.config)
    if args.seed is not None:
        if cfg.mode != "ensemble":
            raise InvalidInputError("--seed only applies to ensemble runs")
        cfg.seeds["rng_seed"] = int(args.seed)
    if args.variant != "symmetrized" and not cfg.pulse:
        raise InvalidInputError("--variant only applies to resonant, cpt "
                                "and kind = cpt ensemble runs")
    start, kw = build(cfg)

    out = Path(args.out) if args.out else Path(cfg.output.get("dir", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError("cannot create output directory "
                                f"{str(out)!r}: {exc.strerror}") from None
    manifest = _dispatch(cfg, start, kw, out, args.variant)
    print(f"wrote {', '.join(manifest['outputs'])} and manifest.json "
          f"to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
