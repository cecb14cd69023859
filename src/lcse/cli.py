"""Command-line front end: `lcse run | presets | validate`.

Dispatches validated scenario configs to the library, writes plot-ready CSV
and JSON artifacts at 17 significant digits, and emits a manifest for every
run. Exit codes: 0 success, 2 config problem, 3 domain violation,
4 numerical failure.

Every CSV cell is format(x, ".17g"), byte for byte, formatted in numpy by
one formatter (_slots) and written by one emitter (_emit): fixed-notation
cells are rounded exactly, 0 and -0 are laid out directly, and only NaN,
the infinities and exponent-notation cells go through Python's "%.17g".
_slots lays out every cell one way: byte 0 left for the separator, byte 1
the sign or NUL, the text from byte 2 on (a "%.17g" text, which carries
its sign, from byte 1), NUL-padded to the fewest 8-byte words that hold
the longest text formatted with it: at most three for fixed notation,
four only for a 24-character exponent text. _emit writes rows of such
columns and drops the NUL padding. Tables are written 512 rows at a time
(_write_csv). An energy grid is written from its two axes a block of n0
rows at a time (_write_grid): the theta, n0 and mask columns are
formatted once per landscape run and only the energies per block, so its
heap is bounded by one block, not by the grid.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ScenarioConfig, _size, build, config_to_dict,
                     parse_config)
from .core import classify_regime
from .cpt import run_transfer
from .dynamics import integrate
from .errors import ConfigError, DomainError, InvalidInputError, NumericalError
from .landscape import contour_portrait, energy_block
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


# _write_csv's blocks (trajectories and ensembles): on a 1001 x 8 table of
# three-word cells, 256-, 512- and 1024-row blocks peak at 0.31, 0.54 and
# 0.86 MB of heap, against the 0.62 MB that "%.17g" held; 512 and 1024
# rows write it in medians of 1.9-2.5 ms, inside each other's quartiles,
# 256 rows in 2.4-3.0 ms (three sets of 20-40 alternating runs, 2 vCPUs),
# so 512 rows is the fastest size below "%.17g"'s peak.
_CSV_BLOCK_ROWS = 512
# grid cells in one of _write_grid's blocks, which it cuts inside an n0 row
# only where a row holds more. Writing the four fig3 grids (181 x 101,
# shifts both, 14-word rows) took medians of 56-64 ms in both 2048-cell
# (11 n0 rows) and 4096-cell blocks, each inside the other's quartiles,
# and 72-83 ms in 1024-cell ones (three sets of 20-40 alternating runs,
# 2-vCPU VM). The heap peak doubles with the block (0.30, 0.65 and
# 1.28 MB; one grid's whole table took 1.3 MB through _write_csv), so it
# stays at 2048 cells.
_GRID_BLOCK_CELLS = 2048

# Exact "%.17g" in numpy for 1e-5 <= |x| < 1e17. The powers of ten up to
# 10**22 are exact doubles; Veltkamp's splitter halves each into 26-bit
# parts, so that Dekker's product a * 10**j = p + e is exact.
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10 ** j) for j in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(texts: list[bytes]) -> np.ndarray:
    """(3, len(texts)): each text from byte 2 on, NUL-padded to 24 bytes,
    as three little-endian 64-bit words; byte 0 is the lowest byte of the
    first word."""
    return np.frombuffer(b"".join(b"\0\0" + t.ljust(22, b"\0")
                                  for t in texts), "<u8").reshape(-1, 3).T


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per i < 10**4: its four ASCII digits in one word (the first in the
    lowest byte), and how many of them are trailing zeros. Built on first
    use, so `validate`, `presets` and a library import do not build
    them."""
    rest = np.arange(10 ** 4, dtype=np.int64)
    digits = np.zeros(rest.size, np.uint64)
    zeros = np.zeros(rest.size, np.uint8)
    tail = np.ones(rest.size, bool)  # every digit so far is 0
    for j in range(3, -1, -1):  # the last digit first
        rest, digit = np.divmod(rest, 10)
        tail &= digit == 0
        zeros += tail
        digit += ord("0")
        digits |= digit.view(np.uint64) << np.uint64(8 * j)
    return digits, zeros


# Indexed by k + 4 for a decimal exponent k in -4 .. 16: the bytes of the
# 17-digit string that precede the point, the point itself ("0.000" for
# k < 0: OR-ing "0" into a digit leaves it unchanged), and the bits the
# digits after the point move right to make room.
_EXPONENTS = range(-4, 17)
_INT_MASK = _words([b"\xff" * max(0, k + 1) for k in _EXPONENTS])
_POINT = _words([b"0.000" if k < 0 else b"\0" * (k + 1) + b"."
                 for k in _EXPONENTS])
_FRAC_SHIFT = np.array([8 * max(1, 1 - k) for k in _EXPONENTS], np.uint64)
# the first n bytes of a text, n = 0 .. 22 (the longest)
_KEEP = _words([b"\xff" * n for n in range(23)])
_ZERO = _words([b"0"])
_U1, _U8, _U32, _U63 = map(np.uint64, (1, 8, 32, 63))
_MINUS = np.uint64(ord("-") << 8)
_NEWLINE, _COMMA = np.uint64(ord("\n")), np.uint64(ord(","))


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**(16 - k) rounded to an integer, ties to even, exactly: the
    product is p + e (Dekker), p >= 2**53 is an even integer wherever the
    result has 17 digits, so p + rint(e) rounds p + e."""
    j = 16 - k
    b_hi, b_lo = _POW10_HI[j], _POW10_LO[j]
    p = a * _POW10[j]
    del j
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # e = a_lo b_lo - (((p - a_hi b_hi) - a_lo b_hi) - a_hi b_lo), in place
    err = p - a_hi * b_hi
    err -= a_lo * b_hi
    err -= a_hi * b_lo
    del a_hi, b_hi
    e = np.multiply(a_lo, b_lo, out=a_lo)
    e -= err
    del err
    d = p.astype(np.int64)
    d += np.rint(e, out=e).astype(np.int64)
    return d


def _round17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, d) with d in [1e16, 1e17) and d * 10**(k - 16) equal to a
    rounded to 17 significant digits, for 1e-5 <= a < 1e17."""
    k = np.log10(a)
    k = np.floor(k, out=k).astype(np.int64)
    np.minimum(k, 16, out=k)  # log10 may round up to 17 just below 1e17
    d = _scaled(a, k)
    # log10 can miss the decade by one next to a power of ten, and the
    # rounding can carry into the next one (9.99999999999999999e-5 gives
    # 1.0000000000000000e-4); one step either way corrects both
    off = np.flatnonzero((d - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16)
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _scaled(a[off], k[off])
    return k, d


def _ascii8(value: np.ndarray, out: np.ndarray) -> None:
    """The eight decimal digits of each value < 10**8, as ASCII in one
    little-endian word (the leading digit in the lowest byte)."""
    digits4 = _digit_tables()[0]
    q = value // 10 ** 4
    r = q * 10 ** 4
    np.subtract(value, r, out=r)
    np.take(digits4, q, out=out)
    del q
    r = digits4[r]
    r <<= _U32
    out |= r


def _fixed_words(k: np.ndarray, d: np.ndarray) -> tuple:
    """(3, n) little-endian words holding each cell's fixed-notation text
    without its sign from byte 2 on, NUL-padded: the 17 digits of d with
    the point after digit k (k >= 0) or "0." and -k-1 zeros in front
    (-4 <= k < 0), and the trailing zeros after the point dropped; and
    each text's length."""
    digits = np.empty((3, d.size), np.uint64)
    high = d // 10 ** 11  # digits 0-5
    rest = high * 10 ** 11
    np.subtract(d, rest, out=rest)  # digits 6-16
    _ascii8(high, digits[0])
    del high
    digits[0] ^= np.uint64(0x3030)  # high < 10**6: "00" out of bytes 0-1
    middle = rest // 10 ** 3  # digits 6-13
    last = middle * 10 ** 3
    np.subtract(rest, last, out=last)  # digits 14-16
    del rest
    _ascii8(middle, digits[1])
    del middle
    np.take(_digit_tables()[0], last, out=digits[2])  # "0", digits 14-16
    del last
    digits[2] >>= _U8
    zeros = np.zeros(d.size, np.uint8)  # trailing zero digits of d
    # digit 16, byte 2 of the last word, is "0" (the bytes above are NUL)
    idx = np.flatnonzero(digits[2] < np.uint64(ord("1") << 16))
    rest = d[idx]
    while idx.size:
        upper = rest // 10 ** 4
        group = rest - upper * 10 ** 4
        zeros[idx] += _digit_tables()[1][group]
        more = group == 0
        idx, rest = idx[more], upper[more]
    col = k + 4
    text = _INT_MASK.take(col, axis=1)
    text &= digits
    digits ^= text  # the digits after the point
    text |= _POINT.take(col, axis=1)
    bits = _FRAC_SHIFT.take(col)
    del col
    carry = digits[:-1] >> _U1
    carry >>= _U63 - bits
    digits <<= bits
    del bits
    digits[1:] |= carry
    del carry
    text |= digits
    del digits
    sig = 17 - zeros.astype(np.int64)
    del zeros
    length = np.where(k >= 0, np.maximum(k + 1, sig) + (sig > k + 1),
                      1 - k + sig)
    del sig
    text &= _KEEP.take(length, axis=1)
    return text, length


def _slots(x: np.ndarray) -> np.ndarray:
    """(x.size, w) little-endian words, each value's "%.17g" text in the
    fewest words w that hold the longest: byte 0 left for _emit's
    separator, byte 1 the sign or NUL, the text NUL-padded from byte 2
    on. A fixed-notation cell (1e-4 <= |x| < 1e17 once rounded) is laid
    out from its exact 17-digit integer, and 0 and -0 as "0" with their
    sign, in at most three words; NaN, the infinities and exponent-notation
    cells go through Python's "%.17g", whose text carries its sign and
    starts at byte 1 (a 24-character one takes a fourth word)."""
    a = np.abs(x)
    zero = a == 0
    fixed = (a >= 1e-5) & (a < 1e17)
    a[~fixed] = 1.0
    k, d = _round17(a)
    del a
    fixed &= k >= -4
    np.maximum(k, -4, out=k)
    text, length = _fixed_words(k, d)
    del k, d
    text[:, zero] = _ZERO
    fixed |= zero
    del zero
    text[0] |= (np.signbit(x) & fixed) * _MINUS
    # a fixed text starts a byte later than a "%.17g" one
    longest = length.max(initial=1, where=fixed) + 1
    slow = np.flatnonzero(~fixed)
    texts = [b"%.17g" % v for v in x[slow].tolist()] if slow.size else []
    w = max([longest, *map(len, texts)]) // 8 + 1
    slot = np.empty((x.size, w), "<u8")
    slot[:, :3] = text[:w].T
    del text
    slot[:, 3:] = 0
    if texts:
        slot.view(np.uint8)[slow, 1:] = np.frombuffer(
            b"".join(t.ljust(8 * w - 1, b"\0") for t in texts),
            np.uint8).reshape(-1, 8 * w - 1)
    return slot


def _emit(fh, rows: np.ndarray, widths: list[int]) -> None:
    """Write rows, a C-contiguous (n, sum(widths)) array of words, as CSV
    lines of columns widths[0], widths[1], ... words wide, each column's
    byte 0 left free for its separator: a "," before each cell but a row's
    first, a newline before each row but the first and after the last, and
    the NUL bytes dropped."""
    separators = np.zeros(rows.shape[1], np.uint64)
    separators[np.cumsum(widths[:-1], dtype=np.intp)] = _COMMA
    rows |= separators
    rows[1:, 0] |= _NEWLINE
    cells = rows.view(np.uint8).ravel()
    fh.write(cells[cells != 0])
    fh.write(b"\n")


def _write_head(fh, comments: list[str], names) -> None:
    for line in comments:
        fh.write(f"# {line}\n".encode())
    fh.write((",".join(names) + "\n").encode())


def _write_csv(path: Path, comments: list[str], columns: dict) -> None:
    """Comments, a header of the column names, then one row per index with
    each value as format(float(x), ".17g"), written a block at a time."""
    table = np.column_stack([np.asarray(c, dtype=float)
                             for c in columns.values()])
    with open(path, "wb") as fh:
        _write_head(fh, comments, columns)
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            cells = _slots(block.ravel())
            _emit(fh, cells.reshape(len(block), -1),
                  [cells.shape[1]] * table.shape[1])
            del cells  # not held while the next block is formatted


def _write_grid(path: Path, theta: np.ndarray, n_zero: np.ndarray,
                words: tuple, settings: dict) -> None:
    """The energy grid over the axes theta and n_zero, as _write_csv would
    write its table: a row per cell, n0 outer and theta inner, of theta, n0
    and per shift setting the energy (0 where masked) and the mask. It is
    written a block of n0 rows at a time, or a block of one row's cells
    where a row is wider than a block, straight from the axes: the theta,
    n0 and mask columns are copied from words, the _slots of theta, n_zero
    and [0, 1], and only the energies go through _slots, per block."""
    names, lps = ["theta", "n_zero"], []
    for s, lp in sorted(settings.items()):
        suffix = f"_shifts_{s}" if len(settings) > 1 else ""
        names += ["energy" + suffix, "mask" + suffix]
        lps.append(lp)
    theta_words, n0_words, mask_words = words
    rows = max(1, _GRID_BLOCK_CELLS // theta.size)
    width = min(theta.size, _GRID_BLOCK_CELLS)
    with open(path, "wb") as fh:
        _write_head(fh, ["energy surface over (theta, n0)",
                         _columns_line(names) + "; mask 1 marks cells "
                         "outside (1-n0)^2 >= m^2 (energy written as 0 "
                         "there)"], names)
        for i in range(0, n_zero.size, rows):
            n0 = n_zero[i:i + rows]
            for j in range(0, theta.size, width):
                th = theta[j:j + width]
                columns = [theta_words[j:j + width],
                           n0_words[i:i + rows, None]]
                for lp in lps:
                    energies, masked = energy_block(lp, th, n0, 0.0)
                    columns += [_slots(energies.ravel()).reshape(
                                    n0.size, th.size, -1),
                                mask_words[masked.astype(np.intp)][:, None]]
                widths = [c.shape[-1] for c in columns]
                edges = np.cumsum([0] + widths).tolist()
                block = np.empty((n0.size, th.size, edges[-1]), "<u8")
                for c, col in enumerate(columns):
                    block[:, :, edges[c]:edges[c + 1]] = col
                del columns  # not held while the next block is formatted
                _emit(fh, block.reshape(-1, edges[-1]), widths)


def _columns_line(columns) -> str:
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


def _run_off_resonant(cfg: ScenarioConfig, initial, kw: dict,
                      out: Path) -> tuple[list[str], dict]:
    params, coupling = kw["params"], kw["coupling"]
    traj = integrate(cfg.mode, initial, **kw)
    derived = {"c_eff": coupling.c_eff,
               "regime": classify_regime(coupling.c_eff, params.c2n).value}
    if cfg.mode == "pendulum":
        comment = ("reduced (theta, n0) pendulum run at fixed magnetization "
                   f"m = {initial.m_mag!r}")
        columns = {"tau": traj.times, "theta": traj.values[0],
                   "n_zero": traj.values[1]}
    else:
        comment = "off-resonant three-mode run"
        pops = traj.populations()
        columns = {"tau": traj.times, "n_plus": pops[0], "n_zero": pops[1],
                   "n_minus": pops[2], "theta": traj.theta(),
                   "total_n": traj.monitors["total_n"],
                   "magnetization": traj.monitors["magnetization"]}
        derived.update(omega_eff=coupling.omega_eff,
                       lightshift_delta=coupling.lightshift_delta,
                       lightshift_p=coupling.lightshift_p)
    columns["energy"] = traj.monitors["energy"]
    _write_csv(out / "trajectory.csv", [comment, _columns_line(columns)],
               columns)
    return ["trajectory.csv"], {"conservation": _drift(traj),
                                "derived": derived}


def _run_resonant(cfg: ScenarioConfig, initial, kw: dict,
                  out: Path) -> tuple[list[str], dict]:
    pulse, span, variant = kw["pulse"], kw["tau_span"], kw["variant"]
    if cfg.mode == "cpt":
        result = run_transfer(initial, **kw)
        traj = result.trajectory
    else:
        traj = integrate("resonant", initial, **kw)
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
    extra = {"conservation": _drift(traj), "derived": {"variant": variant}}
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
    # built before any file is written: an axis numpy refuses leaves none
    axes = gridspec.axes()
    # and so is this: a grid CSV cell takes at least a character and a
    # separator, so a run refused here could not have been written
    need = 2 * axes[0].size * axes[1].size * sum(
        2 + 2 * len(settings) for settings in cases.values())
    free = shutil.disk_usage(out).free
    if need > free:
        raise InvalidInputError(
            f"[grid] n_theta = {axes[0].size}, n_n0 = {axes[1].size} need "
            f"at least {_size(need)} of energy grid files, more than the "
            f"{_size(free)} free on the file system of {str(out)!r}")
    words = (*map(_slots, axes), _slots(np.array([0.0, 1.0])))
    single = len(cases) == 1
    outputs: list[str] = []
    counts_echo = {}
    for k, (mult, settings) in enumerate(cases.items(), start=1):
        doc: dict = {"c_eff_over_c2": mult, "q": cfg.params["q"],
                     "m_mag": cfg.grid["m_mag"]}
        for setting, lp in settings.items():
            summary = contour_portrait(lp, gridspec, starts)
            doc[f"shifts_{setting}"] = {
                "c_eff": lp.c_eff,
                "lightshift_delta": lp.lightshift_delta,
                "lightshift_p": lp.lightshift_p,
                **summary.to_dict(),
            }
            counts_echo[f"{format(mult, '.17g')}/{setting}"] = summary.counts
        jname = "portrait.json" if single else f"portrait_{k}.json"
        _write_json(out / jname, doc)
        outputs.append(jname)

        cname = "energy_grid.csv" if single else f"energy_grid_{k}.csv"
        _write_grid(out / cname, *axes, words, settings)
        outputs.append(cname)
    return outputs, {"derived": {"counts": counts_echo}}


def _run_ensemble(cfg: ScenarioConfig, spec, kw: dict,
                  out: Path) -> tuple[list[str], dict]:
    # a kind = cpt member is a resonant transfer
    stats = run_ensemble(spec, int(cfg.seeds["runs"]),
                         "resonant" if cfg.pulse else "effective", **kw)
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
        derived["variant"] = kw["variant"]
    return ["ensemble.csv", "ensemble_stats.json"], {"derived": derived}


_RUNNERS = {"effective": _run_off_resonant, "pendulum": _run_off_resonant,
            "resonant": _run_resonant, "cpt": _run_resonant,
            "landscape": _run_landscape, "ensemble": _run_ensemble}


def _dispatch(cfg: ScenarioConfig, start, kw: dict, out: Path) -> dict:
    t0 = time.perf_counter()
    outputs, extra = _RUNNERS[cfg.mode](cfg, start, kw, out)
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
                       help="resonant equation variant (default: "
                       "symmetrized)")

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
        # numpy refuses an array that cannot fit (a huge landscape grid)
        # at once, with its size in the message
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
    if args.variant is not None and not cfg.pulse:
        raise InvalidInputError("--variant only applies to resonant, cpt "
                                "and kind = cpt ensemble runs")
    start, kw = build(cfg)
    if cfg.pulse:  # the runs whose equations the variant selects
        kw["variant"] = args.variant or "symmetrized"

    out = Path(args.out) if args.out else Path(cfg.output.get("dir", "."))
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError("cannot create output directory "
                                f"{str(out)!r}: {exc.strerror}") from None
    try:
        manifest = _dispatch(cfg, start, kw, out)
    except BaseException:
        # a failed run removes the directories it made while they are empty
        with contextlib.suppress(OSError):
            for d in made:
                d.rmdir()
        raise
    print(f"wrote {', '.join(manifest['outputs'])} and manifest.json "
          f"to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
