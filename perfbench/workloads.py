"""Benchmark workloads: INI inputs generated from a seed, and output checks.

The program only ever sees the INI files written here, passed to
`lcse run --config`. Each workload is a list of CLI calls; an *operation*
(the unit of `attempted` / `failed`) is an ensemble member, a portrait case
or a sweep scenario. The checks do not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Rb-87 c2n / c0n, written into every input so the benchmark owns its physics
C2 = (100.4 - 101.8) / (101.8 + 2 * 100.4)

DRIFT_BOUND = 1e-8        # criterion 1: |N - N0| and |m - m0|
ENSEMBLE_GATE = 0.05      # criterion 7: |ensemble mean side - classical side|
PORTRAIT_MULTS = (1.0, 0.5, -0.5, -1.0)

_FIG4_PHYSICS = """
[params]
small_delta = 3
gamma = 1

[pulse]
omega_p = 1
omega_d0 = 40
t_zero = 20

[integration]
tau_start = 0
tau_end = 150
samples = 2001
"""


def _g(x: float) -> str:
    return format(x, ".17g")


@dataclass
class Workload:
    """Generated inputs for one run: one CLI call per entry of `configs`."""

    name: str
    configs: list[str]                 # INI texts, in call order
    ops_per_call: int                  # operations checked per CLI call
    expect: list = field(default_factory=list)  # per-call check data

    @property
    def ops(self) -> int:
        return self.ops_per_call * len(self.configs)


# ---------------------------------------------------------------------------
# input generation

def ensemble(seed: int, smoke: bool = False) -> Workload:
    """fig4-ensemble physics: vacuum-seeded resonant CPT transfers."""
    runs = 4 if smoke else 16
    rng_seed = random.Random(seed).getrandbits(63)
    ini = (f"[scenario]\nmode = ensemble\n\n[seeds]\nmode = vacuum-sampled\n"
           f"kind = cpt\natom_number = 1e4\nrng_seed = {rng_seed}\n"
           f"runs = {runs}\n" + _FIG4_PHYSICS)
    return Workload("ensemble", [ini], runs)


def classical_transfer_config() -> str:
    """Criterion-7 reference: the same transfer from a classical 1e-5 seed."""
    return ("[scenario]\nmode = cpt\n\n[initial]\nn_plus = 1e-5\n"
            "n_zero = 0.99998\nn_minus = 1e-5\n" + _FIG4_PHYSICS)


def portraits(seed: int, smoke: bool = False) -> Workload:
    """fig3-portraits physics; the seed sets the order of the couplings.

    The start grid is the paper's (n0 in [0.05, 0.95]). A shifted window
    can put a start on a closed orbit whose only return before tau_max
    falls between the samples of the classifier's return check, which
    then answers Indeterminate (README.md, "Known defect").
    """
    mults = [1.0, -1.0] if smoke else list(PORTRAIT_MULTS)
    random.Random(seed).shuffle(mults)
    starts = 4 if smoke else 10
    ini = (f"[scenario]\nmode = landscape\n\n[params]\nq = 0.01\n"
           f"c2n = {_g(C2)}\n\n[grid]\n"
           f"c_eff_over_c2 = {', '.join(_g(m) for m in mults)}\n"
           f"shifts = both\ntau_max = 2500\nstarts_n_theta = {starts}\n"
           f"starts_n_n0 = {starts}\nstarts_n0_min = 0.05\n"
           f"starts_n0_max = 0.95\n")
    return Workload("portraits", [ini], 2 * len(mults),
                    [{"mults": mults, "starts": starts * starts}])


def sweep(seed: int, smoke: bool = False) -> Workload:
    """Many small effective / pendulum runs with couplings on the W ladder.

    c_eff / c2 is drawn from [-2, 2]; the drive is omega_p = 10 W,
    omega_d = 100 W, big_delta_prime = 1000 W with W = c_eff - c2, which puts
    |big_delta_prime| exactly at the ValidityWarning threshold.
    """
    rnd = random.Random(seed)
    configs, expect = [], []
    for i in range(20 if smoke else 600):
        mult = rnd.uniform(-2.0, 2.0)
        w = (mult - 1.0) * C2
        params = (f"[params]\nq = 0.01\nc2n = {_g(C2)}\n"
                  f"omega_p = {_g(10.0 * w)}\nomega_d = {_g(100.0 * w)}\n"
                  f"big_delta_prime = {_g(1000.0 * w)}\n")
        n0 = rnd.uniform(0.05, 0.95)
        if i % 2 == 0:
            split = rnd.uniform(0.25, 0.75)
            initial = (f"n_plus = {_g((1.0 - n0) * split)}\n"
                       f"n_zero = {_g(n0)}\n"
                       f"n_minus = {_g((1.0 - n0) * (1.0 - split))}\n"
                       f"phase_plus = {_g(rnd.uniform(-math.pi, math.pi))}\n"
                       f"phase_minus = {_g(rnd.uniform(-math.pi, math.pi))}\n")
            mode = "effective"
        else:
            initial = (f"theta = {_g(rnd.uniform(-math.pi, math.pi))}\n"
                       f"n_zero = {_g(n0)}\n")
            mode = "pendulum"
        configs.append(f"[scenario]\nmode = {mode}\n\n{params}\n[initial]\n"
                       f"{initial}\n[integration]\ntau_start = 0\n"
                       f"tau_end = 50\nsamples = 1001\n")
        expect.append(_regime(mult))
    return Workload("sweep", configs, 1, expect)


def _regime(mult: float) -> str:
    """Regime named by the sign of c_eff / c2 (band as in classify_regime)."""
    if abs(mult) <= 1e-3:
        return "Frozen"
    return "CollisionDominated" if mult > 0 else "Reversed"


BUILDERS = {"ensemble": ensemble, "portraits": portraits, "sweep": sweep}


# ---------------------------------------------------------------------------
# output checks: each returns the number of failed operations of one call

def check_ensemble(out: Path, wl: Workload, k: int, classical_side: float,
                   problems: list) -> int:
    with open(out / "ensemble.csv") as fh:
        rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
    failed = wl.ops_per_call - len(rows)
    if failed:
        problems.append(f"ensemble: {len(rows)} members written, "
                        f"{wl.ops_per_call} expected")
    sides = []
    for r in rows:
        vals = [float(r[c]) for c in ("n_plus_final", "n_zero_final",
                                      "n_minus_final", "n_m_final",
                                      "final_side")]
        m0 = (float(r["seed_plus_re"]) ** 2 + float(r["seed_plus_im"]) ** 2
              - float(r["seed_minus_re"]) ** 2
              - float(r["seed_minus_im"]) ** 2)
        drift = abs(vals[0] - vals[2] - m0)
        if not all(map(math.isfinite, vals)) or not drift < DRIFT_BOUND:
            problems.append(f"ensemble member {r['run']}: values {vals}, "
                            f"magnetization drift {drift:.3e}")
            failed += 1
        sides.append(vals[4])
    mean = sum(sides) / len(sides) if sides else math.nan
    if not abs(mean - classical_side) < ENSEMBLE_GATE:
        problems.append(f"ensemble mean side {mean:.4f} vs classical "
                        f"{classical_side:.4f}: outside the criterion-7 gate")
        failed = wl.ops_per_call
    return failed


def check_portraits(out: Path, wl: Workload, k: int, problems: list) -> int:
    exp = wl.expect[k]
    failed = 0
    for j, mult in enumerate(exp["mults"], start=1):
        doc = json.loads((out / f"portrait_{j}.json").read_text())
        if doc["c_eff_over_c2"] != mult:
            problems.append(f"portrait_{j}.json holds c_eff/c2 = "
                            f"{doc['c_eff_over_c2']}, expected {mult}")
            failed += 2
            continue
        for setting in ("on", "off"):
            case = doc[f"shifts_{setting}"]
            counts = case["counts"]
            bad = []
            if len(case["verdicts"]) != exp["starts"]:
                bad.append(f"{len(case['verdicts'])} verdicts")
            if counts.get("Indeterminate", 0):
                bad.append(f"{counts['Indeterminate']} Indeterminate")
            # criterion 4 is stated for the light-shifted (shifts on) cases
            if setting == "on" and mult > 0 and counts.get("Closed", 0):
                bad.append("Closed orbits at a positive coupling")
            if setting == "on" and mult < 0 and not (
                    counts.get("Closed", 0) and counts.get("Open", 0)):
                bad.append("no Closed/Open mix at a negative coupling")
            if bad:
                problems.append(f"portrait {mult:g}/{setting}: "
                                f"{', '.join(bad)} ({counts})")
                failed += 1
    return failed


def check_sweep(out: Path, wl: Workload, k: int, problems: list) -> int:
    man = json.loads((out / "manifest.json").read_text())
    drift = man["conservation"]
    worst = max(drift["max_total_n_drift"], drift["max_magnetization_drift"])
    regime = man["derived"]["regime"]
    if not worst < DRIFT_BOUND or regime != wl.expect[k]:
        problems.append(f"sweep scenario {k}: drift {worst:.3e}, regime "
                        f"{regime}, expected {wl.expect[k]}")
        return 1
    return 0
