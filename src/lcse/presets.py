"""Built-in scenario presets, one per standard demonstration case.

Each preset is an INI config built programmatically (so derived numbers stay
exact) and fed through the same parse_config path as user files. The fig2
drives follow core.drive_ladder.
"""

from __future__ import annotations

from .config import ScenarioConfig, parse_config
from .constants import RB87_C2_OVER_C0
from .core import drive_ladder
from .errors import InvalidInputError

_C2 = RB87_C2_OVER_C0


def _g(x: float) -> str:
    return format(x, ".17g")


def _fig2(w: float) -> str:
    omega_p, omega_d, big_delta_prime = drive_ladder(w)
    return f"""
[scenario]
mode = effective

[params]
q = 0.01
omega_p = {_g(omega_p)}
omega_d = {_g(omega_d)}
big_delta_prime = {_g(big_delta_prime) if w != 0.0 else _g(1.0)}

[initial]
n_plus = 0.05
n_zero = 0.9
n_minus = 0.05

[integration]
tau_start = 0
tau_end = 50
samples = 1001
"""


_FIG3 = f"""
[scenario]
mode = landscape

[params]
q = 0.01

[grid]
c_eff_over_c2 = 1, 0.5, -0.5, -1
shifts = both
"""

_FIG4_COMMON = f"""
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

_FIG4_CPT = f"""
[scenario]
mode = cpt

[initial]
n_plus = 1e-5
n_zero = 0.99998
n_minus = 1e-5
{_FIG4_COMMON}
"""

_FIG4_ENSEMBLE = f"""
[scenario]
mode = ensemble

[seeds]
mode = vacuum-sampled
kind = cpt
atom_number = 1e4
rng_seed = 20260814
runs = 16
{_FIG4_COMMON}
"""

# name -> (ini text, one-line description)
PRESETS: dict[str, tuple[str, str]] = {
    "fig2-collision": (
        _fig2(0.0),
        "lasers off: bare collisional spin mixing from (0.05, 0.9, 0.05)"),
    "fig2-frozen": (
        _fig2(-_C2),
        "drive tuned so the total coupling vanishes: mixing frozen"),
    "fig2-reversed": (
        _fig2(-2.0 * _C2),
        "drive overcompensates the collisions: mixing with reversed sign"),
    "fig3-portraits": (
        _FIG3,
        "energy landscapes and open/closed orbit census at four couplings"),
    "fig4-cpt": (
        _FIG4_CPT,
        "resonant dark-state transfer through a sech dump pulse"),
    "fig4-ensemble": (
        _FIG4_ENSEMBLE,
        "vacuum-seeded ensemble of dark-state transfers (16 members)"),
}


def preset_names() -> list[str]:
    return list(PRESETS)


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return PRESETS[name][0]


def preset_description(name: str) -> str:
    return PRESETS[name][1]


def load_preset(name: str) -> ScenarioConfig:
    return parse_config(preset_text(name))
