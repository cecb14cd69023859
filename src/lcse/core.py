"""Parameter derivation, unit scaling, adiabatic elimination, regimes.

All dynamics run in scaled time tau = c0n * t with dimensionless couplings;
SI conversion is a presentation concern. The spin state is held as complex
mode amplitudes normalized so that n+ + n0 + n- + 2*n_m = 1 (molecules count
two atoms).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import constants
from .errors import InvalidInputError


class ValidityWarning(UserWarning):
    """Parameters are outside the regime where a derived model is trustworthy."""


@dataclass(frozen=True)
class ScatteringInputs:
    """Raw scattering data from which collision strengths derive.

    Lengths are in Bohr radii, density in atoms/cm^3. overlap_integral is the
    condensate-profile factor multiplying both strengths; the default 1 means
    downstream values are treated as supplied pre-scaled.
    """

    a0: float
    a2: float
    atomic_mass: float = constants.MASS_RB87
    density_n: float = 1e14
    overlap_integral: float = 1.0

    def __post_init__(self):
        if self.a0 <= 0 or self.a2 <= 0:
            raise InvalidInputError("scattering lengths must be positive")
        if self.density_n <= 0:
            raise InvalidInputError("density must be positive")
        if self.atomic_mass <= 0:
            raise InvalidInputError("atomic mass must be positive")
        if self.overlap_integral <= 0:
            raise InvalidInputError("overlap integral must be positive")


def derive_collision_strengths(inputs: ScatteringInputs) -> tuple[float, float]:
    """Return (c0n, c2n) in rad/s.

    c0' = 4 pi hbar^2 (a0 + 2 a2) / 3m, c2' = 4 pi hbar^2 (a2 - a0) / 3m,
    each multiplied by density and the overlap factor, divided by hbar to get
    angular frequency. The ratio c2n/c0n equals (a2-a0)/(a0+2*a2) exactly.
    """
    a0 = inputs.a0 * constants.BOHR_RADIUS
    a2 = inputs.a2 * constants.BOHR_RADIUS
    n = inputs.density_n * 1e6  # atoms/m^3
    pref = 4.0 * math.pi * constants.HBAR * n * inputs.overlap_integral / (3.0 * inputs.atomic_mass)
    return pref * (a0 + 2.0 * a2), pref * (a2 - a0)


@dataclass(frozen=True)
class SystemParams:
    """Scaled system parameters, all dimensionless in units of c0n
    (c2n = c2 n / c0 n, omega_p = Omega_p / (c0 sqrt n),
    big_delta_prime = Delta' / c0n, small_delta = delta' / c0n), with
    tau = c0n * t.
    """

    c2n: float = constants.RB87_C2_OVER_C0
    omega_p: float = 0.0
    omega_d: float = 0.0
    big_delta_prime: float = 1.0
    small_delta: float = 0.0
    gamma: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise InvalidInputError("system parameters must be finite")
        if self.gamma < 0:
            raise InvalidInputError("gamma must be >= 0")


class Regime(enum.Enum):
    COLLISION_DOMINATED = "CollisionDominated"
    FROZEN = "Frozen"
    REVERSED = "Reversed"


@dataclass(frozen=True)
class CouplingSummary:
    """Derived off-resonant couplings after adiabatic elimination.

    omega_eff = omega_p * omega_d / Theta, c_eff = omega_eff + c2n,
    lightshift_delta = omega_d^2 / Theta, lightshift_p = omega_p^2 / Theta.
    The identity lightshift_p * lightshift_delta = omega_eff^2 holds exactly.
    """

    omega_eff: float
    c_eff: float
    lightshift_delta: float
    lightshift_p: float


# relative rounding allowance of the validity boundary: the drive ladder
# sits exactly on it, and 10 * (100 W) and 1000 W round up to one machine
# epsilon apart (relative)
_BOUNDARY_SLACK = 4.0 * sys.float_info.epsilon


def effective_coupling(params: SystemParams) -> CouplingSummary:
    """Adiabatic elimination of the molecular mode at large |Theta|.

    Raises on Theta = 0 (use the resonant solver there); warns when |Theta|
    is below 10 max(|omega_p|, |omega_d|) by more than rounding.
    """
    theta = params.big_delta_prime
    if theta == 0:
        raise InvalidInputError(
            "big_delta_prime = 0: adiabatic elimination is singular; "
            "use the resonant solver for on-resonance dynamics")
    bound = 10.0 * max(abs(params.omega_p), abs(params.omega_d))
    if abs(theta) < bound * (1.0 - _BOUNDARY_SLACK):
        warnings.warn(
            "adiabatic elimination assumes |big_delta_prime| >> Rabi frequencies; "
            f"|Theta| = {abs(theta):g} is below 10*max(omega_p, omega_d)",
            ValidityWarning, stacklevel=2)
    omega_eff = params.omega_p * params.omega_d / theta
    return CouplingSummary(
        omega_eff=omega_eff,
        c_eff=omega_eff + params.c2n,
        lightshift_delta=params.omega_d ** 2 / theta,
        lightshift_p=params.omega_p ** 2 / theta,
    )


def drive_ladder(w: float) -> tuple[float, float, float]:
    """(omega_p, omega_d, big_delta_prime) = (10 W, 100 W, 1000 W), the drive
    for which adiabatic elimination gives omega_eff = W exactly; at W = 0,
    lasers off, (0, 0, 1): SystemParams' default, which it accepts."""
    return (10.0 * w, 100.0 * w, 1000.0 * w) if w != 0 else (0.0, 0.0, 1.0)


def ladder_lightshifts(w: float) -> tuple[float, float]:
    """Light shifts (10 W, W / 10) of drive_ladder(w), as literal products
    (effective_coupling rounds them differently)."""
    return 10.0 * w, w / 10.0


def classify_regime(c_eff: float, c2n: float) -> Regime:
    """Regime from the combined coupling, with a float-noise band around zero.

    Frozen for |c_eff| <= 1e-3 * |c2n|; otherwise CollisionDominated when
    c_eff and c2n share sign and Reversed when they oppose. Scale-invariant
    under (c_eff, c2n) -> (lam*c_eff, lam*c2n), lam > 0.
    """
    eps_frozen = 1e-3 * abs(c2n)
    if abs(c_eff) <= eps_frozen:
        return Regime.FROZEN
    if (c_eff > 0) == (c2n > 0):
        return Regime.COLLISION_DOMINATED
    return Regime.REVERSED


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Complex mode amplitudes (a+, a0, a-) plus optional molecular a_m.

    a_m is None for three-mode (off-resonant) states. Normalization
    convention: n+ + n0 + n- + 2*n_m = 1 for initial states.
    """

    a_plus: complex
    a_zero: complex
    a_minus: complex
    a_m: Optional[complex] = None

    def __post_init__(self):
        comps = [self.a_plus, self.a_zero, self.a_minus]
        if self.a_m is not None:
            comps.append(self.a_m)
        if not all(cmath.isfinite(c) for c in comps):
            raise InvalidInputError("amplitudes must be finite")

    @classmethod
    def from_populations(cls, n_plus: float, n_zero: float, n_minus: float,
                         n_m: float = 0.0,
                         phase_plus: float = 0.0, phase_zero: float = 0.0,
                         phase_minus: float = 0.0, phase_m: float = 0.0,
                         resonant: bool = False) -> "SpinorAmplitudes":
        """Build sqrt(n_i) e^{i phase_i} amplitudes; molecular mode only if
        resonant or n_m > 0."""
        if min(n_plus, n_zero, n_minus, n_m) < 0:
            raise InvalidInputError("populations must be >= 0")
        am = None
        if resonant or n_m > 0:
            am = math.sqrt(n_m) * cmath.exp(1j * phase_m)
        return cls(
            a_plus=math.sqrt(n_plus) * cmath.exp(1j * phase_plus),
            a_zero=math.sqrt(n_zero) * cmath.exp(1j * phase_zero),
            a_minus=math.sqrt(n_minus) * cmath.exp(1j * phase_minus),
            a_m=am,
        )

    @property
    def has_molecule(self) -> bool:
        return self.a_m is not None


class StateObservables(NamedTuple):
    n_plus: float
    n_zero: float
    n_minus: float
    n_m: float
    magnetization_m: float
    total_n: float


def state_observables(state: SpinorAmplitudes) -> StateObservables:
    """Populations, magnetization m = n+ - n-, and N = n+ + n0 + n- + 2 n_m."""
    np_ = abs(state.a_plus) ** 2
    n0 = abs(state.a_zero) ** 2
    nm = abs(state.a_minus) ** 2
    nmol = abs(state.a_m) ** 2 if state.a_m is not None else 0.0
    return StateObservables(np_, n0, nm, nmol, np_ - nm, np_ + n0 + nm + 2.0 * nmol)


def require_normalized(state: SpinorAmplitudes, tol: float = 1e-12) -> None:
    """Initial-state gate: total N must be 1 within tol."""
    total = state_observables(state).total_n
    if abs(total - 1.0) > tol:
        raise InvalidInputError(f"initial state not normalized: total N = {total!r}")
