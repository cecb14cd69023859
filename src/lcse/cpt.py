"""Dark-state (CPT) steady states, resonance-locked pulses, transfer runs.

In the resonant four-mode system a coherent-population-trapping state keeps
the molecular mode empty: the dump pathway Omega'_d phi+ phi- interferes
destructively with the pump pathway Omega'_p phi0^2. The population split is
fixed entirely by the pulse ratio r = Omega'_d / Omega'_p, so a slow sweep of
r from large to small walks the condensate from the polar state into the
(+1, -1) superposition while the molecular population stays parked near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .core import SpinorAmplitudes, SystemParams
from .dynamics import IntegratorConfig, Trajectory, integrate, rhs_resonant
from .errors import InvalidInputError

THETA_VARIANTS = ("coherence", "stationary", "fixed")


# cosh overflows float64 at |x| = 710.48; past the cutoff sech is below
# 1e-308 and the pulse is taken as exactly 0
_SECH_CUTOFF = 710.0


@dataclass(frozen=True)
class PulseSchedule:
    """Constant pump, sech dump and a two-photon detuning, as plain data.

    The dump is omega_d0 sech(tau / t_zero). theta_variant 'coherence' or
    'stationary' locks Theta to the instantaneous collision-shifted
    resonance (resonance_detuning at the current Rabi ratio); 'fixed' holds
    it at theta_fixed, which only 'fixed' takes. The pump must be finite
    and > 0 so the ratio r = Omega'_d / Omega'_p is always defined; NaN is
    refused, and so is an infinite small_delta or c2n (t_zero = inf holds
    the dump constant). rabi(tau) and drive(tau) read these fields.
    """

    omega_p: float
    omega_d0: float
    t_zero: float
    small_delta: float = 0.0
    c2n: float = 0.0
    theta_variant: str = "coherence"
    theta_fixed: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise InvalidInputError("omega_p must be finite and > 0")
        if self.theta_variant not in THETA_VARIANTS:
            raise InvalidInputError(
                f"theta_variant must be one of {THETA_VARIANTS}")
        if not self.t_zero > 0.0:
            raise InvalidInputError("t0 must be > 0")
        if not 0.0 <= self.omega_d0 < math.inf:
            raise InvalidInputError("omega_d0 must be finite and >= 0")
        if not (math.isfinite(self.small_delta) and math.isfinite(self.c2n)):
            raise InvalidInputError("small_delta and c2n must be finite")
        fixed = self.theta_variant == "fixed"
        if fixed and self.theta_fixed is None:
            raise InvalidInputError("theta_variant 'fixed' needs theta_fixed")
        if not fixed and self.theta_fixed is not None:
            raise InvalidInputError("theta_fixed needs theta_variant 'fixed'")
        if fixed:
            object.__setattr__(self, "theta_fixed", float(self.theta_fixed))
            if not math.isfinite(self.theta_fixed):
                raise InvalidInputError("theta_fixed must be finite")

    def rabi(self, tau):
        """(pump, dump) at tau: two floats for a float tau, two arrays of
        tau's shape for an array tau.

        The dump is exactly 0 past |tau / t_zero| = 710. A float tau goes
        through math.cosh, an array through numpy's cosh, which may round
        one ulp away from it.
        """
        if isinstance(tau, (float, int)):
            x = tau / self.t_zero
            return self.omega_p, (0.0 if abs(x) > _SECH_CUTOFF
                                  else self.omega_d0 / math.cosh(x))
        x = np.abs(np.asarray(tau, dtype=float) / self.t_zero)
        omega_d = np.where(x > _SECH_CUTOFF, 0.0, self.omega_d0
                           / np.cosh(np.minimum(x, _SECH_CUTOFF)))
        return np.full(np.shape(omega_d), self.omega_p), omega_d

    def drive(self, tau):
        """(pump, dump, detuning) at tau: rabi(tau) and the detuning, three
        floats for a float tau, three arrays of tau's shape for an array
        tau."""
        omega_p, omega_d = self.rabi(tau)
        if self.theta_variant != "fixed":
            theta = _locked_detuning(*_dark_split(omega_p, omega_d),
                                     self.small_delta, self.c2n,
                                     self.theta_variant)
        elif isinstance(tau, (float, int)):
            theta = self.theta_fixed
        else:
            theta = np.full(np.shape(omega_d), self.theta_fixed)
        return omega_p, omega_d, theta


def _dark_split(omega_p, omega_d):
    r = omega_d / omega_p
    return 1.0 / (2.0 + r), r / (2.0 + r)


def cpt_populations(omega_p, omega_d):
    """Steady-state (n_plus_s, n_zero_s); n_minus_s equals n_plus_s.

    Either Rabi frequency may be an array; the split is taken elementwise.
    """
    if np.any(np.less_equal(omega_p, 0.0)):
        raise InvalidInputError("omega_p must be > 0 (ratio undefined)")
    if np.any(np.less(omega_d, 0.0)):
        raise InvalidInputError("omega_d must be >= 0")
    return _dark_split(omega_p, omega_d)


def cpt_state(omega_p: float, omega_d: float) -> SpinorAmplitudes:
    """Dark state as real positive amplitudes with an empty molecular mode.

    Real positive phases put omega_d*phi+*phi- and omega_p*phi0^2 in phase,
    which is the sign convention that zeroes the molecular pumping.
    """
    n_s, n0_s = cpt_populations(omega_p, omega_d)
    a = math.sqrt(n_s)
    return SpinorAmplitudes(a, math.sqrt(n0_s), a, 0.0 + 0.0j)


def resonance_detuning(omega_p, omega_d, small_delta: float, c2n: float,
                       variant: str = "coherence"):
    """Two-photon detuning that tracks the collision-shifted resonance.

    variant 'coherence' (default) compensates the full mean-field shift
    including the sqrt(n_s * n0_s) coherence cross-term:
        Theta = -delta + c2 [2(n+_s + n-_s) + 2 sqrt(n+_s n0_s) - 4 n0_s].
    variant 'stationary' cancels the residual phase rotation of the dark ray
    exactly (lambda+ = lambda0 / 2 at the CPT point):
        Theta = -delta + c2 (4 n_s - 2 n0_s).
    The two agree at r -> 0 and r = 1 and differ at most by O(c2) elsewhere.
    """
    n_s, n0_s = cpt_populations(omega_p, omega_d)
    return _locked_detuning(n_s, n0_s, small_delta, c2n, variant)


def _locked_detuning(n_s, n0_s, small_delta, c2n, variant):
    # floats from a float tau stay Python floats: numpy's sqrt of a float
    # costs six times math's and hands back a numpy scalar, which slows
    # every later operation of the single-run RHS
    root = math.sqrt if isinstance(n_s, float) else np.sqrt
    if variant == "coherence":
        shift = 4.0 * n_s + 2.0 * root(n_s * n0_s) - 4.0 * n0_s
    elif variant == "stationary":
        shift = 4.0 * n_s - 2.0 * n0_s
    else:
        raise InvalidInputError("variant must be 'coherence' or 'stationary'")
    return -small_delta + c2n * shift


# the constructor under its older name
make_schedule = PulseSchedule


def resonant_counterpart(
        params: SystemParams) -> tuple[SystemParams, PulseSchedule]:
    """(params, pulse) of the resonant run whose large-detuning limit is
    the effective run of params, for integrate('resonant', ...).

    The effective family eliminates the molecule at the detuning Theta =
    big_delta_prime, so the resonant run puts Theta on the molecule:
    small_delta = Theta, and a fixed lock theta_fixed = -Theta leaves
    Theta + delta = 0 on the +-1 modes. t_zero = 1e300 holds the dump
    constant, gamma = 0, c2n is params', and the pulse takes the Rabi
    frequencies' magnitudes (the drive ladder's are negative for W < 0;
    their product, and so omega_eff, is unchanged). The resonant equations
    carry no q. The naive map, delta = 0 and theta_fixed = Theta, detunes
    the +-1 modes and leaves the molecule resonant: from the fig2 start at
    W = 2 |c2| it raised n_m to 0.44 within tau 200, 88 % of the atoms.
    """
    theta = params.big_delta_prime
    return (SystemParams(c2n=params.c2n, small_delta=theta),
            PulseSchedule(abs(params.omega_p), abs(params.omega_d), 1e300,
                          theta_variant="fixed", theta_fixed=-theta))


@dataclass
class TransferResult:
    """Outcome of one resonant transfer run.

    efficiency is n+ + n- at the final time against the ideal full-transfer
    target of 1, so runs with different pulses compare directly.
    cpt_deviation is the sup-norm distance of (n+, n0, n-)(tau) from the
    instantaneous dark-state populations at the same tau;
    cpt_deviation_final references the dark-state populations at the final
    pulse ratio instead. atom_survival is the final atom count with molecules
    weighted twice (exactly 1 when gamma = 0; molecular decay removes atoms),
    and efficiency_surviving rescales the efficiency to the surviving atoms.
    """

    final_populations: tuple[float, float, float, float]
    efficiency: float
    peak_molecular: float
    cpt_deviation: float
    cpt_deviation_final: float
    atom_survival: float
    efficiency_surviving: float
    peak_molecular_late: float
    max_population_asymmetry: float
    trajectory: Trajectory

    def to_dict(self) -> dict:
        """Every field but the trajectory."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "trajectory"}


LATE_WINDOW_TAU = 30.0


def run_transfer(initial: SpinorAmplitudes, params: SystemParams,
                 pulse: PulseSchedule,
                 tau_span: tuple[float, float] = (0.0, 150.0),
                 config: Optional[IntegratorConfig] = None,
                 sampling: int = 2001,
                 variant: str = "symmetrized") -> TransferResult:
    """Integrate the resonant system through the pulse and summarize it."""
    traj = integrate("resonant", initial, params, tau_span, pulse=pulse,
                     config=config, sampling=sampling, variant=variant)
    n = traj.populations()            # rows: n+, n0, n-, n_m
    atoms = n[0] + n[1] + n[2]
    n_s, n0_s = cpt_populations(*pulse.rabi(traj.times))
    dev_inst = float(np.max(np.abs(n[:3] - np.stack([n_s, n0_s, n_s]))))
    final_ref = np.array([[n_s[-1]], [n0_s[-1]], [n_s[-1]]])
    dev_final = float(np.max(np.abs(n[:3] - final_ref)))
    late = traj.times >= LATE_WINDOW_TAU
    peak_late = float(n[3][late].max()) if late.any() else 0.0
    eff = float(n[0][-1] + n[2][-1])
    survival = float(atoms[-1] + 2.0 * n[3][-1])
    return TransferResult(
        final_populations=(float(n[0][-1]), float(n[1][-1]),
                           float(n[2][-1]), float(n[3][-1])),
        efficiency=eff,
        peak_molecular=float(n[3].max()),
        cpt_deviation=dev_inst,
        cpt_deviation_final=dev_final,
        atom_survival=survival,
        efficiency_surviving=eff / survival,
        peak_molecular_late=peak_late,
        max_population_asymmetry=float(np.max(np.abs(n[0] - n[2]))),
        trajectory=traj,
    )


class StationarityResidual(NamedTuple):
    """Residual norms of the dark state under the resonant flow.

    raw: plain |RHS| at the CPT point (includes any uniform phase rotation).
    corotating: |RHS| after projecting out the optimal global phase rate,
    i.e. the gauge-invariant motion of the ray.
    populations: Euclidean norm of the population time derivatives.
    """

    raw: float
    corotating: float
    populations: float


def stationarity_residual(omega_p: float, omega_d: float, c2n: float,
                          small_delta: float = 0.0, gamma: float = 0.0,
                          theta: Optional[float] = None,
                          variant: str = "stationary") -> StationarityResidual:
    """Evaluate how stationary the dark state is under a frozen drive.

    theta defaults to resonance_detuning(..., variant); pass an explicit
    value to probe an arbitrary detuning.
    """
    if theta is None:
        theta = resonance_detuning(omega_p, omega_d, small_delta, c2n, variant)
    state = cpt_state(omega_p, omega_d)
    # t_zero = inf keeps the dump at omega_d for every tau
    pulse = PulseSchedule(omega_p, omega_d, math.inf, theta_variant="fixed",
                          theta_fixed=theta)
    params = SystemParams(c2n=c2n, small_delta=small_delta, gamma=gamma)
    d = np.array(rhs_resonant(state, params, pulse), dtype=complex)
    y = np.array([state.a_plus, state.a_zero, state.a_minus, state.a_m],
                 dtype=complex)
    raw = float(np.linalg.norm(d))
    lam = float(np.real(1j * np.vdot(y, d)) / np.real(np.vdot(y, y)))
    corot = float(np.linalg.norm(d + 1j * lam * y))
    pops = float(np.linalg.norm(2.0 * np.real(np.conj(y) * d)))
    return StationarityResidual(raw, corot, pops)


class AdiabaticityReport(NamedTuple):
    value: float
    tau_at_max: float
    adiabatic: bool


def adiabaticity_diagnostic(pulse: PulseSchedule,
                            tau_grid=None) -> AdiabaticityReport:
    """How fast the dark state moves relative to the instantaneous gap.

    Returns max over the grid of |d(n+_s, n0_s, n-_s)/dtau| (Euclidean)
    divided by sqrt(Omega'_p^2 + Omega'_d^2). Values well under 1 mean the
    pulse sweeps the steady state slowly compared to the coupling scale;
    the adiabatic flag compares against 1.
    """
    if tau_grid is None:
        tau_grid = np.linspace(-100.0, 150.0, 20001)
    ts = np.asarray(tau_grid, dtype=float)
    h = 1e-6
    np1, n01 = cpt_populations(*pulse.rabi(ts + h))
    np0, n00 = cpt_populations(*pulse.rabi(ts - h))
    dn = np.sqrt(2.0 * ((np1 - np0) / (2 * h)) ** 2
                 + ((n01 - n00) / (2 * h)) ** 2)
    ratio = dn / np.hypot(*pulse.rabi(ts))
    i = int(np.argmax(ratio))  # the first maximum
    best = float(ratio[i])
    return AdiabaticityReport(best, float(ts[i]), best < 1.0)
