"""Right-hand-side families and the adaptive integrator.

Three families:
  effective  three complex amplitudes, off-resonant two-channel spin exchange
  pendulum   canonical (theta, n0) flow of the energy functional at fixed m
  resonant   four complex amplitudes including the molecular mode, with decay

All quantities are dimensionless in scaled time tau = c0n * t; c2n, q, the
Rabi frequencies, and the detunings carried by SystemParams are ratios to
c0n. Global-phase terms (the c0 mean field and the uniform Zeeman offset) are
omitted from the amplitude equations: they cancel in every observable this
library reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp

from .core import CouplingSummary, SpinorAmplitudes, SystemParams, require_normalized
from .errors import DomainError, InvalidInputError, NumericalError


@dataclass(frozen=True)
class PendulumState:
    """(theta, n0) pair with fixed magnetization m = n+ - n-."""

    theta: float
    n_zero: float
    m_mag: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.n_zero <= 1.0:
            raise InvalidInputError("n_zero must lie in [0, 1]")
        if (1.0 - self.n_zero) ** 2 - self.m_mag ** 2 < 0.0:
            raise InvalidInputError("(1-n0)^2 - m^2 must be >= 0")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for the embedded adaptive 5(4) pair."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf

    def __post_init__(self):
        for t in (self.rel_tol, self.abs_tol):
            if not 0.0 < t <= 1e-2:
                raise InvalidInputError("tolerances must lie in (0, 1e-2]")


@dataclass
class Trajectory:
    """Sampled integration output with conserved-quantity monitors.

    values has one row per state component: complex amplitudes for the
    amplitude families, (theta, n0) for the pendulum. monitors maps
    'total_n' / 'magnetization' / 'energy' (where defined) to per-sample
    arrays.
    """

    family: str
    times: np.ndarray
    values: np.ndarray
    monitors: dict = field(default_factory=dict)
    m_mag: float = 0.0
    solver: Optional[object] = field(default=None, repr=False)

    def populations(self) -> np.ndarray:
        """|amplitude|^2 rows for amplitude families; (n0 only) is values[1]
        for the pendulum."""
        if self.family == "pendulum":
            return self.values[1:2]
        return np.abs(self.values) ** 2

    def theta(self) -> np.ndarray:
        """Relative phase theta = arg a+ + arg a- - 2 arg a0, unwrapped."""
        if self.family == "pendulum":
            return self.values[0]
        raw = (np.angle(self.values[0]) + np.angle(self.values[2])
               - 2.0 * np.angle(self.values[1]))
        return np.unwrap(raw)


# ---------------------------------------------------------------------------
# energy functional (shared with the landscape module, which re-exports it)

def energy_functional(theta, n_zero, m_mag, c_eff, c2n, q,
                      lightshift_delta=0.0, lightshift_p=0.0):
    """Mean-field energy over (theta, n0) at fixed magnetization.

    E = q (1-n0) + C n0 S cos(theta) + c2 n0 (1-n0)
        + (Delta/4) n0 (2-n0) - (Omega^2/Delta) n0^2,  S = sqrt((1-n0)^2 - m^2)

    Constant (n0-independent) terms are dropped, matching the convention of
    the off-resonant reduction. Domain requires (1-n0)^2 >= m^2.
    """
    s2 = (1.0 - n_zero) ** 2 - m_mag ** 2
    s = np.sqrt(np.maximum(s2, 0.0))
    return (q * (1.0 - n_zero)
            + c_eff * n_zero * s * np.cos(theta)
            + c2n * n_zero * (1.0 - n_zero)
            + 0.25 * lightshift_delta * n_zero * (2.0 - n_zero)
            - lightshift_p * n_zero ** 2)


def energy_gradient_n0(theta, n_zero, m_mag, c_eff, c2n, q,
                       lightshift_delta=0.0, lightshift_p=0.0):
    """dE/dn0 of the functional above; diverges at the S = 0 boundary for
    m != 0."""
    s2 = (1.0 - n_zero) ** 2 - m_mag ** 2
    s = np.sqrt(np.maximum(s2, 0.0))
    ds = np.where(s > 0.0, -(1.0 - n_zero) / np.where(s > 0.0, s, 1.0), 0.0)
    return (-q + c_eff * np.cos(theta) * (s + n_zero * ds)
            + c2n * (1.0 - 2.0 * n_zero)
            + 0.5 * lightshift_delta * (1.0 - n_zero)
            - 2.0 * lightshift_p * n_zero)


def energy_from_amplitudes(state: SpinorAmplitudes, params: SystemParams,
                           coupling: CouplingSummary) -> float:
    """Evaluate the functional on a three-mode amplitude state."""
    np_ = abs(state.a_plus) ** 2
    n0 = abs(state.a_zero) ** 2
    nm = abs(state.a_minus) ** 2
    theta = (np.angle(state.a_plus) + np.angle(state.a_minus)
             - 2.0 * np.angle(state.a_zero))
    return float(energy_functional(theta, n0, np_ - nm, coupling.c_eff,
                                   params.c2n, params.q,
                                   coupling.lightshift_delta,
                                   coupling.lightshift_p))


# ---------------------------------------------------------------------------
# RHS families

def rhs_effective(state: SpinorAmplitudes, params: SystemParams,
                  coupling: CouplingSummary) -> tuple[complex, complex, complex]:
    """d(a+, a0, a-)/dtau for the off-resonant effective dynamics.

    Conserves N and m exactly at the continuous level: the exchange term
    C a0^2 conj(a_-+) moves population pairwise between (0,0) and (+,-).
    """
    y = np.array([state.a_plus, state.a_zero, state.a_minus], dtype=complex)
    d = _rhs_eff(0.0, y, coupling.c_eff, params.c2n, params.q,
                 coupling.lightshift_delta, coupling.lightshift_p)
    return complex(d[0]), complex(d[1]), complex(d[2])


def _rhs_eff(tau, y, c_eff, c2, q, ls_delta, ls_p):
    ap, a0, am = y
    np_ = ap.real ** 2 + ap.imag ** 2
    n0 = a0.real ** 2 + a0.imag ** 2
    nm = am.real ** 2 + am.imag ** 2
    dap = -1j * ((q + c2 * (np_ + n0 - nm) - ls_delta * nm) * ap
                 + c_eff * a0 * a0 * am.conjugate())
    da0 = -1j * ((c2 * (np_ + nm) - 2.0 * ls_p * n0) * a0
                 + 2.0 * c_eff * a0.conjugate() * ap * am)
    dam = -1j * ((q + c2 * (nm + n0 - np_) - ls_delta * np_) * am
                 + c_eff * a0 * a0 * ap.conjugate())
    return np.array([dap, da0, dam])


def rhs_pendulum(state: PendulumState, params: SystemParams,
                 coupling: CouplingSummary) -> tuple[float, float]:
    """(dtheta, dn0)/dtau: dn0 = -2 dE/dtheta, dtheta = +2 dE/dn0.

    The factor and sign are fixed by agreement with the amplitude flow.
    """
    s2 = (1.0 - state.n_zero) ** 2 - state.m_mag ** 2
    if s2 <= 0.0:
        raise DomainError("pendulum state on the (1-n0)^2 = m^2 boundary")
    d = _rhs_pend(0.0, np.array([state.theta, state.n_zero]),
                  coupling.c_eff, params.c2n, params.q, state.m_mag,
                  coupling.lightshift_delta, coupling.lightshift_p)
    return float(d[0]), float(d[1])


def _rhs_pend(tau, y, c_eff, c2, q, m_mag, ls_delta, ls_p):
    theta, n0 = y
    s = math.sqrt(max((1.0 - n0) ** 2 - m_mag ** 2, 0.0))
    dn0 = 2.0 * c_eff * n0 * s * math.sin(theta)
    dth = 2.0 * energy_gradient_n0(theta, n0, m_mag, c_eff, c2, q, ls_delta, ls_p)
    return np.array([dth, dn0])


def rhs_resonant(state: SpinorAmplitudes, params: SystemParams, pulse,
                 tau: float = 0.0,
                 variant: str = "symmetrized") -> tuple[complex, complex, complex, complex]:
    """d(phi+, phi0, phi-, phi_m)/dtau for the resonant four-mode system.

    `pulse` provides omega_p_fn, omega_d_fn, theta_fn callables of tau.
    variant 'literal' keeps the asymmetric transcription in which only
    dphi+/dtau carries the exchange and detuning terms; the default
    'symmetrized' adds to dphi-/dtau the exchange term -i c2 phi0^2 conj(phi+)
    and the detuning -i(Theta+delta) phi- mirroring dphi+/dtau, restoring
    exact N (gamma = 0) and m conservation. Decay gamma enters only the
    molecular equation.
    """
    if variant not in ("literal", "symmetrized"):
        raise InvalidInputError("variant must be 'literal' or 'symmetrized'")
    if state.a_m is None:
        raise InvalidInputError("resonant family needs the molecular amplitude")
    y = np.array([state.a_plus, state.a_zero, state.a_minus, state.a_m],
                 dtype=complex)
    d = _rhs_res(tau, y, params.c2n, params.small_delta, params.gamma,
                 pulse.omega_p_fn, pulse.omega_d_fn, pulse.theta_fn,
                 variant == "symmetrized")
    return complex(d[0]), complex(d[1]), complex(d[2]), complex(d[3])


def _rhs_res(tau, y, c2, delta, gamma, op_fn, od_fn, th_fn, symmetrized):
    fp, f0, fm, fmol = y
    np_ = fp.real ** 2 + fp.imag ** 2
    n0 = f0.real ** 2 + f0.imag ** 2
    nm = fm.real ** 2 + fm.imag ** 2
    op = op_fn(tau)
    od = od_fn(tau)
    th = th_fn(tau)
    dfp = (-1j * (c2 * (np_ + n0 - nm)) * fp
           - 1j * c2 * f0 * f0 * fm.conjugate()
           + 1j * od * fmol * fm.conjugate()
           - 1j * (th + delta) * fp)
    df0 = (-1j * (c2 * (np_ + nm)) * f0
           - 2j * c2 * fp * fm * f0.conjugate()
           - 2j * op * fmol * f0.conjugate())
    dfm = (-1j * (c2 * (nm + n0 - np_)) * fm
           + 1j * od * fmol * fp.conjugate())
    if symmetrized:
        dfm = dfm - 1j * c2 * f0 * f0 * fp.conjugate() - 1j * (th + delta) * fm
    dfmol = (1j * od * fp * fm - 1j * op * f0 * f0
             - (1j * delta + gamma) * fmol)
    return np.array([dfp, df0, dfm, dfmol])


# ---------------------------------------------------------------------------
# integration

_FAMILIES = ("effective", "pendulum", "resonant")


def integrate(family: str,
              initial: Union[SpinorAmplitudes, PendulumState],
              params: SystemParams,
              tau_span: tuple[float, float],
              coupling: Optional[CouplingSummary] = None,
              pulse=None,
              config: Optional[IntegratorConfig] = None,
              sampling: Union[int, Sequence[float]] = 1001,
              variant: str = "symmetrized",
              events: Optional[list] = None,
              dense_output: bool = False) -> Trajectory:
    """Integrate one RHS family over tau_span and sample it.

    sampling is either a point count (uniform grid over the span) or an
    explicit tau grid. Monitors (total N, magnetization, energy where
    defined) are attached to the returned Trajectory. Step-size underflow or
    solver failure raises NumericalError carrying the failure time.
    """
    if family not in _FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    cfg = config or IntegratorConfig()
    if isinstance(sampling, int):
        t_eval = np.linspace(tau_span[0], tau_span[1], sampling)
    else:
        t_eval = np.asarray(sampling, dtype=float)

    if family == "effective":
        if coupling is None:
            raise InvalidInputError("effective family needs a CouplingSummary")
        require_normalized(initial)
        y0 = np.array([initial.a_plus, initial.a_zero, initial.a_minus],
                      dtype=complex)
        fun = _rhs_eff
        args = (coupling.c_eff, params.c2n, params.q,
                coupling.lightshift_delta, coupling.lightshift_p)
    elif family == "pendulum":
        if coupling is None:
            raise InvalidInputError("pendulum family needs a CouplingSummary")
        if (1.0 - initial.n_zero) ** 2 - initial.m_mag ** 2 <= 0.0:
            raise DomainError("pendulum initial state on the domain boundary")
        y0 = np.array([initial.theta, initial.n_zero])
        fun = _rhs_pend
        args = (coupling.c_eff, params.c2n, params.q, initial.m_mag,
                coupling.lightshift_delta, coupling.lightshift_p)
        boundary = _pendulum_boundary_event(initial.m_mag)
        events = [boundary] + list(events or [])
    else:
        if pulse is None:
            raise InvalidInputError("resonant family needs a pulse schedule")
        if variant not in ("literal", "symmetrized"):
            raise InvalidInputError("variant must be 'literal' or 'symmetrized'")
        require_normalized(initial)
        y0 = np.array([initial.a_plus, initial.a_zero, initial.a_minus,
                       initial.a_m if initial.a_m is not None else 0.0],
                      dtype=complex)
        fun = _rhs_res
        args = (params.c2n, params.small_delta, params.gamma,
                pulse.omega_p_fn, pulse.omega_d_fn, pulse.theta_fn,
                variant == "symmetrized")

    sol = solve_ivp(fun, tau_span, y0, method="RK45", args=args,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
                    t_eval=t_eval, events=events, dense_output=dense_output)
    if sol.status == -1:
        raise NumericalError(f"integration failed: {sol.message}",
                             tau=float(sol.t[-1]) if len(sol.t) else tau_span[0])
    if family == "pendulum" and sol.t_events and len(sol.t_events[0]):
        raise DomainError(
            f"pendulum trajectory hit the (1-n0)^2 = m^2 boundary at "
            f"tau = {sol.t_events[0][0]:g}")

    m0 = initial.m_mag if family == "pendulum" else 0.0
    traj = Trajectory(family=family, times=sol.t, values=sol.y,
                      m_mag=m0, solver=sol)
    _attach_monitors(traj, params, coupling)
    return traj


def _pendulum_boundary_event(m_mag):
    def boundary(tau, y, *a):
        return (1.0 - y[1]) ** 2 - m_mag ** 2 - 1e-12
    boundary.terminal = True
    boundary.direction = -1
    return boundary


def _attach_monitors(traj: Trajectory, params: SystemParams,
                     coupling: Optional[CouplingSummary]) -> None:
    if traj.family == "pendulum":
        theta, n0 = traj.values
        m = traj.m_mag  # bound into the flow; conserved structurally
        traj.monitors["total_n"] = np.ones_like(traj.times)
        traj.monitors["magnetization"] = np.full_like(traj.times, m)
        traj.monitors["energy"] = energy_functional(
            theta, n0, m, coupling.c_eff, params.c2n, params.q,
            coupling.lightshift_delta, coupling.lightshift_p)
        return
    pops = np.abs(traj.values) ** 2
    if traj.family == "effective":
        traj.monitors["total_n"] = pops.sum(axis=0)
        traj.monitors["magnetization"] = pops[0] - pops[2]
        theta = (np.angle(traj.values[0]) + np.angle(traj.values[2])
                 - 2.0 * np.angle(traj.values[1]))
        traj.monitors["energy"] = energy_functional(
            theta, pops[1], pops[0] - pops[2], coupling.c_eff, params.c2n,
            params.q, coupling.lightshift_delta, coupling.lightshift_p)
    else:
        traj.monitors["total_n"] = pops[0] + pops[1] + pops[2] + 2.0 * pops[3]
        traj.monitors["magnetization"] = pops[0] - pops[2]


class CrossValidation(NamedTuple):
    max_dev_n0: float
    max_dev_theta: float


def crossvalidate_amplitude_vs_pendulum(
        initial: SpinorAmplitudes, params: SystemParams,
        coupling: CouplingSummary, tau_span: tuple[float, float],
        config: Optional[IntegratorConfig] = None,
        sampling: int = 2001) -> CrossValidation:
    """Integrate the same start through both formulations and compare.

    Returns sup-norm deviations of n0(tau) and of theta(tau) mod 2pi. The
    pendulum's fixed m is taken from the initial amplitudes.
    """
    obs_n0 = abs(initial.a_zero) ** 2
    m = abs(initial.a_plus) ** 2 - abs(initial.a_minus) ** 2
    theta0 = (np.angle(initial.a_plus) + np.angle(initial.a_minus)
              - 2.0 * np.angle(initial.a_zero))
    amp = integrate("effective", initial, params, tau_span,
                    coupling=coupling, config=config, sampling=sampling)
    pend = integrate("pendulum", PendulumState(float(theta0), obs_n0, m),
                     params, tau_span, coupling=coupling, config=config,
                     sampling=sampling)
    n0_amp = np.abs(amp.values[1]) ** 2
    dev_n0 = float(np.abs(n0_amp - pend.values[1]).max())
    dth = amp.theta() - pend.values[0]
    dev_th = float(np.abs(np.angle(np.exp(1j * dth))).max())
    return CrossValidation(dev_n0, dev_th)
