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
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.integrate import RK45, solve_ivp

from .core import CouplingSummary, SpinorAmplitudes, SystemParams, require_normalized
from .errors import DomainError, InvalidInputError, NumericalError


# n0 = 1 - |m| computed in floating point can land a few ulp past the
# domain edge (for m = 0.1, (1 - 0.9)^2 - 0.1^2 = -1.7e-18)
_EDGE_SLACK = 4.0 * np.finfo(float).eps


def outside_domain(n_zero, m_mag):
    """True where (1-n0)^2 < m^2 by more than rounding at the edge
    n0 = 1 - |m|; n_zero may be an array."""
    return np.abs(1.0 - n_zero) < abs(m_mag) - _EDGE_SLACK


@dataclass(frozen=True)
class PendulumState:
    """(theta, n0) pair with fixed magnetization m = n+ - n-."""

    theta: float
    n_zero: float
    m_mag: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.n_zero <= 1.0:
            raise InvalidInputError("n_zero must lie in [0, 1]")
        if outside_domain(self.n_zero, self.m_mag):
            raise InvalidInputError("(1-n0)^2 - m^2 must be >= 0")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for the embedded adaptive 5(4) pair."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

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
        return np.unwrap(relative_phase(*self.values[:3]))


def relative_phase(a_plus, a_zero, a_minus):
    """theta = arg a+ + arg a- - 2 arg a0 (not unwrapped)."""
    return np.angle(a_plus) + np.angle(a_minus) - 2.0 * np.angle(a_zero)


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
    theta = relative_phase(state.a_plus, state.a_zero, state.a_minus)
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


def _symmetrized(variant: str) -> bool:
    """Check a resonant equation variant; True for 'symmetrized'."""
    if variant not in ("literal", "symmetrized"):
        raise InvalidInputError("variant must be 'literal' or 'symmetrized'")
    return variant == "symmetrized"


def rhs_resonant(state: SpinorAmplitudes, params: SystemParams, pulse,
                 tau: float = 0.0,
                 variant: str = "symmetrized") -> tuple[complex, complex, complex, complex]:
    """d(phi+, phi0, phi-, phi_m)/dtau for the resonant four-mode system.

    `pulse` is a cpt.PulseSchedule; its drive(tau) gives the pump, dump and
    two-photon detuning. variant 'literal' keeps the asymmetric
    transcription in which only dphi+/dtau carries the exchange and
    detuning terms; the default
    'symmetrized' adds to dphi-/dtau the exchange term -i c2 phi0^2 conj(phi+)
    and the detuning -i(Theta+delta) phi- mirroring dphi+/dtau, restoring
    exact N (gamma = 0) and m conservation. Decay gamma enters only the
    molecular equation.
    """
    symmetrized = _symmetrized(variant)
    if state.a_m is None:
        raise InvalidInputError("resonant family needs the molecular amplitude")
    y = np.array([state.a_plus, state.a_zero, state.a_minus, state.a_m],
                 dtype=complex)
    d = _rhs_res(tau, y, params.c2n, params.small_delta, params.gamma,
                 pulse.drive, symmetrized)
    return complex(d[0]), complex(d[1]), complex(d[2]), complex(d[3])


def _rhs_res(tau, y, c2, delta, gamma, drive, symmetrized):
    # y is (4,) for one state or (4, R) for R states stacked as columns;
    # shared terms are computed once, in the order the equations group them
    fp, f0, fm, fmol = y
    np_ = fp.real ** 2 + fp.imag ** 2
    n0 = f0.real ** 2 + f0.imag ** 2
    nm = fm.real ** 2 + fm.imag ** 2
    cp, c0, cm = y[:3].conjugate()
    op, od, th = drive(tau)
    detune = 1j * (th + delta)
    collide = 1j * c2 * f0 * f0
    dump = 1j * od * fmol
    dfp = (-1j * (c2 * (np_ + n0 - nm)) * fp
           - collide * cm
           + dump * cm
           - detune * fp)
    df0 = (-1j * (c2 * (np_ + nm)) * f0
           - 2j * c2 * fp * fm * c0
           - 2j * op * fmol * c0)
    dfm = (-1j * (c2 * (nm + n0 - np_)) * fm
           + dump * cp)
    if symmetrized:
        dfm = dfm - collide * cp - detune * fm
    dfmol = (1j * od * fp * fm - 1j * op * f0 * f0
             - (1j * delta + gamma) * fmol)
    return np.array([dfp, df0, dfm, dfmol])


# ---------------------------------------------------------------------------
# integration

_FAMILIES = ("effective", "pendulum", "resonant")


def _sample_grid(tau_span, sampling) -> np.ndarray:
    if isinstance(sampling, int):
        return np.linspace(tau_span[0], tau_span[1], sampling)
    return np.asarray(sampling, dtype=float)


def _amplitude_system(family: str, initial: SpinorAmplitudes,
                      params: SystemParams, coupling, pulse, variant: str):
    """(y0, rhs, rhs extra arguments) of an amplitude family."""
    if family == "effective":
        if coupling is None:
            raise InvalidInputError("effective family needs a CouplingSummary")
        require_normalized(initial)
        y0 = np.array([initial.a_plus, initial.a_zero, initial.a_minus],
                      dtype=complex)
        return y0, _rhs_eff, (coupling.c_eff, params.c2n, params.q,
                              coupling.lightshift_delta, coupling.lightshift_p)
    if pulse is None:
        raise InvalidInputError("resonant family needs a pulse schedule")
    symmetrized = _symmetrized(variant)
    require_normalized(initial)
    y0 = np.array([initial.a_plus, initial.a_zero, initial.a_minus,
                   initial.a_m if initial.a_m is not None else 0.0],
                  dtype=complex)
    return y0, _rhs_res, (params.c2n, params.small_delta, params.gamma,
                          pulse.drive, symmetrized)


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
    t_eval = _sample_grid(tau_span, sampling)

    if family == "pendulum":
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
        y0, fun, args = _amplitude_system(family, initial, params, coupling,
                                          pulse, variant)

    sol = solve_ivp(fun, tau_span, y0, method="RK45", args=args,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol,
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


# ---------------------------------------------------------------------------
# batched integration: many starts of one amplitude family, each with its
# own step control

class BatchTrajectory(NamedTuple):
    """Sampled states of a batch: values[:, j, :] is start j on `times`."""

    times: np.ndarray        # (samples,)
    values: np.ndarray       # (components, starts, samples)


def integrate_batch(family: str,
                    initials: Sequence[SpinorAmplitudes],
                    params: SystemParams,
                    tau_span: tuple[float, float],
                    coupling: Optional[CouplingSummary] = None,
                    pulse=None,
                    config: Optional[IntegratorConfig] = None,
                    sampling: Union[int, Sequence[float]] = 1001,
                    variant: str = "symmetrized") -> BatchTrajectory:
    """Integrate many starts of an amplitude family in one loop.

    The starts are the columns of one (n, R) state. Each column keeps its
    own tau, step and accept/reject state under scipy's RK45 rules (see
    _dopri_batch), so column j reproduces integrate(family, initials[j],
    ...) to rounding, and no column's numbers depend on the others. Runs
    forward only (tau_span[1] > tau_span[0]); sampling as in integrate(),
    increasing. A step that falls below ten ulp of tau raises NumericalError
    naming the start (`member`, its index) and the tau where it failed.
    """
    if family not in ("effective", "resonant"):
        raise InvalidInputError(
            f"batched integration takes 'effective' or 'resonant', "
            f"not {family!r}")
    if len(initials) == 0:
        raise InvalidInputError("batched integration needs at least one start")
    t0, t_bound = float(tau_span[0]), float(tau_span[1])
    if not t_bound > t0:
        raise InvalidInputError("batched integration needs tau_span[1] > "
                                "tau_span[0]")
    t_eval = _sample_grid(tau_span, sampling)
    if (np.any(np.diff(t_eval) <= 0.0) or t_eval[0] < t0
            or t_eval[-1] > t_bound):
        raise InvalidInputError("sampling must increase within tau_span")
    cfg = config or IntegratorConfig()
    columns = [_amplitude_system(family, st, params, coupling, pulse, variant)
               for st in initials]
    _, fun, args = columns[0]
    y0 = np.stack([c[0] for c in columns], axis=1)
    values = _dopri_batch(lambda t, y: fun(t, y, *args), t0, t_bound, y0,
                          t_eval, cfg.rel_tol, cfg.abs_tol)
    return BatchTrajectory(t_eval, values)


# scipy's RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)):
# tableau, dense-output matrix and step-size factors
_A, _B, _C, _E, _P = RK45.A, RK45.B, RK45.C, RK45.E, RK45.P
_STAGES = RK45.n_stages
_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(x: np.ndarray) -> np.ndarray:
    """Column RMS norm of a complex (n, R) array (scipy's norm per column);
    rows are summed one by one so a column never depends on the others."""
    re, im = x.real, x.imag
    sq_re, sq_im = re[0] * re[0], im[0] * im[0]
    for i in range(1, len(x)):
        sq_re = sq_re + re[i] * re[i]
        sq_im = sq_im + im[i] * im[i]
    return np.sqrt(sq_re + sq_im) / len(x) ** 0.5


def _combine(K: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] K[j], summed in stage order."""
    return (K[:len(coeffs)] * coeffs[:, None, None]).sum(axis=0)


def _initial_step(fun, t, y, f, t_bound, rtol, atol) -> np.ndarray:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, Sec. II.4)
    per column, for a forward run with no maximum step."""
    interval = t_bound - t[0]
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    flat = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(flat, 1e-6, 0.01 * d0 / np.where(flat, 1.0, d1))
    h0 = np.minimum(h0, interval)
    f1 = fun(t + h0, y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    still = (d1 <= 1e-15) & (d2 <= 1e-15)
    d12 = np.where(still, 1.0, np.maximum(d1, d2))
    h1 = np.where(still, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / d12) ** -_ERROR_EXPONENT)
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _dopri_batch(fun, t0: float, t_bound: float, y0: np.ndarray,
                 t_eval: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """Step every column of y0 from t0 to t_bound; return the states
    sampled on t_eval, shape (n, R, len(t_eval)).

    One loop pass is one step attempt of every unfinished column. Per
    column the rules are scipy's RK45._step_impl: a new step starts at no
    less than ten ulp of tau and fails if a rejected step shrinks below
    that; the RMS error norm is scaled by atol + rtol max(|y|, |y_new|);
    the step grows by min(10, 0.9 err^-1/5) (10 at zero error, at most 1
    after a rejection in the same step) and shrinks by max(0.2,
    0.9 err^-1/5). Samples inside an accepted step come from its quartic
    dense output, as solve_ivp's t_eval does. Finished columns leave the
    working arrays; nothing per step is kept.
    """
    n, width = y0.shape
    out = np.empty((n, width, len(t_eval)), dtype=y0.dtype)
    cols = np.arange(width)            # batch index of each working column
    t = np.full(width, t0)
    y = y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    rejected = np.zeros(width, dtype=bool)
    nxt = np.zeros(width, dtype=int)   # next t_eval index per column
    K = np.empty((_STAGES + 1,) + y.shape, dtype=y.dtype)
    while len(cols):
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected | (h_abs >= min_step), h_abs, min_step)
        too_small = h_abs < min_step
        if too_small.any():
            j = int(np.argmax(too_small))
            raise NumericalError(
                f"integration failed for member {cols[j]}: required step "
                f"size is less than spacing between numbers at tau = "
                f"{t[j]!r}", tau=float(t[j]), member=int(cols[j]))
        t_new = t + h_abs
        t_new = np.where(t_new - t_bound > 0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)

        K[0] = f
        for s in range(1, _STAGES):
            dy = _combine(K, _A[s, :s]) * h
            K[s] = fun(t + _C[s] * h, y + dy)
        y_new = y + h * _combine(K, _B)
        f_new = fun(t + h, y_new)
        K[-1] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = _rms(_combine(K, _E) * h / scale)
        ok = err < 1.0
        # fmax: a NaN error shrinks the step as scipy's max() does
        pow_err = _SAFETY * np.where(err == 0.0, 1.0, err) ** _ERROR_EXPONENT
        grow = np.where(err == 0.0, _MAX_FACTOR,
                        np.minimum(_MAX_FACTOR, pow_err))
        grow = np.where(rejected, np.minimum(1.0, grow), grow)
        h_abs = h_abs * np.where(ok, grow, np.fmax(_MIN_FACTOR, pow_err))
        rejected = ~ok
        if not ok.any():
            continue

        acc = np.flatnonzero(ok)
        last = np.searchsorted(t_eval, t_new[acc], side="right")
        count = last - nxt[acc]
        if count.any():
            _sample_steps(out, K, acc, count, nxt, cols, t, h, y, t_eval)
        nxt[acc] = last
        t = np.where(ok, t_new, t)
        y = np.where(ok, y_new, y)
        f = np.where(ok, f_new, f)

        running = ~(ok & (t_new >= t_bound))
        if not running.all():
            cols, t, h_abs = cols[running], t[running], h_abs[running]
            rejected, nxt = rejected[running], nxt[running]
            y, f = y[:, running], f[:, running]
            K = np.empty((_STAGES + 1,) + y.shape, dtype=y.dtype)
    return out


def _sample_steps(out, K, acc, count, nxt, cols, t_old, h, y_old, t_eval):
    """Write the t_eval samples of the accepted steps `acc` (count[i] of
    them from nxt[acc[i]] on) from each step's dense output, evaluated as
    scipy's RkDenseOutput: y_old + h (Q . [x, x^2, x^3, x^4]), Q = K^T P."""
    step = np.repeat(acc, count)                         # working column
    first = np.repeat(nxt[acc] - np.cumsum(count) + count, count)
    sample = first + np.arange(len(step))                # t_eval index
    Kc = K[:, :, step]
    x = (t_eval[sample] - t_old[step]) / h[step]
    p = x
    poly = _combine(Kc, _P[:, 0]) * p
    for k in range(1, _P.shape[1]):
        p = p * x
        poly = poly + _combine(Kc, _P[:, k]) * p
    out[:, cols[step], sample] = h[step] * poly + y_old[:, step]


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
        theta = relative_phase(*traj.values)
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
    theta0 = relative_phase(initial.a_plus, initial.a_zero, initial.a_minus)
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
