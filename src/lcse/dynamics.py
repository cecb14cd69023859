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
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

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


def require_interior(state: PendulumState) -> None:
    """Start gate of the pendulum flow: dtheta/dtau is singular on the
    edge (1-n0)^2 = m^2, which PendulumState itself admits (landscape
    starts may sit there)."""
    if (1.0 - state.n_zero) ** 2 - state.m_mag ** 2 <= 0.0:
        raise DomainError("pendulum initial state on the domain boundary")


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
    y = [complex(a) for a in (state.a_plus, state.a_zero, state.a_minus)]
    return tuple(_rhs_eff(y, coupling.c_eff, params.c2n, params.q,
                          coupling.lightshift_delta, coupling.lightshift_p))


def _rhs_eff(y, c_eff, c2, q, ls_delta, ls_p):
    # one state as a list of Python complex costs a fraction of numpy
    # scalar arithmetic and gives a list; an array, one state (3,) or a
    # batch (3, R), runs on its rows and gives an array
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
    d = [dap, da0, dam]
    return np.array(d) if isinstance(y, np.ndarray) else d


def rhs_pendulum(state: PendulumState, params: SystemParams,
                 coupling: CouplingSummary) -> tuple[float, float]:
    """(dtheta, dn0)/dtau: dn0 = -2 dE/dtheta, dtheta = +2 dE/dn0.

    The factor and sign are fixed by agreement with the amplitude flow.
    """
    s2 = (1.0 - state.n_zero) ** 2 - state.m_mag ** 2
    if s2 <= 0.0:
        raise DomainError("pendulum state on the (1-n0)^2 = m^2 boundary")
    return tuple(_rhs_pend(0.0, [float(state.theta), float(state.n_zero)],
                           coupling.c_eff, params.c2n, params.q, state.m_mag,
                           coupling.lightshift_delta, coupling.lightshift_p))


def _rhs_pend(tau, y, c_eff, c2, q, m_mag, ls_delta, ls_p):
    # on Python floats, also for an array y (as solve_ivp hands it); returns
    # a list. dtheta is 2 dE/dn0 of energy_functional, with the guard
    # dS/dn0 = 0 at S = 0
    theta, n0 = y.tolist() if isinstance(y, np.ndarray) else y
    s = math.sqrt(max((1.0 - n0) ** 2 - m_mag ** 2, 0.0))
    ds = -(1.0 - n0) / s if s > 0.0 else 0.0
    dn0 = 2.0 * c_eff * n0 * s * math.sin(theta)
    dth = 2.0 * (-q + c_eff * math.cos(theta) * (s + n0 * ds)
                 + c2 * (1.0 - 2.0 * n0)
                 + 0.5 * ls_delta * (1.0 - n0)
                 - 2.0 * ls_p * n0)
    return [dth, dn0]


def _symmetrized(variant: str, family: str = "resonant") -> bool:
    """Check the equation variant of a run of family; True for
    'symmetrized'. Only the resonant equations have a 'literal'
    transcription: the others have no exchange terms to transcribe."""
    takes = (("literal", "symmetrized") if family == "resonant"
             else ("symmetrized",))
    if variant not in takes:
        raise InvalidInputError(f"the {family} family takes variant "
                                f"{' or '.join(takes)}, not {variant!r}")
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
    rows, coeffs = _resonant_operands(params, pulse, _symmetrized(variant))
    if state.a_m is None:
        raise InvalidInputError("resonant family needs the molecular amplitude")
    y = [complex(a) for a in (state.a_plus, state.a_zero, state.a_minus,
                              state.a_m)]
    return tuple(_res_body(y, *rows(tau), *coeffs))


def _resonant_operands(params: SystemParams, pulse, symmetrized: bool):
    """(rows, coeffs) of _res_body: rows(tau) is (-i Omega_p, -i Omega_d,
    -i (Theta + delta)) from pulse.drive(tau), coeffs (-i c2,
    -(i delta + gamma), symmetrized). A locked Theta is computed from the
    pulse's c2n and small_delta, so they must be the run's."""
    delta = params.small_delta
    if pulse.theta_variant != "fixed" and (
            pulse.c2n, pulse.small_delta) != (params.c2n, delta):
        raise InvalidInputError(
            f"the {pulse.theta_variant} lock takes c2n = {pulse.c2n!r}, "
            f"small_delta = {pulse.small_delta!r} from its pulse, but the "
            f"run has c2n = {params.c2n!r}, small_delta = {delta!r}")

    def rows(tau):
        op, od, th = pulse.drive(tau)
        return -1j * op, -1j * od, -1j * (th + delta)
    return rows, (-1j * params.c2n, -(1j * delta + params.gamma), symmetrized)


def _res_body(y, pump, dump, detune, c2, loss, symmetrized):
    # d(phi+, phi0, phi-, phi_m)/dtau with every operand already times -i
    # (see _resonant_operands), so no term is rotated on its own; |f|^2 is
    # f conj(f), so a batch whose operands are all complex runs only
    # complex-complex numpy loops. One state as a list runs on Python
    # complex and gives a list; an array, one state (4,) or R states stacked
    # as columns (4, R), takes its conjugates and populations in one numpy
    # operation each, runs on its rows and gives an array
    array = isinstance(y, np.ndarray)
    if not array:
        fp, f0, fm, fmol = y
        cp, c0, cm = fp.conjugate(), f0.conjugate(), fm.conjugate()
        cnp, cn0, cnm = c2 * (fp * cp), c2 * (f0 * c0), c2 * (fm * cm)
    else:
        cy = y.conj()
        cn = c2 * (y * cy)
        fp, f0, fm, fmol = y[0], y[1], y[2], y[3]
        cp, c0, cm = cy[0], cy[1], cy[2]
        cnp, cn0, cnm = cn[0], cn[1], cn[2]
    pair = fp * fm
    f00 = f0 * f0
    dmol = dump * fmol
    exchange = c2 * f00 - dmol
    source = c2 * pair + pump * fmol
    # c2 (n0 +- (n+ - n-)) and the detuning, on phi+ and phi-
    base, imbalance = cn0 + detune, cnp - cnm
    dfp = (base + imbalance) * fp + exchange * cm
    df0 = (cnp + cnm) * f0 + (source + source) * c0
    if symmetrized:
        dfm = (base - imbalance) * fm + exchange * cp
    else:
        dfm = (cn0 - imbalance) * fm - dmol * cp
    dfmol = pump * f00 - dump * pair + loss * fmol
    d = [dfp, df0, dfm, dfmol]
    return np.array(d) if array else d


# ---------------------------------------------------------------------------
# integration

def _sample_grid(tau_span, sampling) -> tuple[float, float, np.ndarray]:
    """(t0, t_bound, t_eval) of a forward run over tau_span sampled at
    `sampling` points, an integer >= 2: the one check of span and samples."""
    t0, t_bound = float(tau_span[0]), float(tau_span[1])
    if not -math.inf < t0 < t_bound < math.inf:
        raise InvalidInputError(f"tau_span must be finite, tau_span[1] > "
                                f"tau_span[0], not {tau_span!r}")
    if (isinstance(sampling, bool) or not hasattr(sampling, "__index__")
            or operator.index(sampling) < 2):
        raise InvalidInputError(f"sampling must be an integer >= 2, not "
                                f"{sampling!r}")
    return t0, t_bound, np.linspace(t0, t_bound, sampling)


def _no_rows(tau) -> tuple:
    """The effective family's drive: folded into its coefficients."""
    return ()


def _amplitude_system(family: str, initials: Sequence[SpinorAmplitudes],
                      params: SystemParams, coupling, pulse,
                      symmetrized: bool):
    """(y0, body, rows, coeffs) of an amplitude family's run: y0 holds the
    starts as the columns of one C-contiguous (n, R) array, and the
    derivative at tau is body(y, *rows(tau), *coeffs) for a state of shape
    (n,) or (n, R), rows(tau) being the drive operands at tau. The system
    is built once, whatever R; a start is only checked for normalization."""
    if family == "effective":
        if coupling is None:
            raise InvalidInputError("effective family needs a CouplingSummary")
        n, system = 3, (_rhs_eff, _no_rows, (
            coupling.c_eff, params.c2n, params.q, coupling.lightshift_delta,
            coupling.lightshift_p))
    elif pulse is None:
        raise InvalidInputError("resonant family needs a pulse schedule")
    else:
        n, system = 4, (_res_body,
                        *_resonant_operands(params, pulse, symmetrized))
    for st in initials:
        require_normalized(st)
    y0 = np.array([(st.a_plus, st.a_zero, st.a_minus,
                    0.0 if st.a_m is None else st.a_m)[:n] for st in initials],
                  dtype=complex)
    return (y0.T.copy(), *system)


# Dormand & Prince's RK45 pair (J. Comput. Appl. Math. 6, 19 (1980)) with
# Shampine's quartic dense output (Math. Comp. 46, 135 (1986)), the doubles
# scipy's RK45 holds: stage nodes C; stage weights A, row s holding the s
# weights of stage s; solution weights B; error weights E over the six
# stages and the end-of-step derivative; dense-output matrix P, whose row s
# weighs stage s into the coefficients of x, x^2, x^3, x^4
_C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
_A = ((),
      (1/5,),
      (3/40, 9/40),
      (44/45, -56/15, 32/9),
      (19372/6561, -25360/2187, 64448/6561, -212/729),
      (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = ((1.0, -8048581381/2820520608, 8663915743/2820520608,
       -12715105075/11282082432),
      (0.0, 0.0, 0.0, 0.0),
      (0.0, 131558114200/32700410799, -68118460800/10900136933,
       87487479700/32700410799),
      (0.0, -1754552775/470086768, 14199869525/1410260304,
       -10690763975/1880347072),
      (0.0, 127303824393/49829197408, -318862633887/49829197408,
       701980252875/199316789632),
      (0.0, -282668133/205662961, 2019193451/616988883,
       -1453857185/822651844),
      (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423))
_STAGES = len(_C)
# the step factor is 0.9 err^(-1/5), 1/5 = 1 / (error estimator order + 1),
# within [0.2, 10]
_ERROR_EXPONENT = -0.2
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def integrate(family: str,
              initial: Union[SpinorAmplitudes, PendulumState],
              params: SystemParams,
              tau_span: tuple[float, float],
              coupling: Optional[CouplingSummary] = None,
              pulse=None,
              config: Optional[IntegratorConfig] = None,
              sampling: int = 1001,
              variant: str = "symmetrized") -> Trajectory:
    """Integrate one RHS family forward over tau_span and sample it.

    tau_span is finite with tau_span[1] > tau_span[0], `sampling`, the
    uniform sample count, an integer >= 2, and variant 'symmetrized' or,
    for the resonant family only, 'literal'; each is checked once, here.
    Monitors (total N, magnetization, energy where defined) are attached
    to the returned Trajectory. A step below ten ulp of tau, or a run past
    _MAX_STEP_ATTEMPTS trial steps, raises NumericalError carrying the tau
    reached; a pendulum orbit that reaches the (1-n0)^2 = m^2 edge raises
    DomainError.
    """
    if family not in ("effective", "pendulum", "resonant"):
        raise InvalidInputError(f"unknown family {family!r}")
    cfg = config or IntegratorConfig()
    t0, t_bound, t_eval = _sample_grid(tau_span, sampling)
    symmetrized = _symmetrized(variant, family)
    if family == "pendulum":
        if coupling is None:
            raise InvalidInputError("pendulum family needs a CouplingSummary")
        require_interior(initial)
        y0 = [float(initial.theta), float(initial.n_zero)]
        args = (coupling.c_eff, params.c2n, params.q, initial.m_mag,
                coupling.lightshift_delta, coupling.lightshift_p)
        m2 = initial.m_mag ** 2

        def fun(tau, y):
            return _rhs_pend(tau, y, *args)

        def edge(y):
            return (1.0 - y[1]) ** 2 - m2 - 1e-12
    else:
        y0, body, rows, coeffs = _amplitude_system(
            family, [initial], params, coupling, pulse, symmetrized)
        y0, edge = y0[:, 0].tolist(), None

        def fun(tau, y):
            return body(y, *rows(tau), *coeffs)

    values = _dopri(fun, t0, t_bound, y0, t_eval, cfg.rel_tol, cfg.abs_tol,
                    edge)
    m0 = initial.m_mag if family == "pendulum" else 0.0
    traj = Trajectory(family=family, times=t_eval,
                      values=values.real if family == "pendulum" else values,
                      m_mag=m0)
    _attach_monitors(traj, params, coupling)
    return traj


def _rms_one(x: list) -> float:
    """RMS norm of a list of Python numbers (scipy's norm)."""
    squares = [(z * z.conjugate()).real for z in x]
    return math.sqrt(sum(squares)) / len(x) ** 0.5


def _select_initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, Sec. II.4) for
    one state on a forward run, with no maximum step; _initial_step is the
    batch's."""
    interval = t_bound - t0
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms_one([yi / s for yi, s in zip(y0, scale)])
    d1 = _rms_one([fi / s for fi, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [yi + h0 * fi for yi, fi in zip(y0, f0)])
    d2 = _rms_one([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


# the most step attempts one run may make: trial steps of a single run,
# loop passes of a batch; past it the run raises NumericalError. The
# presets, the tests and the benchmark make at most 6,453 (a lossy fig4
# transfer), so a run that needs 150 times that is taken to be stuck on a
# stiff drive (effective, omega_p = omega_d = 1e3, big_delta_prime = 1)
_MAX_STEP_ATTEMPTS = 1_000_000


def _stopped(tau: float, member: Optional[int] = None,
             floor: bool = False) -> NumericalError:
    """The error of a run that stopped at tau: past _MAX_STEP_ATTEMPTS, or
    (floor) with a step below ten ulp of tau; in a batch it names the
    member (the one furthest behind, or the first below the floor)."""
    who = "" if member is None else f" for member {member}"
    what = (f"failed{who}: required step size is less than spacing between "
            f"numbers" if floor else
            f"stopped{who} after {_MAX_STEP_ATTEMPTS} step attempts")
    return NumericalError(f"integration {what} at tau = {tau!r}", tau=tau,
                          member=member)


# accepted steps with samples are held and their samples written this many
# steps at a time, so what a run holds is bounded whatever its length (a
# fig4 transfer: about 0.8 MB of heap at 64, 11 MB holding every step);
# fewer steps per write would add the fixed numpy cost of more writes
_HELD_STEPS = 64


def _dopri(fun, t0: float, t_bound: float, y0: list, t_eval: np.ndarray,
           rtol: float, atol: float, edge=None) -> np.ndarray:
    """Step one state forward from t0 to t_bound; return it sampled on
    t_eval, shape (n, len(t_eval)), complex.

    The state is a list of Python numbers and fun(tau, y) returns one, so
    a step makes no numpy call. The step rules are _dopri_batch's (scipy's
    RK45._step_impl); a step below ten ulp of tau raises NumericalError,
    and so does trial step _MAX_STEP_ATTEMPTS + 1. Accepted steps with
    samples are written _HELD_STEPS at a time, from their dense output.

    edge(y), if given, is a boundary function: an accepted step that takes
    it from >= 0 to <= 0 raises DomainError at the crossing, located by
    bisection on that step's dense output (solve_ivp's terminal event on
    a decreasing crossing).
    """
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _A
    b0, _, b2, b3, b4, b5 = _B
    e0, _, e2, e3, e4, e5, e6 = _E
    _, c1, c2, c3, c4, _ = _C
    stops = t_eval.tolist()
    t, y = t0, y0
    f = fun(t, y)
    h_abs = _select_initial_step(fun, t, y, f, t_bound, rtol, atol)
    g = edge(y) if edge else None
    attempts = 0
    nxt = 0                                 # next sample index
    held = []                               # accepted steps with samples
    out = np.empty((len(y0), len(t_eval)), dtype=complex)

    def write(cols, sample, states):
        out[:, sample] = states

    def flush():
        t_old, h, y_old, stages, first, count = (
            np.array(part) for part in zip(*held))
        _sample_steps(write, [(stages.astype(complex).transpose(1, 2, 0) * h,
                               count, first, np.zeros(len(h), dtype=int),
                               t_old, y_old.T, h)], t_eval)
        held.clear()
    while t < t_bound:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if not h_abs >= min_step:           # a NaN step is replaced too
            h_abs = min_step
        rejected = False
        while True:
            attempts += 1
            if attempts > _MAX_STEP_ATTEMPTS:
                raise _stopped(t)
            if h_abs < min_step:
                raise _stopped(t, floor=True)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = h_abs = t_new - t
            k2 = fun(t + c1 * h, [yi + a10 * p1 * h
                                  for yi, p1 in zip(y, f)])
            k3 = fun(t + c2 * h, [yi + (a20 * p1 + a21 * p2) * h
                                  for yi, p1, p2 in zip(y, f, k2)])
            k4 = fun(t + c3 * h, [yi + (a30 * p1 + a31 * p2 + a32 * p3) * h
                                  for yi, p1, p2, p3 in zip(y, f, k2, k3)])
            k5 = fun(t + c4 * h, [
                yi + (a40 * p1 + a41 * p2 + a42 * p3 + a43 * p4) * h
                for yi, p1, p2, p3, p4 in zip(y, f, k2, k3, k4)])
            k6 = fun(t + h, [
                yi + (a50 * p1 + a51 * p2 + a52 * p3 + a53 * p4
                      + a54 * p5) * h
                for yi, p1, p2, p3, p4, p5 in zip(y, f, k2, k3, k4, k5)])
            y_new = [yi + h * (b0 * p1 + b2 * p3 + b3 * p4 + b4 * p5
                               + b5 * p6)
                     for yi, p1, p3, p4, p5, p6 in zip(y, f, k3, k4, k5, k6)]
            f_new = fun(t + h, y_new)
            err = _rms_one([
                (e0 * p1 + e2 * p3 + e3 * p4 + e4 * p5 + e5 * p6
                 + e6 * p7) * h / (atol + max(abs(yi), abs(yn)) * rtol)
                for yi, yn, p1, p3, p4, p5, p6, p7
                in zip(y, y_new, f, k3, k4, k5, k6, f_new)])
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # a NaN error shrinks the step by _MIN_FACTOR
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        stages = (f, k2, k3, k4, k5, k6, f_new)
        if edge:
            g_new = edge(y_new)
            if g >= 0.0 and g_new <= 0.0:
                raise DomainError(
                    f"pendulum trajectory hit the (1-n0)^2 = m^2 boundary at "
                    f"tau = {_crossing(edge, t, h, y, stages):g}")
            g = g_new
        last = bisect_right(stops, t_new, nxt)
        if last > nxt:
            held.append((t, h, y, stages, nxt, last - nxt))
            nxt = last
            if len(held) == _HELD_STEPS:
                flush()
        t, y, f = t_new, y_new, f_new
    if held:
        flush()
    return out


def _crossing(edge, t, h, y, stages) -> float:
    """The tau in the step (t, t + h] where edge() on its dense output comes
    down to zero, by bisection on the step fraction."""
    q = [[sum([k[i] * p[j] for k, p in zip(stages, _P)]) for j in range(4)]
         for i in range(len(y))]

    def edge_at(x):
        return edge([yi + h * x * (q0 + x * (q1 + x * (q2 + x * q3)))
                     for yi, (q0, q1, q2, q3) in zip(y, q)])
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if edge_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h


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
                    sampling: int = 1001,
                    variant: str = "symmetrized") -> BatchTrajectory:
    """Integrate many starts of an amplitude family in one loop.

    The starts are the columns of one (n, R) state. Each column keeps its
    own tau, step and accept/reject state under scipy's RK45 rules (see
    _dopri_batch), so column j reproduces integrate(family, initials[j],
    ...) to rounding, and no column's numbers depend on the others.
    tau_span and sampling are integrate()'s. A step below ten ulp of tau,
    or a run past _MAX_STEP_ATTEMPTS loop passes, raises NumericalError
    naming a start (`member`, its index) and the tau it reached.
    """
    batch = prepare_batch(family, initials, params, tau_span, coupling,
                          pulse, config, sampling, variant)
    values = np.empty(batch.y0.shape + batch.t_eval.shape, dtype=complex)

    def write(cols, sample, states):
        values[:, cols, sample] = states
    batch.run(write)
    return BatchTrajectory(batch.t_eval, values)


class Batch(NamedTuple):
    """A checked batch of starts, ready to step: _dopri_batch's arguments
    but the ones run takes (see prepare_batch)."""

    body: object
    rows: object
    coeffs: tuple
    t0: float
    t_bound: float
    y0: np.ndarray           # (components, starts)
    t_eval: np.ndarray       # (samples,)
    rtol: float
    atol: float

    def run(self, write, first: int = 0, wanted=None) -> None:
        """Step every start from t0 to t_bound, handing each group of
        samples to write(cols, sample, states) as it is made: states[:, i]
        is start cols[i] at t_eval[sample[i]], the starts numbered from
        first. Each (start, sample) pair is written at most once; a
        NumericalError names its start by that number.

        wanted, if given, is an integer array indexed by start number that
        write may raise: once a call of write returns, start c's samples
        below wanted[c] are neither evaluated nor written, except its last
        sample, which every start writes. Without it every sample is
        written."""
        _dopri_batch(*self, write, first, wanted)


def prepare_batch(family: str,
                  initials: Sequence[SpinorAmplitudes],
                  params: SystemParams,
                  tau_span: tuple[float, float],
                  coupling: Optional[CouplingSummary] = None,
                  pulse=None,
                  config: Optional[IntegratorConfig] = None,
                  sampling: int = 1001,
                  variant: str = "symmetrized") -> Batch:
    """Check integrate_batch's arguments and build the Batch it runs, one
    system for every start, so a caller that reduces the samples as they
    come (run_ensemble) need not keep them all."""
    if family not in ("effective", "resonant"):
        raise InvalidInputError(
            f"batched integration takes 'effective' or 'resonant', "
            f"not {family!r}")
    if len(initials) == 0:
        raise InvalidInputError("batched integration needs at least one start")
    t0, t_bound, t_eval = _sample_grid(tau_span, sampling)
    symmetrized = _symmetrized(variant, family)
    cfg = config or IntegratorConfig()
    y0, body, rows, coeffs = _amplitude_system(
        family, initials, params, coupling, pulse, symmetrized)
    return Batch(body, rows, coeffs, t0, t_bound, y0, t_eval, cfg.rel_tol,
                 cfg.abs_tol)


# the tableau's weights of the stage sums, the error estimate and the dense
# output as complex columns, so that every product in the loop multiplies
# two complex arrays: numpy's mixed float-complex loops cost about 1.5 times
# as much
_A_COLUMNS = [np.array(row, dtype=complex)[:, None, None] for row in _A]
_B_COLUMN = np.array(_B, dtype=complex)[:, None, None]
_E_COLUMN = np.array(_E, dtype=complex)[:, None, None]
_P_COLUMNS = np.array(_P, dtype=complex)[:, None, None, :]
_C_COLUMN = np.array(_C[1:])[:, None]   # the nodes of stages 2 to 6


def _rms(x: np.ndarray) -> np.ndarray:
    """Column RMS norm of a complex (n, R) array (scipy's norm per column);
    the squares are summed down axis 0, row after row, so a column never
    depends on the others."""
    return np.sqrt(np.add.reduce((x * x.conj()).real, axis=0)) / len(x) ** 0.5


def _combine(K: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] K[j], summed in stage order."""
    return np.add.reduce(K[:len(weights)] * weights, axis=0)


def _complex_operands(coeffs: tuple) -> tuple:
    """coeffs with each number as a 0-d complex array (flags stay as they
    are), the form the batch loop hands its kernel."""
    return tuple(c if isinstance(c, bool) else np.asarray(c, dtype=complex)
                 for c in coeffs)


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


# below this error the step factor is _MAX_FACTOR whatever the error, as
# scipy's is at error 0 (0.9 * 1e-300 ** -0.2 = 9e59)
_TINY_ERROR = 1e-300
# accepted steps with samples are held and their samples written this many
# passes at a time: a dense-output evaluation is mostly fixed numpy call
# cost, so one for 8 passes' samples costs a fraction of 8 (more passes add
# to the peak memory and save little)
_HELD_PASSES = 8


def _dopri_batch(body, rows, coeffs, t0: float, t_bound: float, y0, t_eval,
                 rtol: float, atol: float, write, first: int,
                 wanted=None) -> None:
    """Step every column of y0 from t0 to t_bound and hand its samples on
    t_eval to write(cols, sample, states), as _sample_steps makes them;
    column j is start first + j. After each write, a column's next sample
    index is raised to wanted[start] (see Batch.run), at most to the last
    sample, so the samples it skips are never counted or evaluated.

    The derivative at tau is body(y, *rows(tau), *coeffs). The drive rows
    are evaluated once per step attempt, on the (5, R) stage times
    t + c_s h, s = 1..5, and read by stage; the last, t + h (c_5 = 1), also
    serves the end-of-step evaluation that the next step reuses. The first
    derivative and the initial-step probe evaluate them on their own. The
    coefficients are handed over as 0-d complex arrays, so every operand
    the kernel sees is complex128.

    One loop pass is one step attempt of every unfinished column. Per
    column the rules are scipy's RK45._step_impl: a new step starts at no
    less than ten ulp of tau and fails if a rejected step shrinks below
    that; the RMS error norm is scaled by atol + rtol max(|y|, |y_new|);
    the step grows by min(10, 0.9 err^-1/5) (10 at zero error, at most 1
    after a rejection in the same step) and shrinks by max(0.2,
    0.9 err^-1/5). Samples inside an accepted step come from its quartic
    dense output, as solve_ivp's t_eval does; the accepted steps that hold
    samples are kept until _HELD_PASSES of them are written together.
    Finished columns leave the working arrays. Pass _MAX_STEP_ATTEMPTS + 1
    raises NumericalError naming the column furthest behind.
    """
    coeffs = _complex_operands(coeffs)

    def fun(t, y):
        return body(y, *rows(t), *coeffs)

    width = y0.shape[1]
    cols = np.arange(first, first + width)  # start of each working column
    t = np.full(width, t0)
    y = y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    rejected = np.zeros(width, dtype=bool)
    nxt = np.zeros(width, dtype=int)   # next t_eval index per column
    final = len(t_eval) - 1
    hK = np.empty((_STAGES + 1,) + y.shape, dtype=y.dtype)  # h K_s
    held = []                          # accepted steps not yet sampled
    passes = 0
    while len(cols):
        passes += 1
        if passes > _MAX_STEP_ATTEMPTS:
            j = int(np.argmin(t))
            raise _stopped(float(t[j]), int(cols[j]))
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        if np.count_nonzero(h_abs >= min_step) < len(h_abs):
            # fmax: a NaN step is replaced, as scipy's max() does
            h_abs = np.where(rejected, h_abs, np.fmax(h_abs, min_step))
            too_small = h_abs < min_step
            if np.count_nonzero(too_small):
                j = int(np.argmax(too_small))
                raise _stopped(float(t[j]), int(cols[j]), floor=True)
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t                  # > 0: the run is forward
        hc = h.astype(complex)

        stage_rows = rows(t + _C_COLUMN * h)
        np.multiply(f, hc, out=hK[0])
        for s in range(1, _STAGES):
            y_stage = y + _combine(hK, _A_COLUMNS[s])
            np.multiply(body(y_stage, *[r[s - 1] for r in stage_rows],
                             *coeffs), hc, out=hK[s])
        y_new = y + _combine(hK, _B_COLUMN)
        f_new = body(y_new, *[r[-1] for r in stage_rows], *coeffs)
        np.multiply(f_new, hc, out=hK[-1])

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = _rms(_combine(hK, _E_COLUMN) / scale)
        ok = err < 1.0
        # clip(0.9 err^-1/5, 0.2, limit) is scipy's factor on both sides
        # of err = 1; a NaN error shrinks the step by _MIN_FACTOR
        pow_err = _SAFETY * np.maximum(err, _TINY_ERROR) ** _ERROR_EXPONENT
        limit = np.where(rejected, 1.0, _MAX_FACTOR)
        h_abs = h * np.fmax(_MIN_FACTOR, np.minimum(limit, pow_err))
        rejected = ~ok
        accepted = np.count_nonzero(ok)
        if not accepted:
            continue

        # a column that skips samples stays at the next one it wants
        last = np.maximum(np.searchsorted(t_eval, t_new, side="right"), nxt)
        if accepted < len(ok):         # the rejected columns stay put
            last = np.where(ok, last, nxt)
            t_new = np.where(ok, t_new, t)
            y_new = np.where(ok, y_new, y)
            f_new = np.where(ok, f_new, f)
        count = last - nxt
        if np.count_nonzero(count):
            held.append((hK.copy(), count, nxt, cols, t, y, h))
            if len(held) == _HELD_PASSES:
                _sample_steps(write, held, t_eval)
                held = []
                if wanted is not None:
                    last = np.maximum(last, np.minimum(wanted[cols], final))
        nxt, t, y, f = last, t_new, y_new, f_new

        done = t >= t_bound
        if np.count_nonzero(done):
            running = ~done
            cols, t, h_abs = cols[running], t[running], h_abs[running]
            rejected, nxt = rejected[running], nxt[running]
            y, f = y[:, running], f[:, running]
            hK = np.empty((_STAGES + 1,) + y.shape, dtype=y.dtype)
    if held:
        _sample_steps(write, held, t_eval)


def _sample_steps(write, held, t_eval):
    """Hand the t_eval samples of held accepted steps, from each step's
    dense output, scipy's RkDenseOutput y_old + h (Q . [x, x^2, x^3, x^4]),
    Q = K^T P: the four columns of h Q come from one sum over the stages
    and the polynomial is evaluated in Horner form. Each held entry is
    (h K, count, nxt, cols, t_old, y_old, h) over its steps, one per
    column: a batch pass over its working columns, or the accepted steps of
    one run; column i has count[i] samples from t_eval index nxt[i] on, of
    start cols[i]. They go to write(cols, sample, states) in one call, one
    column of states per sample. h Q is summed once per column with
    samples, not once per sample, and each sample is evaluated on its own,
    so how the steps are grouped into calls, and which samples a column
    skips (count covers only those it wants), changes no bit."""
    hK, count, nxt, cols, t_old, y_old, h = (
        np.concatenate(part, axis=-1) for part in zip(*held))
    used = np.flatnonzero(count)                         # columns with samples
    count, nxt = count[used], nxt[used]
    within = np.repeat(np.arange(len(used)), count)      # per sample
    step = used[within]                                  # held column
    sample = np.arange(len(step)) + np.repeat(nxt - np.cumsum(count) + count,
                                              count)     # t_eval index
    # h Q summed stage by stage from zero, as add.reduce over the stages
    # sums, without the (stages, n, columns, 4) product
    hQ = np.zeros((hK.shape[1], len(used), 4), dtype=complex)
    for s in range(_STAGES + 1):
        hQ += hK[s][:, used, None] * _P_COLUMNS[s]
    hQ = hQ[:, within]                                   # (n, samples, 4)
    x = ((t_eval[sample] - t_old[step]) / h[step]).astype(complex)
    poly = hQ[..., 3]
    for k in (2, 1, 0):
        poly = poly * x + hQ[..., k]
    write(cols[step], sample, poly * x + y_old[:, step])


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
