"""Pendulum-flow orbit classifier: the reference the level-set verdicts of
lcse.landscape.classify_trajectory are tested against.

It integrates the flow with scipy's solve_ivp (its wind and boundary events
and its dense output) instead of reading the orbit off its energy, so it
shares no code with the classifier under test beyond the pendulum RHS,
lcse.dynamics._rhs_pend.
"""

import math
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from lcse import (CouplingSummary, DomainError, IntegratorConfig,
                  InvalidInputError, LandscapeParams, NumericalError,
                  PendulumState, SystemParams, Verdict)
from lcse.dynamics import _rhs_pend, require_interior


def pendulum_system(lp: LandscapeParams) -> tuple[SystemParams,
                                                  CouplingSummary]:
    """The SystemParams and CouplingSummary whose pendulum flow conserves
    the landscape's energy."""
    params = SystemParams(c2n=lp.c2n, q=lp.q)
    coupling = CouplingSummary(
        omega_eff=lp.c_eff - lp.c2n, c_eff=lp.c_eff,
        lightshift_delta=lp.lightshift_delta,
        lightshift_p=lp.lightshift_p)
    return params, coupling


def _return_distance(ys: np.ndarray, theta0: float, n00: float) -> np.ndarray:
    dth = np.angle(np.exp(1j * (ys[0] - theta0)))
    return np.hypot(dth, ys[1] - n00)


def _closest_approach(sol, t_lo: float, t_hi: float, theta0: float,
                      n00: float) -> float:
    """Smallest distance to the start on [t_lo, t_hi], by zooming in on the
    dense output."""
    for _ in range(4):
        fine = np.linspace(t_lo, t_hi, 41)
        dist = _return_distance(sol.sol(fine), theta0, n00)
        i = int(np.argmin(dist))
        t_lo, t_hi = fine[max(i - 1, 0)], fine[min(i + 1, 40)]
    return float(dist[i])


def classify_by_flow(lp: LandscapeParams, initial: PendulumState,
                     tau_max: float = 500.0,
                     eps_return: float = 1e-4,
                     config: Optional[IntegratorConfig] = None) -> Verdict:
    """Follow the pendulum flow and call the orbit open or closed.

    Open: unwrapped |theta - theta(0)| reaches 2 pi (terminal event).
    Closed: theta band width stays under 2 pi and the orbit re-enters an
    eps_return ball around the start (wrapped-theta Euclidean metric) after
    first leaving a 10*eps_return ball; a start that never leaves that ball
    counts as closed (libration around a nearby fixed point). Boundary: the
    (1-n0)^2 = m^2 event fires. Anything unresolved by tau_max is
    Indeterminate. Returns are looked for on the dense output, on a 0.02 tau
    grid refined around the sampled distance minima near the ball: transits
    are much shorter than adaptive solver steps, so terminal return events
    would be unreliable, and they can fall between grid samples.
    """
    if initial.m_mag != lp.m_mag:
        raise InvalidInputError("initial.m_mag must match lp.m_mag")
    theta0, n00, m_mag = initial.theta, initial.n_zero, initial.m_mag
    params, coupling = pendulum_system(lp)
    cfg = config or IntegratorConfig()
    try:
        require_interior(initial)
    except DomainError:
        return Verdict.BOUNDARY

    def boundary(tau, y, *a):
        return (1.0 - y[1]) ** 2 - m_mag ** 2 - 1e-12

    def wind_up(tau, y, *a):
        return (y[0] - theta0) - 2.0 * math.pi

    def wind_down(tau, y, *a):
        return (y[0] - theta0) + 2.0 * math.pi

    boundary.direction = -1
    for event in (boundary, wind_up, wind_down):
        event.terminal = True
    sol = solve_ivp(_rhs_pend, (0.0, tau_max), [theta0, n00], method="RK45",
                    args=(coupling.c_eff, params.c2n, params.q, m_mag,
                          coupling.lightshift_delta, coupling.lightshift_p),
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, t_eval=[0.0, tau_max],
                    events=[boundary, wind_up, wind_down], dense_output=True)
    if sol.status == -1:
        raise NumericalError(f"integration failed: {sol.message}",
                             tau=float(sol.t[-1]) if len(sol.t) else 0.0)
    if len(sol.t_events[0]):
        return Verdict.BOUNDARY
    if len(sol.t_events[1]) or len(sol.t_events[2]):
        return Verdict.OPEN

    ts = np.arange(0.0, sol.t[-1], 0.02)
    ys = sol.sol(ts)
    dist = _return_distance(ys, theta0, n00)
    outside = np.nonzero(dist > 10.0 * eps_return)[0]
    if len(outside) == 0:
        return Verdict.CLOSED
    if float(ys[0].max() - ys[0].min()) >= 2.0 * math.pi:
        return Verdict.INDETERMINATE
    if float(dist[outside[0]:].min()) < eps_return:
        return Verdict.CLOSED
    # a pass through the ball can fall between samples: refine each sampled
    # distance minimum within 10*eps_return plus one sample step of the start
    step = np.hypot(np.diff(ys[0]), np.diff(ys[1]))
    k = np.arange(outside[0] + 1, len(ts) - 1)
    reach = 10.0 * eps_return + np.maximum(step[k - 1], step[k])
    minima = k[(dist[k] <= dist[k - 1]) & (dist[k] <= dist[k + 1])
               & (dist[k] < reach)]
    for i in minima:
        if _closest_approach(sol, ts[i - 1], ts[i + 1], theta0, n00) < eps_return:
            return Verdict.CLOSED
    return Verdict.INDETERMINATE

