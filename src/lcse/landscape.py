"""Energy landscape over (theta, n0): grids, fixed points, orbit topology.

The functional itself lives in dynamics.energy_functional (the pendulum flow
derives from it); this module evaluates it on grids, locates fixed points on
the sin(theta) = 0 lines, and classifies trajectories as open (phase winds)
or closed (bounded, periodic) from the topology of their level set, with the
flow itself as the fallback near separatrices.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .dynamics import (IntegratorConfig, PendulumState, energy_functional,
                       energy_gradient_n0, integrate, outside_domain)
from .core import CouplingSummary, SystemParams
from .errors import DomainError, InvalidInputError


@dataclass(frozen=True)
class LandscapeParams:
    """Functional coefficients: combined coupling, collisions, Zeeman, shifts."""

    c_eff: float
    c2n: float
    q: float
    m_mag: float = 0.0
    lightshift_delta: float = 0.0
    lightshift_p: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise InvalidInputError("landscape parameters must be finite")
        if abs(self.m_mag) > 1.0:
            raise InvalidInputError("|m_mag| must be <= 1")

    def _system(self) -> tuple[SystemParams, CouplingSummary]:
        params = SystemParams(c2n=self.c2n, q=self.q)
        coupling = CouplingSummary(
            omega_eff=self.c_eff - self.c2n, c_eff=self.c_eff,
            lightshift_delta=self.lightshift_delta,
            lightshift_p=self.lightshift_p)
        return params, coupling


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (theta, n0) sampling for energy surfaces."""

    theta_range: tuple[float, float] = (-math.pi, math.pi)
    n0_range: tuple[float, float] = (0.0, 1.0)
    resolution: tuple[int, int] = (181, 101)  # (n_theta, n_n0)

    def __post_init__(self):
        if self.theta_range[0] >= self.theta_range[1]:
            raise InvalidInputError("theta_range must be increasing")
        if not (0.0 <= self.n0_range[0] < self.n0_range[1] <= 1.0):
            raise InvalidInputError("n0_range must be increasing within [0, 1]")
        if self.resolution[0] < 2 or self.resolution[1] < 2:
            raise InvalidInputError("resolution must be at least 2x2")


class Stability(enum.Enum):
    CENTER = "center"
    SADDLE = "saddle"
    BOUNDARY_EXTREMUM = "boundary-extremum"


@dataclass(frozen=True)
class FixedPoint:
    theta: float
    n_zero: float
    energy: float
    stability: Stability


class Verdict(enum.Enum):
    OPEN = "Open"
    CLOSED = "Closed"
    BOUNDARY = "Boundary"
    INDETERMINATE = "Indeterminate"


def energy(theta, n_zero, lp: LandscapeParams):
    """Evaluate the functional; raises DomainError outside (1-n0)^2 >= m^2."""
    if np.any(outside_domain(np.asarray(n_zero), lp.m_mag)):
        raise DomainError("(1-n0)^2 < m^2: outside the landscape domain")
    return energy_functional(theta, n_zero, lp.m_mag, lp.c_eff, lp.c2n, lp.q,
                             lp.lightshift_delta, lp.lightshift_p)


class EnergyGrid(NamedTuple):
    theta: np.ndarray        # (n_theta,)
    n_zero: np.ndarray       # (n_n0,)
    values: np.ndarray       # (n_n0, n_theta), NaN where masked
    mask: np.ndarray         # True where the domain precondition fails


def energy_grid(lp: LandscapeParams, grid: GridSpec) -> EnergyGrid:
    """Row-major energy matrix with a domain mask for excluded cells."""
    th = np.linspace(*grid.theta_range, grid.resolution[0])
    n0 = np.linspace(*grid.n0_range, grid.resolution[1])
    TH, N0 = np.meshgrid(th, n0)
    mask = outside_domain(N0, lp.m_mag)
    vals = energy_functional(TH, N0, lp.m_mag, lp.c_eff, lp.c2n, lp.q,
                             lp.lightshift_delta, lp.lightshift_p)
    vals = np.where(mask, np.nan, vals)
    return EnergyGrid(th, n0, vals, mask)


def find_fixed_points(lp: LandscapeParams,
                      include_boundary: bool = True,
                      scan_points: int = 4001) -> list[FixedPoint]:
    """Roots of dE/dn0 on the theta in {0, pi} lines, plus domain endpoints.

    dE/dtheta vanishes identically on those lines, so interior fixed points
    are 1-D bracketing roots there. Stability comes from the sign pattern of
    the Hessian: center when d2E/dn0^2 and d2E/dtheta^2 agree in sign, saddle
    otherwise.
    """
    n0_max = 1.0 - abs(lp.m_mag)
    out: list[FixedPoint] = []
    args = (lp.m_mag, lp.c_eff, lp.c2n, lp.q, lp.lightshift_delta, lp.lightshift_p)
    for th in (0.0, math.pi):
        def grad(x, _th=th):
            return float(energy_gradient_n0(_th, x, *args))
        xs = np.linspace(1e-9, n0_max - 1e-9, scan_points)
        vals = energy_gradient_n0(th, xs, *args)
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in sign_change:
            root = brentq(grad, xs[i], xs[i + 1], xtol=1e-13)
            h = 1e-6
            d2n = (grad(root + h) - grad(root - h)) / (2.0 * h)
            s = math.sqrt(max((1.0 - root) ** 2 - lp.m_mag ** 2, 0.0))
            d2t = -lp.c_eff * root * s * math.cos(th)
            stab = Stability.CENTER if d2n * d2t > 0 else Stability.SADDLE
            out.append(FixedPoint(th, float(root),
                                  float(energy(th, root, lp)), stab))
    if include_boundary:
        # E is theta-independent at both endpoints (the C term carries n0*S);
        # energy_functional clamps the (1-n0)^2 - m^2 that 1 - |m| rounds
        # below zero
        for n0 in (0.0, n0_max):
            e_edge = float(energy_functional(0.0, n0, *args))
            out.append(FixedPoint(0.0, n0, e_edge, Stability.BOUNDARY_EXTREMUM))
    return out


# The level set is scanned on this many n0 points, skipping those within
# _START_GAP of the start: for a start on a junction, |g| <= 1 is decided by
# rounding there. Starts whose energy lies within _SEPARATRIX_MARGIN of the
# energy range of a saddle or boundary energy are left to the flow, since
# gaps of the band narrower than the scan step open only there.
_SCAN_POINTS = 20001
_START_GAP = 1e-9
_SEPARATRIX_MARGIN = 1e-4


class _EnergyBand(NamedTuple):
    n_zero: np.ndarray       # scan grid over [0, 1 - |m|]
    base: np.ndarray         # E at C = 0, midway between E(0, n0), E(pi, n0)
    half_width: np.ndarray   # |C| n0 S, half the band's width
    separatrix: np.ndarray   # saddle and boundary-extremum energies
    margin: float            # _SEPARATRIX_MARGIN times the energy range


@functools.lru_cache(maxsize=2)
def _energy_band(lp: LandscapeParams) -> _EnergyBand:
    n0 = np.linspace(0.0, 1.0 - abs(lp.m_mag), _SCAN_POINTS)
    rest = (lp.c2n, lp.q, lp.lightshift_delta, lp.lightshift_p)
    base = energy_functional(0.0, n0, lp.m_mag, 0.0, *rest)
    half = np.abs(energy_functional(0.0, n0, lp.m_mag, lp.c_eff, *rest) - base)
    span = float(np.max(base + half) - np.min(base - half))
    separatrix = np.array([p.energy for p in find_fixed_points(lp)
                           if p.stability is not Stability.CENTER])
    return _EnergyBand(n0, base, half, separatrix, _SEPARATRIX_MARGIN * span)


def classify_trajectory(lp: LandscapeParams, initial: PendulumState,
                        tau_max: float = 500.0,
                        eps_return: float = 1e-4,
                        config: Optional[IntegratorConfig] = None) -> Verdict:
    """Call the orbit through `initial` open or closed from its level set.

    On E(theta, n0) = E0 the orbit obeys cos(theta) = g(n0) =
    (E0 - E|_{C=0}(n0)) / (C n0 S(n0)), so it is the pair of arcs
    theta = +-arccos(g) over the n0 interval around the start where
    |g| <= 1. The arcs join at theta = 0 where g = +1 and at theta = pi
    where g = -1: Open when the interval ends on one of each (the phase
    winds), Closed when both ends join on the same line, Boundary when the
    interval reaches the domain edge. C = 0 leaves theta precessing: Open.

    Starts whose energy is within a small margin of a saddle or boundary
    energy go to classify_by_flow with tau_max, eps_return and config; no
    other start uses them.
    """
    if initial.m_mag != lp.m_mag:
        raise InvalidInputError("initial.m_mag must match lp.m_mag")
    band = _energy_band(lp)
    e0 = float(energy(initial.theta, initial.n_zero, lp))
    if np.any(np.abs(band.separatrix - e0) <= band.margin):
        return classify_by_flow(lp, initial, tau_max=tau_max,
                                eps_return=eps_return, config=config)
    if lp.c_eff == 0.0:
        return Verdict.OPEN
    gap = e0 - band.base
    outside = np.abs(gap) > band.half_width
    above = np.searchsorted(band.n_zero, initial.n_zero + _START_GAP, "right")
    below = np.searchsorted(band.n_zero, initial.n_zero - _START_GAP, "left")
    up = np.flatnonzero(outside[above:])
    down = np.flatnonzero(outside[:below])
    if len(up) == 0 or len(down) == 0:
        return Verdict.BOUNDARY
    # just past an end g > 1 (arcs joined on theta = 0) where gap and C share
    # a sign, g < -1 (joined on theta = pi) otherwise
    top_on_zero = gap[above + up[0]] * lp.c_eff > 0.0
    bottom_on_zero = gap[down[-1]] * lp.c_eff > 0.0
    return Verdict.OPEN if top_on_zero != bottom_on_zero else Verdict.CLOSED


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
    theta0, n00 = initial.theta, initial.n_zero
    params, coupling = lp._system()

    def wind_up(tau, y, *a):
        return (y[0] - theta0) - 2.0 * math.pi

    def wind_down(tau, y, *a):
        return (y[0] - theta0) + 2.0 * math.pi

    wind_up.terminal = True
    wind_down.terminal = True
    try:
        traj = integrate("pendulum", initial, params, (0.0, tau_max),
                         coupling=coupling, config=config, sampling=2,
                         events=[wind_up, wind_down], dense_output=True)
    except DomainError:
        return Verdict.BOUNDARY
    sol = traj.solver
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


def default_start_grid(n_theta: int = 10, n_n0: int = 10,
                       n0_lo: float = 0.05, n0_hi: float = 0.95,
                       m_mag: float = 0.0) -> list[PendulumState]:
    """Uniform grid of starts used by the portrait scenarios."""
    thetas = np.linspace(-math.pi, math.pi, n_theta)
    n0s = np.linspace(n0_lo, n0_hi, n_n0)
    return [PendulumState(float(t), float(n), m_mag)
            for t in thetas for n in n0s]


@dataclass
class PortraitSummary:
    """Aggregate of a start-grid classification plus landscape structure."""

    counts: dict
    fixed_points: list
    masked_fraction: float
    verdicts: list  # (theta0, n0, verdict) per start
    tau_max: float
    eps_return: float

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "fixed_points": [
                {"theta": fp.theta, "n_zero": fp.n_zero, "energy": fp.energy,
                 "stability": fp.stability.value}
                for fp in self.fixed_points],
            "masked_fraction": self.masked_fraction,
            "verdicts": [
                {"theta": t, "n_zero": n, "verdict": v.value}
                for t, n, v in self.verdicts],
            "tau_max": self.tau_max,
            "eps_return": self.eps_return,
        }


def contour_portrait(lp: LandscapeParams, grid: GridSpec,
                     starts: Optional[Sequence[PendulumState]] = None,
                     tau_max: float = 500.0,
                     eps_return: float = 1e-4,
                     config: Optional[IntegratorConfig] = None) -> PortraitSummary:
    """Classify every start and aggregate counts, fixed points, mask fraction."""
    if starts is None:
        starts = default_start_grid(m_mag=lp.m_mag)
    eg = energy_grid(lp, grid)
    counts = {v.value: 0 for v in Verdict}
    verdicts = []
    for st in starts:
        v = classify_trajectory(lp, st, tau_max=tau_max,
                                eps_return=eps_return, config=config)
        counts[v.value] += 1
        verdicts.append((st.theta, st.n_zero, v))
    return PortraitSummary(
        counts=counts,
        fixed_points=find_fixed_points(lp),
        masked_fraction=float(eg.mask.mean()),
        verdicts=verdicts,
        tau_max=tau_max,
        eps_return=eps_return,
    )
