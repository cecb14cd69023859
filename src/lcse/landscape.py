"""Energy landscape over (theta, n0): grids, fixed points, orbit topology.

The functional itself lives in dynamics.energy_functional (the pendulum flow
derives from it); this module evaluates it on grids, locates fixed points on
the sin(theta) = 0 lines, and classifies trajectories as open (phase winds)
or closed (bounded, periodic) from the turning points of their level set: the
real roots of one polynomial of degree at most 4 in n0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import PendulumState, energy_functional, outside_domain
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
    """Orbit topology: OPEN, the phase winds; CLOSED, bounded and periodic;
    BOUNDARY, the orbit reaches the S = 0 domain edge; INDETERMINATE, on a
    separatrix (the orbit runs into a saddle)."""

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


def _base_energy(lp: LandscapeParams) -> list:
    """base(n) = q (1-n) + c2 n (1-n) + (Delta/4) n (2-n) - p n^2, the
    energy at C = 0, as coefficients of 1, n, n^2: with C n S cos(theta)
    it is the whole functional, so fixed points and orbit verdicts both
    read it."""
    return [lp.q, -lp.q + lp.c2n + 0.5 * lp.lightshift_delta,
            -(lp.c2n + 0.25 * lp.lightshift_delta + lp.lightshift_p)]


def find_fixed_points(lp: LandscapeParams,
                      include_boundary: bool = True) -> list[FixedPoint]:
    """Roots of dE/dn0 on the theta in {0, pi} lines, plus domain endpoints.

    dE/dtheta vanishes identically on those lines. With s = cos(theta) =
    +-1, S = sqrt((1-n)^2 - m^2) and L = base', dE/dn0 = L + s C T / S,
    T = S^2 - n(1-n), so a root solves L S + s C T = 0. For m = 0
    (S = 1-n, T = (1-n)(1-2n)) that is linear: L = -s C (1-2n). For m != 0,
    1 - n = (v + m^2/v)/2 and S = (v - m^2/v)/2 with v > |m| cover the
    domain's hyperbola (1-n)^2 - S^2 = m^2, and 4 v^2 (L S + s C T) is a
    quartic in v: each line's roots, with no squaring and so no roots of
    the other line to filter out. Stability comes from the signs of the
    analytic second derivatives: center when d2E/dn0^2 and d2E/dtheta^2
    agree, saddle otherwise.
    """
    n0_max = 1.0 - abs(lp.m_mag)
    m2 = lp.m_mag * lp.m_mag
    base = _base_energy(lp)
    l0, l1 = base[1], 2.0 * base[2]             # L(n) = l0 + l1 n
    lines = ((lp.c_eff, 0.0), (-lp.c_eff, math.pi))   # (s C, theta)
    if m2 == 0.0:
        line_roots = [[-(l0 + sc) / (l1 - 2.0 * sc)] if l1 != 2.0 * sc
                      else [] for sc, _th in lines]
    else:
        k = l0 + l1
        quartics = np.array([[m2 * m2 * (l1 + 2.0 * sc),
                              -2.0 * m2 * (k + sc), 0.0, 2.0 * (k - sc),
                              2.0 * sc - l1] for sc, _th in lines])
        line_roots = [[1.0 - 0.5 * (v.real + m2 / v.real)
                       for v in zs.tolist()
                       if v.imag == 0.0 and v.real > abs(lp.m_mag)]
                      for zs in _quartic_roots(quartics)]
    out: list[FixedPoint] = []
    for (sc, th), roots in zip(lines, line_roots):
        for n in sorted(roots):
            # a root whose S^2 rounds to 0 is the edge's fixed point
            if not (0.0 < n < n0_max and (1.0 - n) ** 2 > m2):
                continue
            sq = math.sqrt((1.0 - n) ** 2 - m2)
            # S' = -(1-n)/S, S'' = -m^2/S^3
            d2n = sc * (-2.0 * (1.0 - n) / sq - n * m2 / sq ** 3) + l1
            d2t = -sc * n * sq
            stab = Stability.CENTER if d2n * d2t > 0 else Stability.SADDLE
            out.append(FixedPoint(th, n, float(energy(th, n, lp)), stab))
    if include_boundary:
        # E is theta-independent at both endpoints (the C term carries n0*S);
        # energy_functional clamps the (1-n0)^2 - m^2 that 1 - |m| rounds
        # below zero
        for n0 in (0.0, n0_max):
            e_edge = float(energy_functional(
                0.0, n0, lp.m_mag, lp.c_eff, lp.c2n, lp.q,
                lp.lightshift_delta, lp.lightshift_p))
            out.append(FixedPoint(0.0, n0, e_edge, Stability.BOUNDARY_EXTREMUM))
    return out


# Roots of Q closer than this in n0 are one root: a double root (a saddle or
# a center) comes out of _quartic_roots split by up to 3e-7 on the fig3
# landscapes. A root within half of it of the start is the start.
_ROOT_TOL = 1e-5


def classify_trajectory(lp: LandscapeParams,
                        initial: PendulumState) -> Verdict:
    """Call the orbit through `initial` open or closed from its turning points.

    At fixed m, (dn0/dtau)^2 = 4 Q(n0) on the level set E = E0, with
    Q(n) = C^2 n^2 ((1-n)^2 - m^2) - (E0 - base(n))^2 and base(n) =
    q (1-n) + c2 n (1-n) + (Delta/4) n (2-n) - p n^2 the energy at C = 0.
    The orbit runs between the roots of Q around the start, where it meets
    theta = 0 if (E0 - base) C > 0 and theta = pi otherwise: Open when its
    two ends meet different lines (the phase winds), Closed when they meet
    the same one. A start on theta = 0 or pi is itself a root; its orbit
    runs to the next root on the side where Q > 0, and with Q < 0 on both
    sides it sits at a center (Closed; Open at n0 = 0, where theta winds
    along the line n0 = 0). Indeterminate: a double root ends the orbit,
    or Q > 0 on both sides of a start root (a saddle). Boundary: the start
    or an end is on the S = 0 edge. C = 0 leaves theta precessing: Open.
    """
    return _classify(lp, [initial])[0]


def _quartic_roots(quartics: np.ndarray) -> list[np.ndarray]:
    """numpy's polyroots of each row of coefficients (lowest power first),
    bit for bit, from one stacked eigvals per trimmed length: trailing zero
    coefficients are dropped as as_series drops them, each matrix is
    polycompanion's, and a linear row is solved as polyroots solves it."""
    k, width = quartics.shape
    length = np.where(quartics != 0.0, np.arange(1, width + 1), 1).max(axis=1)
    roots = [np.array([])] * k
    for deg in range(1, width):
        rows = np.flatnonzero(length == deg + 1)
        if rows.size == 0:
            continue
        c = quartics[rows, :deg + 1]
        if deg == 1:
            found = -c[:, :1] / c[:, 1:]
        else:
            mats = np.zeros((rows.size, deg, deg))
            mats[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            mats[:, :, -1] -= c[:, :-1] / c[:, -1:]
            found = np.linalg.eigvals(mats)
            found.sort(axis=-1)
        for i, z in zip(rows.tolist(), found):
            roots[i] = z
    return roots


def _classify(lp: LandscapeParams,
              starts: Sequence[PendulumState]) -> list[Verdict]:
    """classify_trajectory of each start, with all their quartics solved in
    one _quartic_roots call."""
    if any(st.m_mag != lp.m_mag for st in starts):
        raise InvalidInputError("initial.m_mag must match lp.m_mag")
    n = np.array([st.n_zero for st in starts], dtype=float)
    e0 = energy(np.array([st.theta for st in starts], dtype=float), n, lp)
    if lp.c_eff == 0.0:
        return [Verdict.OPEN] * len(starts)
    m2 = lp.m_mag * lp.m_mag
    inside = np.flatnonzero((1.0 - n) ** 2 - m2 > 0.0)
    # E0 - base(n) and Q(n), lowest power first; _quartic_roots drops a zero
    # leading coefficient, which C^2 = (c2 + Delta/4 + p)^2 makes exactly
    base = _base_energy(lp)
    r0, r1, r2 = e0[inside] - base[0], -base[1], -base[2]
    cc = lp.c_eff * lp.c_eff
    quartics = np.empty((inside.size, 5))
    quartics[:, 0] = -r0 * r0
    quartics[:, 1] = -2.0 * r0 * r1
    quartics[:, 2] = cc * (1.0 - m2) - r1 * r1 - 2.0 * r0 * r2
    quartics[:, 3] = -2.0 * cc - 2.0 * r1 * r2
    quartics[:, 4] = cc - r2 * r2
    verdicts = [Verdict.BOUNDARY] * len(starts)
    for i, a, quartic, roots in zip(inside.tolist(), r0.tolist(),
                                    quartics.tolist(),
                                    _quartic_roots(quartics)):
        verdicts[i] = _verdict(lp, starts[i].n_zero, [a, r1, r2], quartic,
                               roots)
    return verdicts


def _horner(x: float, coeffs: list) -> float:
    """The polynomial with coeffs (lowest power first) at x, in the order
    of numpy's polyval Horner loop, on Python floats."""
    value = coeffs[-1]
    for c in coeffs[-2::-1]:
        value = c + value * x
    return value


def _verdict(lp: LandscapeParams, n: float, r: list, quartic: list,
             zs: np.ndarray) -> Verdict:
    """The verdict of classify_trajectory for a start at n0 = n inside the
    domain, from E0 - base(n) as r, Q(n) as quartic and Q's roots zs."""
    m2 = lp.m_mag * lp.m_mag
    hi = 1.0 - abs(lp.m_mag) + _ROOT_TOL
    roots: list[list] = []  # [n0, multiplicity], ascending
    for x in sorted(z.real for z in zs.tolist()
                    if abs(z.imag) <= _ROOT_TOL and -_ROOT_TOL <= z.real <= hi):
        if roots and x - roots[-1][0] <= _ROOT_TOL:
            roots[-1][1] += 1
        else:
            roots.append([x, 1])
    below = [x for x in roots if x[0] < n - 0.5 * _ROOT_TOL]
    above = [x for x in roots if x[0] > n + 0.5 * _ROOT_TOL]
    if len(below) + len(above) < len(roots):
        # start is a root; Q <= 0 at both edges: Q < 0 on a side without roots
        at = roots[len(below)]
        up = bool(above) and _horner((at[0] + above[0][0]) / 2, quartic) > 0
        down = bool(below) and _horner((at[0] + below[-1][0]) / 2,
                                       quartic) > 0
        if up and down:
            return Verdict.INDETERMINATE
        if not (up or down):
            return Verdict.OPEN if n == 0.0 else Verdict.CLOSED
        ends = (at, above[0]) if up else (below[-1], at)
    elif below and above:
        ends = (below[-1], above[0])
    else:
        return Verdict.BOUNDARY
    if ends[0][1] > 1 or ends[1][1] > 1:
        return Verdict.INDETERMINATE
    if (1.0 - ends[1][0]) ** 2 - m2 <= _ROOT_TOL ** 2:
        return Verdict.BOUNDARY
    on_zero = [_horner(x, r) * lp.c_eff > 0.0 for x, _k in ends]
    return Verdict.OPEN if on_zero[0] != on_zero[1] else Verdict.CLOSED


def default_start_grid(n_theta: int = 10, n_n0: int = 10,
                       n0_lo: float = 0.05, n0_hi: float = 0.95,
                       m_mag: float = 0.0) -> list[PendulumState]:
    """Uniform grid of starts used by the portrait scenarios."""
    if n_theta < 0 or n_n0 < 0:
        raise InvalidInputError("start counts must be >= 0")
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
        }


def contour_portrait(lp: LandscapeParams, grid: GridSpec,
                     starts: Optional[Sequence[PendulumState]] = None
                     ) -> PortraitSummary:
    """Classify every start and aggregate counts, fixed points, mask fraction."""
    if starts is None:
        starts = default_start_grid(m_mag=lp.m_mag)
    counts = {v.value: 0 for v in Verdict}
    verdicts = []
    for st, v in zip(starts, _classify(lp, starts)):
        counts[v.value] += 1
        verdicts.append((st.theta, st.n_zero, v))
    return PortraitSummary(
        counts=counts,
        fixed_points=find_fixed_points(lp),
        masked_fraction=float(outside_domain(  # the mask depends on n0 only
            np.linspace(*grid.n0_range, grid.resolution[1]), lp.m_mag).mean()),
        verdicts=verdicts,
    )
