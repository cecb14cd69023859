"""Energy landscape, fixed points, and orbit classification.

Verifies:
  - closed-form energy values, parity, and coupling-sign symmetry
  - the domain gate (1 - n0)^2 >= m^2
  - grid evaluation with masked infeasible cells
  - closed-form fixed points against frozen center/saddle locations, the
    flow's gradient and Jacobian, and a root at a round n0; with m != 0
    they equal, bit for bit, each line's quartic solved by polyroots
  - orbit verdicts: winding, boundary starts, saddle starts, landscapes
    whose orbit polynomial has degree 3, and the frozen 10x10 grid counts
    for the four standard couplings with drive shifts on and off
  - the portrait's stacked root solve: each row equals polyroots bit for
    bit, and its verdicts equal the per-start ones
  - level-set verdicts against the flow classifier (tests/flow_oracle.py)
    on every fig3 start and on random landscapes
  - energy conservation along a classified closed orbit
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from lcse import (DomainError, GridSpec, InvalidInputError, LandscapeParams,
                  PendulumState, Stability, Verdict, classify_trajectory,
                  contour_portrait, default_start_grid, energy, energy_grid,
                  find_fixed_points, ladder_lightshifts, RB87_C2_OVER_C0)

from lcse.landscape import _base_energy, _quartic_roots

from flow_oracle import classify_by_flow, pendulum_system

C2 = RB87_C2_OVER_C0
coefficient = st.floats(-1.0, 1.0)


def ladder_params(c_eff, q=0.01, m_mag=0.0, shifts=True):
    """Landscape for a target total coupling, drive shifts on or off."""
    w = c_eff - C2
    if shifts and w != 0.0:
        delta, p = ladder_lightshifts(w)
        return LandscapeParams(c_eff=c_eff, c2n=C2, q=q, m_mag=m_mag,
                               lightshift_delta=delta, lightshift_p=p)
    return LandscapeParams(c_eff=c_eff, c2n=C2, q=q, m_mag=m_mag)


def test_energy_closed_form_values():
    # cos(theta) = 0 kills the exchange term; remaining terms are polynomial
    lp = LandscapeParams(c_eff=0.2, c2n=-4.6205e-3, q=0.01)
    e = energy(math.pi / 2, 0.5, lp)
    expected = 0.01 * 0.5 + (-4.6205e-3) * 0.5 * 0.5
    assert e == pytest.approx(expected, rel=1e-12)
    assert e == pytest.approx(3.844875e-3, rel=1e-9)
    # n0 = 1 with no drive shifts: every term vanishes
    assert energy(0.7, 1.0, lp) == pytest.approx(0.0, abs=1e-15)
    # n0 = 0: only the quadratic-shift term q remains
    assert energy(0.3, 0.0, lp) == pytest.approx(0.01, rel=1e-12)


def test_energy_even_in_theta():
    lp = ladder_params(-C2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        th = rng.uniform(-np.pi, np.pi)
        n0 = rng.uniform(0.0, 1.0)
        assert energy(th, n0, lp) == pytest.approx(energy(-th, n0, lp),
                                                   rel=1e-14, abs=1e-16)


def test_energy_coupling_sign_symmetry():
    # flipping the sign of the total coupling is a theta -> theta + pi shift
    lp_p = LandscapeParams(c_eff=0.3, c2n=C2, q=0.01)
    lp_m = LandscapeParams(c_eff=-0.3, c2n=C2, q=0.01)
    rng = np.random.default_rng(6)
    for _ in range(20):
        th = rng.uniform(-np.pi, np.pi)
        n0 = rng.uniform(0.0, 1.0)
        assert energy(th, n0, lp_p) == pytest.approx(
            energy(th + np.pi, n0, lp_m), rel=1e-13, abs=1e-16)


def test_energy_domain_gate():
    lp = LandscapeParams(c_eff=0.1, c2n=C2, q=0.01, m_mag=0.6)
    with pytest.raises(DomainError):
        energy(0.0, 0.5, lp)
    # feasible corner of the same landscape evaluates fine
    assert np.isfinite(energy(0.0, 0.3, lp))


def test_energy_grid_shape_and_mask():
    lp = LandscapeParams(c_eff=0.1, c2n=C2, q=0.01, m_mag=0.5)
    grid = GridSpec(resolution=(25, 21))
    out = energy_grid(lp, grid)
    assert out.values.shape == (21, 25)
    assert out.theta.shape == (25,)
    assert out.n_zero.shape == (21,)
    # n0 > 1 - |m| = 0.5 is infeasible and must be masked
    infeasible = out.n_zero > 0.5
    assert np.all(out.mask[infeasible, :])
    assert not np.any(out.mask[~infeasible, :])
    assert np.all(np.isfinite(out.values[~out.mask]))


def test_no_interior_fixed_points_when_coupling_dominated_by_q():
    # q = 0.01 exceeds every |c_eff| here, so the axis gradients never
    # vanish inside the strip
    for ceff in (C2, 0.5 * C2, 0.0):
        pts = find_fixed_points(ladder_params(ceff, shifts=False))
        assert all(p.stability is Stability.BOUNDARY_EXTREMUM for p in pts)


FROZEN_POINTS = {
    -0.5 * C2: ((0.0, 0.7115546218, 1.7964426650e-2),
                (math.pi, 0.7997023810, 1.7101124579e-2)),
    -C2: ((0.0, 0.7537087912, 2.3666887433e-2),
          (math.pi, 0.9122767857, 2.2321464717e-2)),
}


@pytest.mark.parametrize("ceff", sorted(FROZEN_POINTS))
def test_fixed_points_frozen_locations(ceff):
    pts = find_fixed_points(ladder_params(ceff))
    centers = [p for p in pts if p.stability is Stability.CENTER]
    saddles = [p for p in pts if p.stability is Stability.SADDLE]
    assert len(centers) == 1 and len(saddles) == 1
    (cth, cn0, ce), (sth, sn0, se) = FROZEN_POINTS[ceff]
    c, s = centers[0], saddles[0]
    assert c.theta == pytest.approx(cth, abs=1e-12)
    assert c.n_zero == pytest.approx(cn0, abs=5e-10)
    assert c.energy == pytest.approx(ce, abs=5e-11)
    assert abs(s.theta) == pytest.approx(sth, abs=1e-12)
    assert s.n_zero == pytest.approx(sn0, abs=5e-10)
    assert s.energy == pytest.approx(se, abs=5e-11)


def test_fixed_point_symmetry_under_coupling_flip():
    # theta = 0 roots of +C match theta = pi roots of -C at the same n0
    pos = find_fixed_points(LandscapeParams(c_eff=0.02, c2n=C2, q=0.01),
                            include_boundary=False)
    neg = find_fixed_points(LandscapeParams(c_eff=-0.02, c2n=C2, q=0.01),
                            include_boundary=False)
    n0_pos = sorted(p.n_zero for p in pos)
    n0_neg = sorted(p.n_zero for p in neg)
    assert len(n0_pos) == len(n0_neg) > 0
    assert n0_pos == pytest.approx(n0_neg, abs=1e-10)


def _flow_jacobian_det(lp, theta, n0, h=1e-6):
    """det of d(dtheta, dn0)/d(theta, n0) by central differences of the
    pendulum flow: positive at a center, negative at a saddle."""
    from lcse.dynamics import rhs_pendulum
    params, coupling = pendulum_system(lp)

    def flow(th, n):
        return np.array(rhs_pendulum(PendulumState(th, n, lp.m_mag), params,
                                     coupling))
    d_theta = (flow(theta + h, n0) - flow(theta - h, n0)) / (2.0 * h)
    d_n0 = (flow(theta, n0 + h) - flow(theta, n0 - h)) / (2.0 * h)
    return d_theta[0] * d_n0[1] - d_theta[1] * d_n0[0]


def test_fixed_points_kill_the_gradient():
    # m = 0 (the linear branch) and m != 0 (the quartic in v), with and
    # without drive shifts, both signs of C; each interior point zeroes the
    # flow, and its label agrees with the flow's Jacobian there
    from lcse.dynamics import rhs_pendulum
    landscapes = [ladder_params(-C2)]
    for m in (0.05, 0.3):
        for c_eff in (-C2, C2, -3.0 * C2, 3.0 * C2):
            for delta, p in ((0.0, 0.0), (0.004, -0.002)):
                for q in (0.0, 0.002):
                    landscapes.append(LandscapeParams(
                        c_eff=c_eff, c2n=C2, q=q, m_mag=m,
                        lightshift_delta=delta, lightshift_p=p))
    labels = []
    for lp in landscapes:
        params, coupling = pendulum_system(lp)
        for p in find_fixed_points(lp, include_boundary=False):
            dth, dn0 = rhs_pendulum(PendulumState(p.theta, p.n_zero, lp.m_mag),
                                    params, coupling)
            assert abs(dth) < 1e-12
            assert abs(dn0) < 1e-12
            det = _flow_jacobian_det(lp, p.theta, p.n_zero)
            assert abs(det) > 1e-9
            assert (det > 0.0) == (p.stability is Stability.CENTER)
            labels.append((lp.m_mag > 0.0, p.stability))
    assert {(True, Stability.CENTER), (True, Stability.SADDLE),
            (False, Stability.CENTER), (False, Stability.SADDLE)} <= set(labels)


def test_fixed_points_on_the_linear_branch_at_a_round_n0():
    # m = 0 with C alone: E = C n0 (1 - n0) cos(theta), extrema at n0 = 1/2
    # on both lines (a bracketing scan whose grid held 0.5 missed them)
    lp = LandscapeParams(c_eff=-0.05, c2n=0.0, q=0.0)
    pts = find_fixed_points(lp, include_boundary=False)
    assert [(p.theta, p.n_zero, p.stability) for p in pts] == [
        (0.0, 0.5, Stability.CENTER), (math.pi, 0.5, Stability.CENTER)]
    assert [p.energy for p in pts] == pytest.approx([-0.0125, 0.0125],
                                                    rel=1e-15)


def polyroots_fixed_points(lp):
    """(theta, n0) of find_fixed_points' interior points, each line's
    quartic in v solved on its own by numpy's polyroots: the oracle for
    the stacked solve."""
    m2 = lp.m_mag * lp.m_mag
    base = _base_energy(lp)
    l0, l1 = base[1], 2.0 * base[2]
    out = []
    for s, th in ((1.0, 0.0), (-1.0, math.pi)):
        sc = s * lp.c_eff
        if m2 == 0.0:
            roots = [-(l0 + sc) / (l1 - 2.0 * sc)] if l1 != 2.0 * sc else []
        else:
            k = l0 + l1
            quartic = [m2 * m2 * (l1 + 2.0 * sc), -2.0 * m2 * (k + sc), 0.0,
                       2.0 * (k - sc), 2.0 * sc - l1]
            roots = [1.0 - 0.5 * (v.real + m2 / v.real)
                     for v in P.polyroots(quartic).tolist()
                     if v.imag == 0.0 and v.real > abs(lp.m_mag)]
        out += [(th, n) for n in sorted(roots)
                if 0.0 < n < 1.0 - abs(lp.m_mag) and (1.0 - n) ** 2 > m2]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m_mag=st.floats(-0.95, 0.95).filter(lambda m: m != 0.0),
       c_eff=st.floats(-1.0, 1.0), c2n=coefficient, q=coefficient,
       ls_delta=coefficient, ls_p=coefficient,
       tie=st.sampled_from([None, 1.0, -1.0]))
def test_fixed_points_equal_polyroots_oracle(m_mag, c_eff, c2n, q, ls_delta,
                                             ls_p, tie):
    # tie = +-1 puts C at -+(c2 + Delta/4 + p): the leading coefficient of
    # one line's quartic is then exactly 0 and the quartic is trimmed
    if tie is not None:
        c_eff = -tie * (c2n + 0.25 * ls_delta + ls_p)
    for m in (0.0, m_mag):
        lp = LandscapeParams(c_eff=c_eff, c2n=c2n, q=q, m_mag=m,
                             lightshift_delta=ls_delta, lightshift_p=ls_p)
        pts = find_fixed_points(lp, include_boundary=False)
        got = np.array([(p.theta, p.n_zero) for p in pts]).reshape(-1, 2)
        want = np.array(polyroots_fixed_points(lp)).reshape(-1, 2)
        assert got.tobytes() == want.tobytes(), lp


def test_classify_zero_coupling_is_open():
    # with C = 0 the angle precesses at a fixed rate and never turns back
    lp = LandscapeParams(c_eff=0.0, c2n=C2, q=0.01)
    v = classify_trajectory(lp, PendulumState(0.0, 0.5))
    assert v is Verdict.OPEN


def test_classify_invariant_under_full_turn_offset():
    lp = ladder_params(-0.5 * C2)
    a = classify_trajectory(lp, PendulumState(0.3, 0.75))
    b = classify_trajectory(lp, PendulumState(0.3 + 2 * np.pi, 0.75))
    assert a is b


def test_classify_near_center_is_closed():
    lp = ladder_params(-0.5 * C2)
    pts = find_fixed_points(lp)
    center = next(p for p in pts if p.stability is Stability.CENTER)
    start = PendulumState(center.theta, center.n_zero + 1e-4)
    v = classify_trajectory(lp, start)
    assert v is Verdict.CLOSED


def test_energy_conserved_along_closed_orbit():
    from lcse.dynamics import integrate
    lp = ladder_params(-0.5 * C2)
    params, coupling = pendulum_system(lp)
    pts = find_fixed_points(lp)
    center = next(p for p in pts if p.stability is Stability.CENTER)
    traj = integrate("pendulum", PendulumState(center.theta, 0.6),
                     params, (0.0, 1500.0), coupling=coupling, sampling=501)
    e = traj.monitors["energy"]
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_classify_boundary_start():
    lp = ladder_params(-0.5 * C2)
    v = classify_trajectory(lp, PendulumState(0.0, 1.0))
    assert v is Verdict.BOUNDARY


def test_classify_magnetization_mismatch():
    lp = LandscapeParams(c_eff=0.01, c2n=C2, q=0.01, m_mag=0.2)
    with pytest.raises(InvalidInputError):
        classify_trajectory(lp, PendulumState(0.0, 0.5, 0.1))


def test_default_start_grid():
    starts = default_start_grid()
    assert len(starts) == 100
    assert all(0.05 <= s.n_zero <= 0.95 for s in starts)
    assert all(-np.pi <= s.theta <= np.pi for s in starts)
    for counts in ((-1, 10), (10, -1)):
        with pytest.raises(InvalidInputError):
            default_start_grid(*counts)


def test_masked_fraction_matches_energy_grid_mask():
    # the mask depends on n0 alone, so the portrait takes its fraction from
    # the n0 axis; it must equal the full grid's, bit for bit
    for m_mag, resolution in ((0.2, (31, 41)), (0.5, (181, 101)),
                              (0.1, (7, 1000))):
        lp = LandscapeParams(c_eff=-0.01, c2n=C2, q=0.01, m_mag=m_mag)
        grid = GridSpec(n0_range=(0.0, 1.0), resolution=resolution)
        summary = contour_portrait(lp, grid, starts=[])
        mask = energy_grid(lp, grid).mask
        assert 0.0 < summary.masked_fraction < 1.0
        assert summary.masked_fraction == float(mask.mean())


def test_portrait_small_grid_aggregates():
    lp = ladder_params(-C2)
    starts = default_start_grid(n_theta=3, n_n0=3)
    summary = contour_portrait(lp, GridSpec(resolution=(11, 11)),
                               starts=starts)
    assert sum(summary.counts.values()) == 9
    assert len(summary.verdicts) == 9
    d = summary.to_dict()
    import json
    json.dumps(d)  # must be serializable
    assert d["counts"] == dict(summary.counts)


# (Open, Closed) over the 10x10 fig3 start grid per (c_eff / c2, shifts);
# the flow oracle gives the same verdicts
FROZEN_COUNTS = {(1.0, True): (100, 0), (1.0, False): (100, 0),
                 (0.5, True): (100, 0), (0.5, False): (100, 0),
                 (-0.5, True): (74, 26), (-0.5, False): (100, 0),
                 (-1.0, True): (72, 28), (-1.0, False): (100, 0)}


@pytest.mark.parametrize("mult, shifts", sorted(FROZEN_COUNTS))
def test_portrait_frozen_grid_counts(mult, shifts):
    lp = ladder_params(mult * C2, shifts=shifts)
    summary = contour_portrait(lp, GridSpec())
    n_open, n_closed = FROZEN_COUNTS[mult, shifts]
    assert summary.counts == {"Open": n_open, "Closed": n_closed,
                              "Boundary": 0, "Indeterminate": 0}


@pytest.mark.parametrize("shifts", [True, False])
@pytest.mark.parametrize("mult", [1.0, 0.5, -0.5, -1.0])
def test_level_set_matches_flow_on_fig3_starts(mult, shifts):
    lp = ladder_params(mult * C2, shifts=shifts)
    for start in default_start_grid():
        assert classify_trajectory(lp, start) is classify_by_flow(
            lp, start, tau_max=2500.0), start


def test_classify_center_start_is_closed():
    lp = ladder_params(-0.5 * C2)
    center = next(p for p in find_fixed_points(lp)
                  if p.stability is Stability.CENTER)
    start = PendulumState(center.theta, center.n_zero)
    assert classify_trajectory(lp, start) is Verdict.CLOSED


@pytest.mark.parametrize("mult", [-0.5, -1.0])
def test_classify_saddle_start_is_indeterminate(mult):
    # the saddle is a double root of the orbit quartic with Q > 0 on both
    # sides: its level set crosses itself there
    lp = ladder_params(mult * C2)
    saddle = next(p for p in find_fixed_points(lp)
                  if p.stability is Stability.SADDLE)
    start = PendulumState(saddle.theta, saddle.n_zero)
    assert classify_trajectory(lp, start) is Verdict.INDETERMINATE


@pytest.mark.parametrize("mult", [-0.5, -1.0])
@pytest.mark.parametrize("offset", [0.05, 0.2])
def test_classify_start_on_saddle_level_is_indeterminate(mult, offset):
    # a start away from the saddle but on its energy: the orbit runs into
    # the saddle, a double root at one end of the start's interval
    lp = ladder_params(mult * C2)
    saddle = next(p for p in find_fixed_points(lp)
                  if p.stability is Stability.SADDLE)
    n0 = saddle.n_zero - offset
    base = energy(math.pi / 2, n0, lp)
    cos_theta = (saddle.energy - base) / (lp.c_eff * n0 * (1.0 - n0))
    assert abs(cos_theta) < 1.0
    start = PendulumState(math.acos(cos_theta), n0)
    assert energy(start.theta, n0, lp) == pytest.approx(saddle.energy,
                                                        rel=1e-14)
    assert classify_trajectory(lp, start) is Verdict.INDETERMINATE


@pytest.mark.parametrize("c_eff, verdict", [(0.01, Verdict.OPEN),
                                             (0.05, Verdict.INDETERMINATE)])
def test_classify_start_on_n0_zero_line(c_eff, verdict):
    # E = q along all of n0 = 0: theta winds there when Q < 0 just above
    # it; otherwise theta runs into a fixed point on the line
    lp = LandscapeParams(c_eff=c_eff, c2n=C2, q=0.01)
    for theta in (0.0, 1.0, 3.0):
        start = PendulumState(theta, 0.0)
        assert classify_trajectory(lp, start) is verdict
        assert classify_by_flow(lp, start, tau_max=2500.0) is verdict


@pytest.mark.parametrize("mult, shifts", [(1.0, True), (1.0, False),
                                          (-1.0, False)])
def test_classify_when_quartic_drops_degree(mult, shifts):
    # C^2 = (c2 + Delta/4 + p)^2 exactly: the n^4 coefficient of Q(n)
    # vanishes and Q has degree 3
    lp = ladder_params(mult * C2, shifts=shifts)
    b2 = lp.c2n + 0.25 * lp.lightshift_delta + lp.lightshift_p
    assert lp.c_eff * lp.c_eff - b2 * b2 == 0.0
    starts = default_start_grid() + [PendulumState(0.0, 0.5),
                                     PendulumState(math.pi, 0.999)]
    for start in starts:
        assert classify_trajectory(lp, start) is Verdict.OPEN


def orbit_quartic(lp, start):
    """Q(n) of the start's level set, lowest power first, untrimmed."""
    base = _base_energy(lp)
    r = [energy(start.theta, start.n_zero, lp) - base[0], -base[1], -base[2]]
    m2 = lp.m_mag * lp.m_mag
    found = P.polysub(P.polymul([0.0, 0.0, lp.c_eff ** 2],
                                [1.0 - m2, -2.0, 1.0]), P.polymul(r, r))
    return np.pad(found, (0, 5 - len(found)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_roots_equal_polyroots():
    # fig3 with C^2 = (c2 + Delta/4 + p)^2: every quartic has degree 3
    lp = ladder_params(C2)
    dropped = [orbit_quartic(lp, st) for st in default_start_grid()]
    assert all(q[4] == 0.0 and q[3] != 0.0 for q in dropped)
    rng = np.random.default_rng(11)
    mixed = rng.standard_normal((40, 5))
    for i, length in enumerate([5, 4, 3, 2, 1, 0, 3, 2] * 5):
        mixed[i, length:] = 0.0  # trimmed lengths 5 .. 1, and all zero
    cases = [orbit_quartic(ladder_params(-0.5 * C2), st)
             for st in default_start_grid()]
    for batch in (np.array(dropped), mixed, np.array(cases),
                  np.vstack([cases, dropped, mixed])):
        roots = _quartic_roots(batch)
        assert len(roots) == len(batch)
        for q, z in zip(batch, roots):
            assert same_bits(z, P.polyroots(q)), q
    assert _quartic_roots(np.zeros((0, 5))) == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m_mag=st.floats(-0.5, 0.5), c_eff=st.floats(-1.0, 1.0),
       c2n=coefficient, q=coefficient, ls_delta=coefficient, ls_p=coefficient,
       points=st.lists(st.tuples(st.floats(-math.pi, math.pi),
                                 st.floats(0.0, 1.0)), max_size=12))
def test_portrait_verdicts_equal_per_start_verdicts(
        m_mag, c_eff, c2n, q, ls_delta, ls_p, points):
    lp = LandscapeParams(c_eff=c_eff, c2n=c2n, q=q, m_mag=m_mag,
                         lightshift_delta=ls_delta, lightshift_p=ls_p)
    n0_max = 1.0 - abs(m_mag)
    starts = [PendulumState(t, f * n0_max, m_mag) for t, f in points]
    starts += [PendulumState(0.0, 0.0, m_mag),
               PendulumState(math.pi, n0_max, m_mag)]
    summary = contour_portrait(lp, GridSpec(), starts)
    assert [v for _t, _n, v in summary.verdicts] == [
        classify_trajectory(lp, st) for st in starts]


def test_portrait_of_no_starts():
    summary = contour_portrait(ladder_params(-C2), GridSpec(), starts=[])
    assert summary.verdicts == []
    assert summary.counts == {v.value: 0 for v in Verdict}


def test_portrait_refuses_a_start_of_other_magnetization():
    lp = ladder_params(-C2, m_mag=0.2)
    starts = default_start_grid(3, 3, n0_hi=0.7, m_mag=0.2)
    starts.insert(4, PendulumState(0.0, 0.5, 0.1))
    with pytest.raises(InvalidInputError, match="m_mag"):
        contour_portrait(lp, GridSpec(), starts)


def test_flow_finds_return_between_samples():
    # period 1329 < tau_max; the nearest 0.02-tau sample is 1.02e-4 from the
    # start, outside eps_return = 1e-4, so an unrefined scan said
    # Indeterminate
    lp = ladder_params(-0.5 * C2)
    starts = default_start_grid(n0_lo=0.045445505235574814,
                                n0_hi=0.952461350932027)
    hits = [s for s in starts if abs(abs(s.theta) - math.pi / 3) < 1e-9
            and abs(s.n_zero - 0.54934) < 1e-4]
    assert len(hits) == 2
    for start in hits:
        assert classify_by_flow(lp, start, tau_max=2500.0) is Verdict.CLOSED
        assert classify_trajectory(lp, start) is Verdict.CLOSED



@settings(max_examples=20, deadline=None, derandomize=True)
@given(m_mag=st.floats(-0.5, 0.5), c_abs=st.floats(0.05, 1.0),
       c_sign=st.sampled_from([-1.0, 1.0]), c2n=coefficient, q=coefficient,
       ls_delta=coefficient, ls_p=coefficient,
       theta=st.floats(-math.pi, math.pi),
       n0_frac=st.floats(0.0, 1.0, exclude_max=True))
def test_level_set_matches_flow_on_random_landscapes(
        m_mag, c_abs, c_sign, c2n, q, ls_delta, ls_p, theta, n0_frac):
    lp = LandscapeParams(c_eff=c_sign * c_abs, c2n=c2n, q=q, m_mag=m_mag,
                         lightshift_delta=ls_delta, lightshift_p=ls_p)
    start = PendulumState(theta, n0_frac * (1.0 - abs(m_mag)), m_mag)
    assert classify_trajectory(lp, start) is classify_by_flow(
        lp, start, tau_max=300.0)


def test_fixed_points_at_rounded_domain_edge():
    # 1 - |m| rounds to an n0 where (1-n0)^2 - m^2 is slightly negative
    lp = LandscapeParams(c_eff=0.01, c2n=C2, q=0.01, m_mag=0.1)
    edge = [p for p in find_fixed_points(lp)
            if p.stability is Stability.BOUNDARY_EXTREMUM]
    assert [p.n_zero for p in edge] == [0.0, 0.9]
    assert edge[1].energy == pytest.approx(0.01 * 0.1 + C2 * 0.9 * 0.1,
                                           rel=1e-12)


def test_domain_edge_survives_rounding():
    # n0 = 1 - |m| = 0.9 for m = 0.1, where (1-n0)^2 - m^2 = -1.7e-18
    lp = LandscapeParams(c_eff=0.01, c2n=C2, q=0.01, m_mag=0.1)
    start = PendulumState(0.0, 0.9, 0.1)
    assert np.isfinite(energy(start.theta, start.n_zero, lp))
    assert classify_trajectory(lp, start) is Verdict.BOUNDARY
    grid = energy_grid(lp, GridSpec(n0_range=(0.0, 0.9), resolution=(5, 10)))
    assert grid.n_zero[-1] == 0.9
    assert not grid.mask.any()
    # a step past the edge beyond rounding is still outside
    with pytest.raises(InvalidInputError):
        PendulumState(0.0, 0.9 + 1e-12, 0.1)
    with pytest.raises(DomainError):
        energy(0.0, 0.9 + 1e-12, lp)
    wide = energy_grid(lp, GridSpec(n0_range=(0.0, 0.95), resolution=(5, 20)))
    assert wide.mask[-1].all() and not wide.mask[:-1].any()


@pytest.mark.parametrize("field", ["c_eff", "q", "m_mag", "lightshift_p"])
def test_landscape_params_reject_nonfinite(field):
    kwargs = dict(c_eff=0.01, c2n=C2, q=0.01)
    kwargs[field] = math.nan
    with pytest.raises(InvalidInputError, match="finite"):
        LandscapeParams(**kwargs)
