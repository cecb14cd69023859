"""Energy landscape, fixed points, and orbit classification.

Verifies:
  - closed-form energy values, parity, and coupling-sign symmetry
  - the domain gate (1 - n0)^2 >= m^2
  - grid evaluation with masked infeasible cells
  - bracketing fixed-point search against frozen center/saddle locations
  - orbit verdicts: winding, epsilon-return, boundary starts, and the
    frozen 10x10 grid counts for the four standard couplings
  - level-set verdicts against the flow classifier on every fig3 start and
    on random landscapes, with no fig3 start sent to the flow fallback
  - energy conservation along a classified closed orbit
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from lcse import (DomainError, GridSpec, InvalidInputError, LandscapeParams,
                  PendulumState, Stability, Verdict, classify_trajectory,
                  contour_portrait, default_start_grid, energy, energy_grid,
                  find_fixed_points, ladder_lightshifts, RB87_C2_OVER_C0)
from lcse import landscape
from lcse.landscape import classify_by_flow

C2 = RB87_C2_OVER_C0


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


def test_fixed_points_kill_the_gradient():
    from lcse.dynamics import rhs_pendulum
    lp = ladder_params(-C2)
    params, coupling = lp._system()
    for p in find_fixed_points(lp, include_boundary=False):
        dth, dn0 = rhs_pendulum(PendulumState(p.theta, p.n_zero), params,
                                coupling)
        assert abs(dth) < 1e-8
        assert abs(dn0) < 1e-8


def test_classify_zero_coupling_is_open():
    # with C = 0 the angle precesses at a fixed rate and never turns back
    lp = LandscapeParams(c_eff=0.0, c2n=C2, q=0.01)
    v = classify_trajectory(lp, PendulumState(0.0, 0.5), tau_max=500.0)
    assert v is Verdict.OPEN


def test_classify_invariant_under_full_turn_offset():
    lp = ladder_params(-0.5 * C2)
    a = classify_trajectory(lp, PendulumState(0.3, 0.75), tau_max=2500.0)
    b = classify_trajectory(lp, PendulumState(0.3 + 2 * np.pi, 0.75),
                            tau_max=2500.0)
    assert a is b


def test_classify_near_center_is_closed():
    lp = ladder_params(-0.5 * C2)
    pts = find_fixed_points(lp)
    center = next(p for p in pts if p.stability is Stability.CENTER)
    start = PendulumState(center.theta, center.n_zero + 1e-4)
    v = classify_trajectory(lp, start, tau_max=2500.0)
    assert v is Verdict.CLOSED


def test_energy_conserved_along_closed_orbit():
    from lcse.dynamics import integrate
    lp = ladder_params(-0.5 * C2)
    params, coupling = lp._system()
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


def test_portrait_small_grid_aggregates():
    lp = ladder_params(-C2)
    starts = default_start_grid(n_theta=3, n_n0=3)
    summary = contour_portrait(lp, GridSpec(resolution=(11, 11)),
                               starts=starts, tau_max=2500.0)
    assert sum(summary.counts.values()) == 9
    assert len(summary.verdicts) == 9
    d = summary.to_dict()
    import json
    json.dumps(d)  # must be serializable
    assert d["counts"] == dict(summary.counts)


def test_portrait_frozen_grid_counts():
    lp = ladder_params(-0.5 * C2)
    summary = contour_portrait(lp, GridSpec(), tau_max=2500.0)
    assert summary.counts.get("Open", 0) == 74
    assert summary.counts.get("Closed", 0) == 26
    assert summary.counts.get("Indeterminate", 0) == 0


class _FlowFallback(Exception):
    pass


def level_set_verdict(lp, start):
    """classify_trajectory with the flow fallback refused."""
    def refuse(*args, **kwargs):
        raise _FlowFallback
    with mock.patch.object(landscape, "classify_by_flow", refuse):
        return classify_trajectory(lp, start, tau_max=2500.0)


@pytest.mark.parametrize("shifts", [True, False])
@pytest.mark.parametrize("mult", [1.0, 0.5, -0.5, -1.0])
def test_level_set_matches_flow_on_fig3_starts(mult, shifts):
    lp = ladder_params(mult * C2, shifts=shifts)
    for start in default_start_grid():
        assert level_set_verdict(lp, start) is classify_by_flow(
            lp, start, tau_max=2500.0), start


def test_classify_center_start_is_closed():
    lp = ladder_params(-0.5 * C2)
    center = next(p for p in find_fixed_points(lp)
                  if p.stability is Stability.CENTER)
    start = PendulumState(center.theta, center.n_zero)
    assert level_set_verdict(lp, start) is Verdict.CLOSED


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
        assert classify_trajectory(lp, start, tau_max=2500.0) is Verdict.CLOSED


coefficient = st.floats(-1.0, 1.0)


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
    try:
        verdict = level_set_verdict(lp, start)
    except _FlowFallback:
        reject()  # inside the separatrix margin: the flow decides anyway
    assert verdict is classify_by_flow(lp, start, tau_max=300.0)


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
