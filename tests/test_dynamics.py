"""Time evolution: right-hand sides, conservation, and cross-validation.

Verifies:
  - fixed states of each family have vanishing derivatives
  - total population and magnetization conservation at default tolerances
  - gamma > 0 makes total population non-increasing
  - energy drift below 1e-8 over tau in [0, 100] for effective and pendulum
  - literal and symmetrized four-mode variants agree when only the plus
    component differs from the dark manifold, and differ on generic states
  - halving tolerances reproduces the tight-tolerance answer
  - time-reversed integration returns to the initial state
  - boundary and configuration errors; a pendulum orbit's boundary
    crossing is where solve_ivp's event puts it
  - the one-state RK45 follows solve_ivp's RK45 (both directions, every
    family), and a too-small step raises NumericalError with its tau
  - batched integration: each column matches its single run (every
    detuning lock, both variants), columns do not depend on each other,
    scipy's step rules and tableau (bit for bit), one drive evaluation per
    step attempt, a too-small step names the member
  - a run past the step-attempt budget raises NumericalError with the tau
    reached (a batch: and the member), also a backward decaying run
  - how many held steps or passes are written at a time changes no bit
  - the RHS kernels: one state against a batch column, the pendulum flow
    against the energy gradient, next to the S = 0 edge
  - effective-family symmetries: a global phase changes no observable, and
    swapping a+ and a- swaps n+ and n-
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from lcse import (CouplingSummary, DomainError, IntegratorConfig,
                  InvalidInputError, NumericalError, PendulumState,
                  SpinorAmplitudes,
                  SystemParams, crossvalidate_amplitude_vs_pendulum,
                  drive_ladder, effective_coupling, energy_from_amplitudes,
                  integrate, integrate_batch, rhs_effective, rhs_pendulum,
                  rhs_resonant, state_observables)
from lcse import dynamics
from lcse.config import build
from lcse.cpt import (PulseSchedule, cpt_state, make_schedule,
                      resonance_detuning)
from lcse.presets import load_preset


LADDER = SystemParams(omega_p=0.1, omega_d=1.0, big_delta_prime=10.0, q=0.01)

# calm resonant drive used for conservation checks: constant Rabi pair with a
# fixed relative phase and zero two-photon detuning
CALM = make_schedule(omega_p=0.5, omega_d0=1.0, t_zero=1e9,
                     theta_variant="fixed", theta_fixed=0.1)


def ladder_coupling():
    return effective_coupling(LADDER)


def test_polar_state_is_stationary_effective():
    st = SpinorAmplitudes.from_populations(0.0, 1.0, 0.0)
    d = rhs_effective(st, LADDER, ladder_coupling())
    # a_zero only rotates its phase; side modes stay exactly empty
    assert d[0] == 0
    assert d[2] == 0
    assert abs(d[1].real + d[1].imag * 0) >= 0  # finite
    assert np.isfinite(abs(d[1]))


def test_zero_coupling_freezes_populations():
    params = SystemParams(c2n=0.0, q=0.0)
    coupling = effective_coupling(SystemParams(
        omega_p=0.0, omega_d=0.0, big_delta_prime=5.0, c2n=0.0, q=0.0))
    st = SpinorAmplitudes.from_populations(0.2, 0.5, 0.3, phase_plus=0.3)
    traj = integrate("effective", st, params, (0.0, 20.0), coupling=coupling,
                     sampling=101)
    pops = traj.populations()
    assert np.max(np.abs(pops - pops[:, :1])) < 1e-12


def test_pendulum_rhs_zero_torque_on_axis():
    c = ladder_coupling()
    for theta in (0.0, np.pi):
        _, dn = rhs_pendulum(PendulumState(theta, 0.6), LADDER, c)
        assert dn == pytest.approx(0.0, abs=1e-15)


def edge_and_interior_starts(rng, count):
    """(theta, n0, m) triples: m != 0 starts next to the S = 0 edge
    n0 = 1 - |m| (gaps 1e-1 .. 1e-14) and interior starts."""
    out = []
    for k in range(count):
        m = rng.uniform(-0.6, 0.6)
        edge = 1.0 - abs(m)
        gap = 10.0 ** -(1 + k % 14) if k % 2 else rng.uniform(0.0, 1.0)
        out.append((rng.uniform(-20.0, 20.0), edge * (1.0 - gap), m))
    return out


def test_effective_kernel_one_state_against_batch_column():
    # one state as a list runs on Python complex (the single-run path of
    # integrate) and a batch on numpy rows with the 0-d complex
    # coefficients the batch loop hands its kernel; numpy's array loops may
    # fuse a multiply-add (FMA) where Python rounds twice, so the two agree
    # to rounding, not bit for bit: the largest difference found over 6e4
    # random states was about 1 eps sum|coefficients|
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for theta, n0, m in edge_and_interior_starts(rng, 2000):
        st = SpinorAmplitudes.from_populations(
            max(0.5 * (1.0 - n0 + m), 0.0), n0, max(0.5 * (1.0 - n0 - m), 0.0),
            phase_plus=theta + rng.uniform(-1.0, 1.0), phase_zero=0.3)
        y = np.array([st.a_plus, st.a_zero, st.a_minus])
        coeffs = rng.uniform(-1.0, 1.0, 5) * 10.0 ** rng.uniform(-3, 0, 5)
        one = dynamics._rhs_eff(y.tolist(), *coeffs.tolist())
        column = dynamics._rhs_eff(
            y[:, None], *dynamics._complex_operands(tuple(coeffs)))[:, 0]
        assert isinstance(one, list) and len(one) == 3
        one = np.array(one)
        assert np.abs(one - column).max() <= 2.0 * eps * np.abs(coeffs).sum()


def test_resonant_kernel_one_state_against_batch_column():
    # as for the effective kernel: a list on Python complex against numpy
    # rows, with the operands the batch loop hands the kernel (complex drive
    # rows from the system description, 0-d complex coefficients); the
    # largest difference found over 6e4 random states was 1.03 eps
    # sum|coefficients|
    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps
    for k in range(2000):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y /= np.sqrt(np.sum(np.abs(y) ** 2 * [1.0, 1.0, 1.0, 2.0]))
        coeffs = rng.uniform(-1.0, 1.0, 6) * 10.0 ** rng.uniform(-3, 2, 6)
        coeffs[[0, 1, 5]] = abs(coeffs[[0, 1, 5]])   # the Rabi pair, decay
        op, od, th, c2, delta, gamma = coeffs.tolist()
        # t_zero = inf holds the dump at omega_d0 for every tau
        pulse = PulseSchedule(op, od, np.inf, theta_variant="fixed",
                              theta_fixed=th)
        params = SystemParams(c2n=c2, small_delta=delta, gamma=gamma)
        rows, fixed = dynamics._resonant_operands(
            params, pulse, "symmetrized" if k % 2 else "literal")
        one = dynamics._res_body(y.tolist(), *rows(0.0), *fixed)
        column = dynamics._res_body(y[:, None], *rows(np.zeros(1)),
                                    *dynamics._complex_operands(fixed))[:, 0]
        assert isinstance(one, list) and len(one) == 4
        one = np.array(one)
        assert np.abs(one - column).max() <= 2.0 * eps * np.abs(coeffs).sum()


def energy_gradient_n0(theta, n_zero, m_mag, c_eff, c2n, q,
                       lightshift_delta=0.0, lightshift_p=0.0):
    """Oracle: dE/dn0 of dynamics.energy_functional on numpy, with the
    guard dS/dn0 = 0 at S = 0; it diverges there for m != 0."""
    s2 = (1.0 - n_zero) ** 2 - m_mag ** 2
    s = np.sqrt(np.maximum(s2, 0.0))
    ds = np.where(s > 0.0, -(1.0 - n_zero) / np.where(s > 0.0, s, 1.0), 0.0)
    return (-q + c_eff * np.cos(theta) * (s + n_zero * ds)
            + c2n * (1.0 - 2.0 * n_zero)
            + 0.5 * lightshift_delta * (1.0 - n_zero)
            - 2.0 * lightshift_p * n_zero)


def test_pendulum_kernel_is_energy_gradient():
    rng = np.random.default_rng(12)
    for theta, n0, m in edge_and_interior_starts(rng, 2000):
        coeffs = rng.uniform(-1.0, 1.0, 5).tolist()
        c_eff, c2, q, ls_delta, ls_p = coeffs
        dth, dn0 = dynamics._rhs_pend(0.0, np.array([theta, n0]), c_eff, c2,
                                      q, m, ls_delta, ls_p)
        s = np.sqrt(max((1.0 - n0) ** 2 - m ** 2, 0.0))
        assert dth == 2.0 * energy_gradient_n0(
            theta, n0, m, c_eff, c2, q, ls_delta, ls_p)
        assert dn0 == 2.0 * c_eff * n0 * s * np.sin(theta)


def test_energy_drift_effective():
    st = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    traj = integrate("effective", st, LADDER, (0.0, 100.0),
                     coupling=ladder_coupling(), sampling=501)
    e = traj.monitors["energy"]
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_energy_drift_pendulum():
    traj = integrate("pendulum", PendulumState(0.0, 0.9), LADDER,
                     (0.0, 100.0), coupling=ladder_coupling(), sampling=501)
    e = traj.monitors["energy"]
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_population_and_magnetization_conserved():
    rng = np.random.default_rng(7)
    c = ladder_coupling()
    for _ in range(5):
        n = rng.dirichlet((2.0, 2.0, 2.0))
        ph = rng.uniform(-np.pi, np.pi, size=2)
        st = SpinorAmplitudes.from_populations(
            n[0], n[1], n[2], phase_plus=ph[0], phase_minus=ph[1])
        traj = integrate("effective", st, LADDER, (0.0, 100.0), coupling=c,
                         sampling=201)
        assert np.max(np.abs(traj.monitors["total_n"] - 1.0)) < 1e-9
        m0 = traj.monitors["magnetization"][0]
        assert np.max(np.abs(traj.monitors["magnetization"] - m0)) < 1e-9


def test_resonant_conservation_short_window():
    # four-mode symmetrized variant with gamma = 0 keeps N and m to
    # 10 * rel_tol over a 25-unit window under the calm drive
    st = SpinorAmplitudes.from_populations(0.3, 0.4, 0.3, n_m=0.0,
                                           resonant=True)
    params = SystemParams(gamma=0.0)
    traj = integrate("resonant", st, params, (0.0, 25.0), pulse=CALM,
                     sampling=201)
    assert np.max(np.abs(traj.monitors["total_n"] - 1.0)) < 1e-9
    m = traj.monitors["magnetization"]
    assert np.max(np.abs(m - m[0])) < 1e-9


def test_resonant_gamma_drains_population():
    st = SpinorAmplitudes.from_populations(0.3, 0.4, 0.3, resonant=True)
    traj = integrate("resonant", st, SystemParams(gamma=0.5), (0.0, 25.0),
                     pulse=CALM, sampling=201)
    total = traj.monitors["total_n"]
    assert np.all(np.diff(total) <= 1e-12)
    assert total[-1] < 1.0 - 1e-4


def test_dark_state_has_static_populations():
    # the coherent-population-trapping state decouples from the drive for
    # any relative phase; its population derivatives vanish when the
    # detuning lock compensates collisions
    params = SystemParams(gamma=0.0)
    for r in (0.5, 4.0):
        op, od = 0.3, 0.3 * r
        theta = resonance_detuning(op, od, 0.0, params.c2n,
                                   variant="stationary")
        pulse = make_schedule(omega_p=op, omega_d0=od, t_zero=1e9,
                              theta_variant="fixed", theta_fixed=theta)
        st = cpt_state(op, od)
        d = rhs_resonant(st, params, pulse, tau=0.0, variant="symmetrized")
        amps = np.array([st.a_plus, st.a_zero, st.a_minus, st.a_m])
        dpop = 2.0 * np.real(np.conj(amps) * np.array(d))
        assert np.max(np.abs(dpop)) < 1e-9


def test_literal_matches_symmetrized_on_plus_only_state():
    # the variants differ only in terms proportional to a_zero and a_minus
    params = SystemParams(small_delta=1.5, gamma=0.2)
    st = SpinorAmplitudes(0.9 + 0.1j, 0.0, 0.0, 0.2j)
    d_lit = rhs_resonant(st, params, CALM, tau=0.0, variant="literal")
    d_sym = rhs_resonant(st, params, CALM, tau=0.0, variant="symmetrized")
    assert np.allclose(d_lit, d_sym, atol=1e-15)


def test_literal_differs_on_generic_state():
    params = SystemParams(small_delta=1.5)
    st = SpinorAmplitudes.from_populations(0.2, 0.5, 0.3, n_m=0.0,
                                           phase_plus=0.4, resonant=True)
    d_lit = rhs_resonant(st, params, CALM, tau=0.0, variant="literal")
    d_sym = rhs_resonant(st, params, CALM, tau=0.0, variant="symmetrized")
    assert max(abs(a - b) for a, b in zip(d_lit, d_sym)) > 1e-3


def test_tolerance_halving_convergence():
    st = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    loose = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    half = IntegratorConfig(rel_tol=5e-9, abs_tol=5e-11)
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    runs = {}
    for label, cfg in (("loose", loose), ("half", half), ("tight", tight)):
        traj = integrate("effective", st, LADDER, (0.0, 50.0),
                         coupling=ladder_coupling(), config=cfg, sampling=101)
        runs[label] = traj.populations()
    err_loose = np.max(np.abs(runs["loose"] - runs["tight"]))
    err_half = np.max(np.abs(runs["half"] - runs["tight"]))
    assert err_half < err_loose
    assert err_half < 10.0 * 5e-9


def test_time_reversal_returns_to_start():
    st = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    fwd = integrate("effective", st, LADDER, (0.0, 30.0),
                    coupling=ladder_coupling(), sampling=2)
    end = SpinorAmplitudes(*fwd.values[:, -1])
    back = integrate("effective", end, LADDER, (30.0, 0.0),
                     coupling=ladder_coupling(), sampling=2)
    start = np.array([st.a_plus, st.a_zero, st.a_minus])
    dev = np.max(np.abs(back.values[:, -1] - start))
    assert dev < 100.0 * 1e-10


def test_crossvalidation_effective_vs_pendulum():
    st = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    cv = crossvalidate_amplitude_vs_pendulum(
        st, LADDER, ladder_coupling(), (0.0, 50.0))
    assert cv.max_dev_n0 < 1e-6


def test_pendulum_boundary_raises_domain_error():
    # (1 - n0)^2 = m^2 makes the conjugate angle singular
    with pytest.raises(DomainError):
        integrate("pendulum", PendulumState(0.0, 0.5, 0.5), LADDER,
                  (0.0, 10.0), coupling=ladder_coupling())
    with pytest.raises(DomainError):
        rhs_pendulum(PendulumState(0.0, 0.5, 0.5), LADDER,
                     ladder_coupling())


# starts at m = 0 within 3e-6 of n0 = 1 whose orbits come within 1e-6 of
# it, where the boundary function (1-n0)^2 - m^2 - 1e-12 turns negative:
# (n0, theta, c2n, q, c_eff)
EDGE_RUNS = [
    (0.9999987595561141, 1.979321245645874, 0.015765221087324324,
     0.018279890786035022, 0.03200757501705351),
    (0.9999973246365328, -2.0092023719157126, -0.008389840032296939,
     -0.043676653143422284, -0.04742194697021258),
    (0.9999996174136704, 2.0144312846873786, 0.04407266251629953,
     0.014915534081078596, 0.04643899206268444),
]


@pytest.mark.parametrize("n0, theta, c2n, q, c_eff", EDGE_RUNS)
def test_pendulum_boundary_crossing_is_solve_ivps_event(n0, theta, c2n, q,
                                                        c_eff):
    # the crossing is located on the crossing step's dense output, where
    # solve_ivp's terminal event of direction -1 puts it
    from scipy.integrate import solve_ivp

    def boundary(tau, y, *args):
        return (1.0 - y[1]) ** 2 - 1e-12

    boundary.terminal, boundary.direction = True, -1
    sol = solve_ivp(dynamics._rhs_pend, (0.0, 200.0), [theta, n0],
                    args=(c_eff, c2n, q, 0.0, 0.0, 0.0), rtol=1e-10,
                    atol=1e-12, events=[boundary])
    (tau,) = sol.t_events[0]
    assert 0.0 < tau < 200.0
    with pytest.raises(DomainError, match=re.escape(f"at tau = {tau:g}")):
        integrate("pendulum", PendulumState(theta, n0),
                  SystemParams(c2n=c2n, q=q), (0.0, 200.0),
                  coupling=CouplingSummary(0.0, c_eff, 0.0, 0.0),
                  sampling=11)


@pytest.mark.parametrize("span", [(0.0, 40.0), (40.0, 0.0)])
@pytest.mark.parametrize("family", ["effective", "pendulum", "resonant"])
def test_integrate_takes_solve_ivps_steps(family, span):
    # lcse's own RK45 runs scipy's rules on Python numbers: its samples
    # match solve_ivp's RK45 on the same derivative to rounding
    from scipy.integrate import solve_ivp
    t_eval = np.linspace(*span, 201)
    if family == "pendulum":
        start = PendulumState(0.3, 0.6, 0.1)
        coupling = ladder_coupling()
        y0 = [start.theta, start.n_zero]
        kw = dict(coupling=coupling)

        def fun(tau, y):
            return dynamics._rhs_pend(
                tau, y, coupling.c_eff, LADDER.c2n, LADDER.q, start.m_mag,
                coupling.lightshift_delta, coupling.lightshift_p)
        params = LADDER
    else:
        resonant = family == "resonant"
        start = spread_starts(1, resonant)[0]
        # the calm drive with no decay, which a backward run would amplify
        params = SystemParams() if resonant else LADDER
        kw = dict(pulse=CALM) if resonant else dict(coupling=ladder_coupling())
        y0, body, rows, coeffs = dynamics._amplitude_system(
            family, start, params, kw.get("coupling"), kw.get("pulse"),
            "symmetrized")

        def fun(tau, y):
            return body(y, *rows(tau), *coeffs)
    ref = solve_ivp(fun, span, y0, rtol=1e-10, atol=1e-12, t_eval=t_eval)
    ours = integrate(family, start, params, span, sampling=201, **kw)
    assert np.array_equal(ours.times, ref.t)
    assert ours.values.dtype == ref.y.dtype
    assert np.abs(ours.values - ref.y).max() < 1e-12


def test_integrate_too_small_step_raises_with_tau():
    # at tau ~ 1e17 ten ulp of tau (160) is far above any usable step
    pulse = make_schedule(1.0, 40.0, 1e30, theta_variant="fixed",
                          theta_fixed=0.0)
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        integrate("resonant", spread_starts(1, True)[0], SystemParams(),
                  (1e17, 1e17 + 1e4), pulse=pulse, sampling=11)
    assert err.value.tau == 1e17


def test_integrate_rejects_bad_sampling():
    st = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    for span, sampling in (((0.0, 1.0), [0.0, 2.0]), ((0.0, 1.0), [0.5, 0.2]),
                           ((1.0, 0.0), [0.0, 1.0]), ((1.0, 1.0), 11)):
        with pytest.raises(InvalidInputError):
            integrate("effective", st, LADDER, span,
                      coupling=ladder_coupling(), sampling=sampling)


def test_pendulum_magnetization_window_validated():
    with pytest.raises((DomainError, InvalidInputError)):
        PendulumState(0.0, 0.5, 1.5)


def test_integrator_config_validation():
    with pytest.raises(InvalidInputError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(InvalidInputError):
        IntegratorConfig(rel_tol=0.5)
    with pytest.raises(InvalidInputError):
        IntegratorConfig(abs_tol=-1e-12)


def test_unknown_variant_rejected():
    st = SpinorAmplitudes.from_populations(0.3, 0.4, 0.3, resonant=True)
    with pytest.raises(InvalidInputError, match="variant"):
        rhs_resonant(st, SystemParams(), CALM, variant="other")
    with pytest.raises(InvalidInputError, match="variant"):
        integrate("resonant", st, SystemParams(), (0.0, 1.0), pulse=CALM,
                  variant="other")


def test_unknown_family_rejected():
    st = SpinorAmplitudes.from_populations(0.3, 0.4, 0.3)
    with pytest.raises(InvalidInputError):
        integrate("unknown", st, LADDER, (0.0, 1.0),
                  coupling=ladder_coupling())


def test_energy_monitor_matches_functional():
    st = SpinorAmplitudes.from_populations(0.1, 0.8, 0.1, phase_plus=0.7)
    e = energy_from_amplitudes(st, LADDER, ladder_coupling())
    traj = integrate("effective", st, LADDER, (0.0, 1.0),
                     coupling=ladder_coupling(), sampling=2)
    assert traj.monitors["energy"][0] == pytest.approx(e, rel=1e-12)


# ---------------------------------------------------------------------------
# batched integration

FIG4 = make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=-0.0046)


def spread_starts(count, resonant):
    """Distinct normalized starts with small, phased side modes."""
    return [SpinorAmplitudes.from_populations(
                1e-4 * (k + 1), 1.0 - 3e-4 * (k + 1), 2e-4 * (k + 1),
                phase_plus=0.7 * k, phase_minus=-0.3 * k, resonant=resonant)
            for k in range(count)]


# the batch evaluates the drive on all stage times of an attempt at once:
# each detuning lock (the fixed one is a float that broadcasts) and both
# equation variants
BATCH_CASES = [
    pytest.param("effective", None, "symmetrized", 3, id="effective"),
    pytest.param("resonant", FIG4, "symmetrized", 3, id="resonant"),
    pytest.param("resonant", make_schedule(1.0, 40.0, 20.0, small_delta=3.0,
                                           c2n=-0.0046,
                                           theta_variant="stationary"),
                 "symmetrized", 3, id="resonant-stationary"),
    pytest.param("resonant", make_schedule(1.0, 40.0, 20.0, small_delta=3.0,
                                           theta_variant="fixed",
                                           theta_fixed=-2.9),
                 "symmetrized", 3, id="resonant-fixed"),
    pytest.param("resonant", FIG4, "literal", 3, id="resonant-literal"),
    pytest.param("resonant", FIG4, "symmetrized", 1, id="resonant-one-start"),
]


@pytest.mark.parametrize("family, pulse, variant, width", BATCH_CASES)
def test_batch_columns_match_single_runs(family, pulse, variant, width):
    resonant = family == "resonant"
    params = SystemParams(small_delta=3.0, gamma=1.0) if resonant else LADDER
    kwargs = (dict(pulse=pulse, variant=variant) if resonant
              else dict(coupling=ladder_coupling()))
    starts = spread_starts(width, resonant)
    batch = integrate_batch(family, starts, params, (0.0, 30.0),
                            sampling=301, **kwargs)
    assert batch.values.shape == (4 if resonant else 3, width, 301)
    for j, st in enumerate(starts):
        single = integrate(family, st, params, (0.0, 30.0), sampling=301,
                           **kwargs)
        assert np.array_equal(batch.times, single.times)
        assert np.abs(batch.values[:, j] - single.values).max() < 1e-12


def test_batch_columns_do_not_depend_on_each_other():
    params = SystemParams(small_delta=3.0, gamma=1.0)
    starts = spread_starts(4, True)
    whole = integrate_batch("resonant", starts, params, (0.0, 10.0),
                            pulse=FIG4, sampling=101)
    for part in (slice(1, 3), slice(3, 4)):
        sub = integrate_batch("resonant", starts[part], params, (0.0, 10.0),
                              pulse=FIG4, sampling=101)
        assert np.array_equal(sub.values, whole.values[:, part])


def test_batch_evaluates_drive_once_per_step_attempt(monkeypatch):
    calls = {"drive": 0, "rhs": 0}
    drive, body = PulseSchedule.drive, dynamics._res_body

    def counted_drive(self, tau):
        calls["drive"] += 1
        return drive(self, tau)

    def counted_body(*args):
        calls["rhs"] += 1
        return body(*args)

    monkeypatch.setattr(PulseSchedule, "drive", counted_drive)
    monkeypatch.setattr(dynamics, "_res_body", counted_body)
    integrate_batch("resonant", spread_starts(3, True),
                    SystemParams(small_delta=3.0, gamma=1.0), (0.0, 10.0),
                    pulse=FIG4, sampling=11)
    # set-up: the first derivative and the initial-step probe, one RHS
    # and one drive each; then six RHS per loop pass
    setup = 2
    passes, extra = divmod(calls["rhs"] - setup, 6)
    assert extra == 0 and passes > 10
    assert calls["drive"] <= passes + setup


@pytest.mark.parametrize("family", ["effective", "resonant"])
def test_batch_hands_its_kernel_complex_operands(monkeypatch, family):
    # numpy's mixed float-complex loops cost about 1.5 times the complex
    # ones, so every array operand of the kernel is complex128: the state,
    # the drive rows and the coefficients (0-d); only flags stay as they are
    name = "_res_body" if family == "resonant" else "_rhs_eff"
    body = getattr(dynamics, name)
    seen = []

    def checked_body(*args):
        seen.append(args)
        return body(*args)

    monkeypatch.setattr(dynamics, name, checked_body)
    resonant = family == "resonant"
    integrate_batch(family, spread_starts(3, resonant),
                    SystemParams(small_delta=3.0, gamma=1.0) if resonant
                    else LADDER, (0.0, 5.0), sampling=11,
                    **(dict(pulse=FIG4) if resonant
                       else dict(coupling=ladder_coupling())))
    assert len(seen) > 20
    for args in seen:
        for arg in args:
            if not isinstance(arg, bool):
                assert isinstance(arg, np.ndarray), type(arg)
                assert arg.dtype == np.complex128, arg.dtype
        assert [a.ndim for a in args[1:] if not isinstance(a, bool)] == (
            [1, 1, 1, 0, 0] if resonant else [0] * 5)


def test_batch_step_rules_are_scipys():
    # lcse holds scipy's RK45 tableau as literal constants: the same doubles
    # bit for bit (A as its lower triangle), and the same step factors
    from scipy.integrate._ivp import rk
    RK45 = rk.RK45
    assert (dynamics._SAFETY, dynamics._MIN_FACTOR, dynamics._MAX_FACTOR) == (
        rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert dynamics._ERROR_EXPONENT == -1.0 / (RK45.error_estimator_order + 1)
    assert dynamics._STAGES == RK45.n_stages
    a = np.zeros(RK45.A.shape)
    for s, row in enumerate(dynamics._A):
        a[s, :s] = row
    for ours, theirs in ((a, RK45.A), (dynamics._B, RK45.B),
                         (dynamics._C, RK45.C), (dynamics._E, RK45.E),
                         (dynamics._P, RK45.P)):
        ours, theirs = np.array(ours, dtype=float), np.asarray(theirs)
        assert theirs.dtype == np.float64 and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def test_batch_too_small_step_names_member():
    # at tau ~ 1e17 ten ulp of tau (160) is far above any usable step
    pulse = make_schedule(1.0, 40.0, 1e30, theta_variant="fixed",
                          theta_fixed=0.0)
    starts = spread_starts(2, True)
    # the rejected trial steps overflow on the way down
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        integrate_batch("resonant", starts, SystemParams(), (1e17, 1e17 + 1e4),
                        pulse=pulse, sampling=11)
    assert err.value.member == 0
    assert err.value.tau == 1e17
    assert "member 0" in str(err.value)


def test_fig4_transfer_past_step_budget_raises_with_tau(monkeypatch):
    # the budget counts trial steps; a fig4 transfer makes about 4.6k
    monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 200)
    start, kw = build(load_preset("fig4-cpt"))
    with pytest.raises(NumericalError) as err:
        integrate("resonant", start, **kw)
    tau = err.value.tau
    assert 0.0 < tau < 150.0 and err.value.member is None
    assert str(err.value) == (f"integration stopped after 200 step "
                              f"attempts at tau = {tau!r}")


def test_batch_past_step_budget_names_member(monkeypatch):
    # the budget counts loop passes; the member furthest behind is named
    monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 50)
    with pytest.raises(NumericalError) as err:
        integrate_batch("resonant", spread_starts(3, True),
                        SystemParams(small_delta=3.0, gamma=1.0),
                        (0.0, 150.0), pulse=FIG4, sampling=301)
    member, tau = err.value.member, err.value.tau
    assert member in (0, 1, 2) and 0.0 < tau < 150.0
    assert f"for member {member} after 50 step attempts" in str(err.value)
    assert f"at tau = {tau!r}" in str(err.value)


def test_backward_decaying_run_ends_at_step_budget(monkeypatch):
    # run backward, molecular decay is growth: without a budget this run
    # stepped for minutes without finishing or failing
    monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 2000)
    with pytest.raises(NumericalError, match="2000 step attempts") as err, \
            np.errstate(all="ignore"):
        integrate("resonant", spread_starts(1, True)[0],
                  SystemParams(small_delta=3.0, gamma=1.0), (150.0, 0.0),
                  pulse=FIG4, sampling=11)
    assert 0.0 < err.value.tau < 150.0


def test_batch_rejects_bad_input():
    params = SystemParams()
    starts = spread_starts(2, True)
    with pytest.raises(InvalidInputError, match="pendulum"):
        integrate_batch("pendulum", starts, LADDER, (0.0, 1.0),
                        coupling=ladder_coupling())
    with pytest.raises(InvalidInputError, match="variant"):
        integrate_batch("resonant", starts, params, (0.0, 1.0), pulse=CALM,
                        variant="other")
    with pytest.raises(InvalidInputError):
        integrate_batch("resonant", starts, params, (1.0, 0.0), pulse=CALM)
    with pytest.raises(InvalidInputError):
        integrate_batch("resonant", [], params, (0.0, 1.0), pulse=CALM)
    with pytest.raises(InvalidInputError, match="sampling"):
        integrate_batch("resonant", starts, params, (0.0, 1.0), pulse=CALM,
                        sampling=[0.0, 2.0])


def streamed_runs():
    """What the flush bounds could touch: one run of each family, each
    flushing several times at the default bound (the pendulum one
    backward), the message of a pendulum run that flushes before it hits
    the edge, and a batch."""
    fast = SystemParams(c2n=-0.5, q=0.5)
    resonant = SystemParams(small_delta=3.0, gamma=1.0)
    out = {
        "effective": integrate("effective", spread_starts(1, False)[0], fast,
                               (0.0, 40.0), coupling=effective_coupling(fast),
                               sampling=401),
        "pendulum": integrate("pendulum", PendulumState(0.3, 0.6, 0.1), fast,
                              (40.0, 0.0), coupling=effective_coupling(fast),
                              sampling=401),
        "resonant": integrate("resonant", spread_starts(1, True)[0],
                              resonant, (0.0, 30.0), pulse=FIG4,
                              sampling=301),
    }
    out = {key: traj.values for key, traj in out.items()}
    n0, theta, c2n, q, c_eff = EDGE_RUNS[2]
    with pytest.raises(DomainError) as err:
        integrate("pendulum", PendulumState(theta, n0),
                  SystemParams(c2n=c2n, q=q), (0.0, 200.0),
                  coupling=CouplingSummary(0.0, c_eff, 0.0, 0.0),
                  sampling=2001)
    out["edge"] = str(err.value)
    out["batch"] = integrate_batch("resonant", spread_starts(3, True),
                                   resonant, (0.0, 30.0), pulse=FIG4,
                                   sampling=301).values
    return out


@pytest.mark.parametrize("held", [1, 10 ** 9])
def test_flush_bounds_change_no_bit(monkeypatch, held):
    # samples are written a bounded number of held steps (one run) or
    # passes (a batch) at a time; each sample is evaluated on its own, so
    # writing every step by itself or all of them at the end gives the
    # same bits and the same edge crossing
    default = streamed_runs()
    monkeypatch.setattr(dynamics, "_HELD_STEPS", held)
    monkeypatch.setattr(dynamics, "_HELD_PASSES", held)
    changed = streamed_runs()
    assert changed["edge"] == default["edge"]
    for key in ("effective", "pendulum", "resonant", "batch"):
        assert np.array_equal(changed[key], default[key]), key


# ---------------------------------------------------------------------------
# symmetries of the effective family (hypothesis, derandomized)

ladder_w = strategies.floats(-0.02, 0.02).filter(lambda w: abs(w) > 1e-4)
phase = strategies.floats(-np.pi, np.pi)
# every mode occupied at the start, so that theta is defined there
fraction = strategies.floats(0.05, 0.95)


def ladder_run(w, start, tau_end=30.0):
    omega_p, omega_d, big_delta_prime = drive_ladder(w)
    params = SystemParams(omega_p=omega_p, omega_d=omega_d,
                          big_delta_prime=big_delta_prime, q=0.01)
    return integrate("effective", start, params, (0.0, tau_end),
                     coupling=effective_coupling(params), sampling=301)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(w=ladder_w, n0=fraction, split=fraction, phase_plus=phase,
       phase_minus=phase, phi=phase)
def test_global_phase_leaves_observables_unchanged(w, n0, split, phase_plus,
                                                   phase_minus, phi):
    start = SpinorAmplitudes.from_populations(
        (1.0 - n0) * split, n0, (1.0 - n0) * (1.0 - split),
        phase_plus=phase_plus, phase_minus=phase_minus)
    turn = complex(np.exp(1j * phi))
    turned = SpinorAmplitudes(turn * start.a_plus, turn * start.a_zero,
                              turn * start.a_minus)
    a, b = ladder_run(w, start), ladder_run(w, turned)
    np.testing.assert_allclose(b.populations(), a.populations(),
                               rtol=1e-9, atol=1e-12)
    # theta is defined mod 2 pi; the phase may move each arg across the cut
    assert np.abs(np.angle(np.exp(1j * (b.theta() - a.theta())))).max() < 1e-9
    np.testing.assert_allclose(b.monitors["energy"], a.monitors["energy"],
                               rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(w=ladder_w, n0=fraction, split=fraction, phase_plus=phase,
       phase_minus=phase)
def test_mirror_swaps_side_populations(w, n0, split, phase_plus, phase_minus):
    start = SpinorAmplitudes.from_populations(
        (1.0 - n0) * split, n0, (1.0 - n0) * (1.0 - split),
        phase_plus=phase_plus, phase_minus=phase_minus)
    mirrored = SpinorAmplitudes(start.a_minus, start.a_zero, start.a_plus)
    a, b = ladder_run(w, start), ladder_run(w, mirrored)
    np.testing.assert_allclose(b.populations(), a.populations()[::-1],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(b.monitors["magnetization"],
                               -a.monitors["magnetization"], atol=1e-12)
