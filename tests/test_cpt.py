"""Dark-state preparation, detuning locks, pulses, and transfer runs.

Verifies:
  - trapped-state populations and the 2 n_s + n0s = 1 identity
  - detuning-lock limits for both lock variants
  - sech pulse shape and schedule construction, theta_fixed only with
    the fixed lock
  - stationarity residuals at the dark state for both locks
  - a dark-prepared state rides a frozen pulse with static populations
  - transfer efficiency decreases with loss rate, peak molecular fraction
    decreases with pulse duration, both against frozen baselines
  - adiabaticity diagnostic magnitudes, monotonicity, and flag
  - a fig4 transfer's heap peak stays bounded as its samples are written
    while it steps
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lcse import InvalidInputError, SpinorAmplitudes, SystemParams
from lcse import RB87_C2_OVER_C0 as C2
from lcse.cpt import (PulseSchedule, adiabaticity_diagnostic,
                      cpt_populations, cpt_state, make_schedule,
                      resonance_detuning, run_transfer,
                      stationarity_residual, THETA_VARIANTS)


def test_cpt_populations_ratio_two():
    ns, n0s = cpt_populations(1.0, 2.0)
    assert ns == pytest.approx(0.25, rel=1e-15)
    assert n0s == pytest.approx(0.5, rel=1e-15)


def test_cpt_population_identity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        op = rng.uniform(1e-3, 10.0)
        od = rng.uniform(1e-3, 10.0)
        ns, n0s = cpt_populations(op, od)
        assert 2 * ns + n0s == pytest.approx(1.0, rel=1e-14)
        assert n0s / ns == pytest.approx(od / op, rel=1e-12)


def test_cpt_requires_positive_pump():
    with pytest.raises(InvalidInputError):
        cpt_populations(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        cpt_state(-1.0, 1.0)


def test_cpt_state_satisfies_dark_condition():
    # omega_d * a+ * a- = omega_p * a0^2 decouples the molecular mode
    op, od = 0.7, 2.9
    st = cpt_state(op, od)
    lhs = od * st.a_plus * st.a_minus
    rhs = op * st.a_zero ** 2
    assert abs(lhs - rhs) < 1e-15
    assert st.a_m == 0


def test_detuning_lock_limits():
    delta = 3.0
    # r -> 0: both locks approach -delta + 2 c2 (the coherence lock has a
    # sqrt(r) tail, so push r far down)
    for variant in ("coherence", "stationary"):
        th = resonance_detuning(1.0, 1e-13, delta, C2, variant=variant)
        assert th == pytest.approx(-delta + 2 * C2, abs=1e-7)
    # r -> infinity: the locks differ (coherence keeps a -4 c2 tail)
    th_c = resonance_detuning(1.0, 1e13, delta, C2, variant="coherence")
    th_s = resonance_detuning(1.0, 1e13, delta, C2, variant="stationary")
    assert th_c == pytest.approx(-delta - 4 * C2, abs=1e-7)
    assert th_s == pytest.approx(-delta - 2 * C2, abs=1e-7)
    # no collisions: both reduce to -delta
    for variant in ("coherence", "stationary"):
        assert resonance_detuning(2.0, 3.0, delta, 0.0,
                                  variant=variant) == -delta


def test_detuning_unknown_variant():
    with pytest.raises(InvalidInputError):
        resonance_detuning(1.0, 1.0, 0.0, C2, variant="nope")


def dump(pulse):
    """The dump Rabi frequency of a schedule as a function of tau."""
    return lambda tau: pulse.drive(tau)[1]


def test_sech_pulse_shape():
    f = dump(PulseSchedule(omega_p=1.0, omega_d0=40.0, t_zero=20.0))
    assert f(0.0) == pytest.approx(40.0, rel=1e-15)
    assert f(7.3) == pytest.approx(f(-7.3), rel=1e-14)
    assert f(0.0) > f(10.0) > f(100.0) > 0.0
    assert f(200.0) / f(0.0) < 1e-4  # sech(10) ~ 9e-5
    with pytest.raises(InvalidInputError):
        PulseSchedule(omega_p=1.0, omega_d0=40.0, t_zero=0.0)


def test_make_schedule_variants():
    assert make_schedule is PulseSchedule  # the constructor's older name
    assert set(THETA_VARIANTS) == {"coherence", "stationary", "fixed"}
    with pytest.raises(InvalidInputError):
        make_schedule(1.0, 40.0, 20.0, theta_variant="fixed")
    p = make_schedule(1.0, 40.0, 20.0, theta_variant="fixed", theta_fixed=0.4)
    assert p.drive(12.0)[2] == 0.4
    # a locked schedule tracks the instantaneous Rabi ratio
    delta = 3.0
    p = make_schedule(1.0, 40.0, 20.0, small_delta=delta, c2n=C2,
                      theta_variant="stationary")
    expect = resonance_detuning(1.0, 40.0, delta, C2, variant="stationary")
    assert p.drive(0.0)[2] == pytest.approx(expect, rel=1e-12)
    assert p.drive(0.0)[1] == pytest.approx(40.0, rel=1e-15)
    assert p.drive(123.0)[0] == 1.0
    with pytest.raises(InvalidInputError):
        make_schedule(1.0, 40.0, 20.0, theta_variant="unknown")


SCHEDULES = [
    dict(omega_p=1.0, omega_d0=40.0, t_zero=20.0, small_delta=3.0, c2n=C2),
    dict(omega_p=1.0, omega_d0=40.0, t_zero=0.1, small_delta=3.0, c2n=C2,
         theta_variant="stationary"),
    dict(omega_p=0.5, omega_d0=2.0, t_zero=7.0, theta_variant="fixed",
         theta_fixed=0.4),
]


@pytest.mark.parametrize("kwargs", SCHEDULES)
def test_array_pulse_matches_scalar_pulse(kwargs):
    # numpy's cosh (arrays) and math's (floats) round up to one ulp apart,
    # so amplitude / cosh up to two; the pump is exact
    pulse = make_schedule(**kwargs)
    taus = np.linspace(-100.0, 150.0, 2001)
    levels = pulse.drive(taus)
    singles = [pulse.drive(float(t)) for t in taus]
    assert all(isinstance(v, float) for v in singles[0])
    # pump, dump, detuning
    for k, ulps in ((0, 0), (1, 2), (2, 2)):
        vec = levels[k]
        one = np.array([s[k] for s in singles])
        assert vec.shape == taus.shape
        assert np.all(np.abs(vec - one) <= ulps * np.spacing(np.abs(one)))


def test_short_pulse_dump_reaches_zero_without_overflow():
    # tau / t0 = 1500 overflows cosh; sech there is taken as exactly 0
    pulse = make_schedule(1.0, 40.0, 0.1, small_delta=3.0, c2n=C2)
    f = dump(pulse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(150.0) == 0.0 and f(-150.0) == 0.0
        assert np.array_equal(f(np.array([-150.0, 150.0])), [0.0, 0.0])
        assert pulse.drive(150.0)[2] == resonance_detuning(
            1.0, 0.0, 3.0, C2)
        rep = adiabaticity_diagnostic(pulse)
    assert np.isfinite(rep.value)


def test_pulse_schedule_is_plain_data():
    pulse = make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2,
                          theta_variant="fixed", theta_fixed=1)
    assert pulse == make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2,
                                  theta_variant="fixed", theta_fixed=1.0)
    assert pulse.meta == {"omega_p": 1.0, "omega_d0": 40.0, "t_zero": 20.0,
                          "theta_variant": "fixed", "theta_fixed": 1.0}
    assert "theta_fixed" not in make_schedule(1.0, 40.0, 20.0).meta
    with pytest.raises(dataclasses.FrozenInstanceError):
        pulse.omega_p = 2.0
    for bad in (dict(omega_p=0.0), dict(t_zero=0.0), dict(omega_d0=-1.0)):
        with pytest.raises(InvalidInputError):
            make_schedule(**{"omega_p": 1.0, "omega_d0": 40.0,
                             "t_zero": 20.0, **bad})


@pytest.mark.parametrize("variant", ["coherence", "stationary"])
def test_pulse_schedule_refuses_unread_theta_fixed(variant):
    # only the fixed lock reads theta_fixed; a locked schedule would not
    with pytest.raises(InvalidInputError, match="theta_fixed needs"):
        make_schedule(1.0, 40.0, 20.0, theta_variant=variant,
                      theta_fixed=5.0)


@pytest.mark.parametrize("r", [1e-3, 1.0, 40.0, 1e3])
def test_stationary_lock_residual(r):
    res = stationarity_residual(1.0, r, C2, small_delta=3.0,
                                variant="stationary")
    assert res.corotating < 1e-9
    assert res.populations < 1e-12


COHERENCE_RESIDUALS = {
    1e-3: 3.164860e-06,
    1.0: 2.444437e-17,
    40.0: 1.579970e-03,
    1e3: 3.991289e-04,
}


@pytest.mark.parametrize("r", sorted(COHERENCE_RESIDUALS))
def test_coherence_lock_residual_frozen(r):
    # the printed lock is exactly stationary only at matched Rabi rates;
    # elsewhere it leaves a small frozen residual
    res = stationarity_residual(1.0, r, C2, small_delta=3.0,
                                variant="coherence")
    expected = COHERENCE_RESIDUALS[r]
    if expected < 1e-15:
        assert res.corotating < 1e-15
    else:
        assert res.corotating == pytest.approx(expected, rel=2e-2)
    assert res.populations < 1e-12


@pytest.mark.parametrize("r", [0.5, 40.0])
def test_frozen_pulse_keeps_dark_state(r):
    # constant Rabi pair, stationary lock, no loss: the dark state must
    # simply sit there
    from lcse.dynamics import integrate
    op, od = 1.0, r
    theta = resonance_detuning(op, od, 3.0, C2, variant="stationary")
    pulse = make_schedule(op, od, 1e9, theta_variant="fixed",
                          theta_fixed=theta)
    st = cpt_state(op, od)
    traj = integrate("resonant", st, SystemParams(small_delta=3.0),
                     (0.0, 50.0), pulse=pulse, sampling=501)
    pops = traj.populations()
    assert np.max(np.abs(pops[:3] - pops[:3, :1])) < 1e-9
    assert np.max(pops[3]) < 1e-9


GAMMA_EFFICIENCIES = [(0.0, 0.960139), (0.5, 0.943233),
                      (1.0, 0.928075), (2.0, 0.901601)]


def test_transfer_efficiency_decreases_with_loss():
    effs = []
    for gamma, frozen in GAMMA_EFFICIENCIES:
        pulse = make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2)
        res = run_transfer(cpt_state(1.0, 40.0),
                           SystemParams(small_delta=3.0, gamma=gamma),
                           pulse, tau_span=(0.0, 150.0))
        assert res.efficiency == pytest.approx(frozen, abs=1e-3)
        effs.append(res.efficiency)
    assert all(a > b for a, b in zip(effs, effs[1:]))


T0_PEAKS = [(10.0, 3.593979e-4), (20.0, 1.112332e-4), (40.0, 3.446186e-5)]


def test_peak_molecular_decreases_with_pulse_duration():
    peaks = []
    for t0, frozen in T0_PEAKS:
        pulse = make_schedule(1.0, 40.0, t0, small_delta=3.0, c2n=C2)
        res = run_transfer(cpt_state(1.0, 40.0),
                           SystemParams(small_delta=3.0, gamma=1.0),
                           pulse, tau_span=(0.0, 7.5 * t0))
        assert res.peak_molecular == pytest.approx(frozen, rel=1e-2)
        peaks.append(res.peak_molecular)
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


ADIABATICITY_VALUES = [(10.0, 1.952952e-2), (20.0, 9.764761e-3),
                       (40.0, 3.586774e-3)]


def test_adiabaticity_magnitudes_and_monotonicity():
    values = []
    for t0, frozen in ADIABATICITY_VALUES:
        pulse = make_schedule(1.0, 40.0, t0, small_delta=3.0, c2n=C2)
        rep = adiabaticity_diagnostic(pulse)
        assert rep.value == pytest.approx(frozen, rel=1e-3)
        assert rep.adiabatic
        values.append(rep.value)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_adiabaticity_constant_pulse_is_zero():
    pulse = make_schedule(1.0, 40.0, 1e9, theta_variant="fixed",
                          theta_fixed=0.0)
    rep = adiabaticity_diagnostic(pulse)
    assert rep.value < 1e-6


def test_adiabaticity_flags_fast_pulse():
    pulse = make_schedule(1.0, 40.0, 0.05, small_delta=3.0, c2n=C2)
    rep = adiabaticity_diagnostic(pulse, tau_grid=np.linspace(-2, 2, 4001))
    assert rep.value > 1.0
    assert not rep.adiabatic


def test_run_transfer_rejects_nonpositive_pump():
    # a nonpositive pump is refused when the schedule is built
    # (test_pulse_schedule_is_plain_data); a valid schedule runs
    pulse = make_schedule(1.0, 40.0, 20.0, theta_variant="fixed",
                          theta_fixed=0.0)
    res = run_transfer(cpt_state(1.0, 40.0), SystemParams(), pulse,
                       tau_span=(0.0, 1.0), sampling=11)
    assert res.trajectory.times.shape == (11,)


def test_transfer_result_population_bounds():
    pulse = make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2)
    res = run_transfer(cpt_state(1.0, 40.0),
                       SystemParams(small_delta=3.0, gamma=1.0),
                       pulse, tau_span=(0.0, 150.0))
    n = res.final_populations
    assert all(0.0 <= v <= 1.0 for v in n)
    assert 0.0 <= res.efficiency <= 1.0
    assert 0.0 < res.atom_survival <= 1.0
    assert res.efficiency <= res.efficiency_surviving <= 1.0
    assert res.peak_molecular_late <= res.peak_molecular
    assert res.max_population_asymmetry < 1e-12
    d = res.to_dict()
    assert set(d) >= {"final_populations", "efficiency", "peak_molecular",
                      "atom_survival", "efficiency_surviving"}


def test_transfer_heap_peak_is_bounded():
    # the run writes its samples every few dozen accepted steps instead of
    # holding every step with samples to the end: a fig4 transfer peaked at
    # 11.3 MB of heap that way and peaks at 0.8 MB now (tracemalloc); the
    # bound leaves 2.5 times the measured peak
    start = SpinorAmplitudes.from_populations(1e-5, 1.0 - 2e-5, 1e-5,
                                              resonant=True)
    pulse = make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2)
    tracemalloc.start()
    try:
        res = run_transfer(start, SystemParams(small_delta=3.0, gamma=1.0),
                           pulse, tau_span=(0.0, 150.0), sampling=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trajectory.values.shape == (4, 2001)
    assert peak <= 2.0e6
