"""Parameter derivation, effective coupling, and regime classification.

Verifies:
  - Rb-87 collision strengths: c2/c0 ratio and c0n in rad/s at lab densities
  - coupling identity lightshift_p * lightshift_delta = omega_eff^2
  - ladder construction omega_eff = W with shifts (10 W, W / 10)
  - validity warning fires strictly below the 10x Rabi boundary
  - regime classification incl. the frozen band and scale invariance
  - state observables and normalization gates
"""

import math

import numpy as np
import pytest

from lcse import (CouplingSummary, Regime, ScatteringInputs, SpinorAmplitudes,
                  SystemParams, ValidityWarning, classify_regime,
                  derive_collision_strengths, drive_ladder,
                  effective_coupling, ladder_lightshifts, state_observables,
                  require_normalized, InvalidInputError,
                  RB87_A0, RB87_A2, RB87_C2_OVER_C0)


def test_rb87_ratio():
    assert RB87_C2_OVER_C0 == pytest.approx(-1.4 / 302.6, rel=1e-12)
    assert RB87_C2_OVER_C0 < 0
    assert abs(RB87_C2_OVER_C0) < 0.005


def test_collision_strengths_rb87_density():
    inp = ScatteringInputs(a0=RB87_A0, a2=RB87_A2, density_n=1e14)  # cm^-3
    c0n, c2n = derive_collision_strengths(inp)
    assert c0n == pytest.approx(4901.402226, rel=1e-9)
    assert c2n / c0n == pytest.approx(RB87_C2_OVER_C0, rel=1e-12)
    # doubling the density doubles both strengths
    c0n2, c2n2 = derive_collision_strengths(
        ScatteringInputs(a0=RB87_A0, a2=RB87_A2, density_n=2e14))
    assert c0n2 == pytest.approx(2.0 * c0n, rel=1e-12)
    assert c2n2 == pytest.approx(2.0 * c2n, rel=1e-12)
    # the 2e14 cm^-3 value sits within 2% of the quoted 9700 rad/s scale
    assert abs(c0n2 - 9700.0) / 9700.0 < 0.02


def test_collision_strengths_equal_lengths():
    c0n, c2n = derive_collision_strengths(ScatteringInputs(a0=90.0, a2=90.0))
    assert c2n == 0.0
    assert c0n > 0


@pytest.mark.parametrize("kwargs", [
    {"a0": RB87_A0, "a2": RB87_A2, "density_n": -1.0},
    {"a0": RB87_A0, "a2": RB87_A2, "atomic_mass": 0.0},
    {"a0": RB87_A0, "a2": RB87_A2, "overlap_integral": -0.5},
])
def test_scattering_inputs_validation(kwargs):
    with pytest.raises(InvalidInputError):
        ScatteringInputs(**kwargs)


def test_coupling_identity_random_sweep():
    rng = np.random.default_rng(3)
    for _ in range(50):
        op, od = rng.uniform(0.01, 1.0, size=2)
        theta = rng.uniform(10.0, 1000.0) * rng.choice([-1.0, 1.0])
        c = effective_coupling(SystemParams(omega_p=op, omega_d=od,
                                            big_delta_prime=theta))
        assert c.lightshift_p * c.lightshift_delta == pytest.approx(
            c.omega_eff ** 2, rel=1e-12)


def test_coupling_antisymmetry_in_detuning():
    p = SystemParams(omega_p=0.2, omega_d=0.4, big_delta_prime=50.0)
    m = SystemParams(omega_p=0.2, omega_d=0.4, big_delta_prime=-50.0)
    cp, cm = effective_coupling(p), effective_coupling(m)
    assert cm.omega_eff == -cp.omega_eff
    assert cm.lightshift_delta == -cp.lightshift_delta
    assert cm.lightshift_p == -cp.lightshift_p


def test_coupling_ladder_construction():
    # omega_p = 10 W, omega_d = 100 W, Delta' = 1000 W  ->  omega_eff = W
    w = 2e-3
    omega_p, omega_d, big_delta_prime = drive_ladder(w)
    assert (omega_p, omega_d, big_delta_prime) == (10 * w, 100 * w, 1000 * w)
    c = effective_coupling(SystemParams(
        omega_p=omega_p, omega_d=omega_d, big_delta_prime=big_delta_prime))
    assert c.omega_eff == pytest.approx(w, rel=1e-12)
    delta, p = ladder_lightshifts(w)
    assert (delta, p) == (10 * w, w / 10)
    assert c.lightshift_delta == pytest.approx(delta, rel=1e-12)
    assert c.lightshift_p == pytest.approx(p, rel=1e-12)
    assert c.c_eff == pytest.approx(w + RB87_C2_OVER_C0, rel=1e-12)


def test_lasers_off_reduces_to_collisions():
    c = effective_coupling(SystemParams(omega_p=0.0, omega_d=0.5,
                                        big_delta_prime=30.0))
    assert c.omega_eff == 0.0
    assert c.c_eff == RB87_C2_OVER_C0
    assert c.lightshift_p == 0.0


def test_zero_detuning_rejected():
    with pytest.raises(InvalidInputError, match="resonant"):
        effective_coupling(SystemParams(omega_p=0.1, omega_d=0.1,
                                        big_delta_prime=0.0))


def test_validity_warning_boundary():
    # exactly at |Delta'| = 10 * max(Rabi): no warning (strict inequality)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        effective_coupling(SystemParams(omega_p=0.1, omega_d=1.0,
                                        big_delta_prime=10.0))
    with pytest.warns(ValidityWarning):
        effective_coupling(SystemParams(omega_p=0.1, omega_d=1.0,
                                        big_delta_prime=9.999))


def test_regime_classification():
    c2 = RB87_C2_OVER_C0
    assert classify_regime(c2, c2) is Regime.COLLISION_DOMINATED
    assert classify_regime(-c2, c2) is Regime.REVERSED
    assert classify_regime(0.0, c2) is Regime.FROZEN
    # frozen band edge at 1e-3 * |c2|
    assert classify_regime(1e-3 * abs(c2), c2) is Regime.FROZEN
    assert classify_regime(1.01e-3 * abs(c2), c2) is Regime.REVERSED
    assert classify_regime(-1.01e-3 * abs(c2), c2) is Regime.COLLISION_DOMINATED


def test_regime_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ceff = rng.uniform(-1.0, 1.0)
        c2 = rng.uniform(-1.0, -1e-3)
        lam = rng.uniform(1e-3, 1e3)
        assert classify_regime(ceff, c2) is classify_regime(lam * ceff,
                                                            lam * c2)


def test_state_observables_molecule_counts_twice():
    st = SpinorAmplitudes(0.0, 0.0, 0.0, complex(math.sqrt(0.5)))
    obs = state_observables(st)
    assert obs.n_m == pytest.approx(0.5)
    assert obs.total_n == pytest.approx(1.0)
    assert obs.magnetization_m == 0.0


def test_from_populations_and_phases():
    st = SpinorAmplitudes.from_populations(
        0.05, 0.9, 0.05, phase_plus=0.5, phase_minus=-0.5)
    obs = state_observables(st)
    assert obs.n_plus == pytest.approx(0.05)
    assert obs.n_zero == pytest.approx(0.9)
    assert obs.total_n == pytest.approx(1.0)
    theta = (np.angle(st.a_plus) + np.angle(st.a_minus)
             - 2 * np.angle(st.a_zero))
    assert theta == pytest.approx(0.0)
    assert not st.has_molecule
    with pytest.raises(InvalidInputError):
        SpinorAmplitudes.from_populations(-0.1, 1.0, 0.1)


def test_require_normalized_gate():
    good = SpinorAmplitudes.from_populations(0.25, 0.5, 0.25)
    require_normalized(good)
    bad = SpinorAmplitudes(0.5, 0.5, 0.5)
    with pytest.raises(InvalidInputError, match="normalized"):
        require_normalized(bad)


def test_nonfinite_amplitudes_rejected():
    with pytest.raises(InvalidInputError):
        SpinorAmplitudes(complex("nan"), 1.0, 0.0)


def test_system_params_validation():
    with pytest.raises(InvalidInputError):
        SystemParams(gamma=-0.1)
    with pytest.raises(InvalidInputError):
        SystemParams(c0n=0.0)


@pytest.mark.parametrize("field", ["q", "c2n", "omega_p", "big_delta_prime",
                                   "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_system_params_reject_nonfinite(field, value):
    with pytest.raises(InvalidInputError, match="finite"):
        SystemParams(**{field: value})
