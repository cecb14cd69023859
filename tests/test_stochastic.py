"""Seed sampling and ensemble statistics.

Verifies:
  - fixed-classical seeds are deterministic with exact populations
  - vacuum sampling has the half-quantum-per-mode variance and preserves
    normalization sample by sample
  - ensembles are reproducible bit for bit from the stored seed
  - a single fixed-seed ensemble member reproduces the direct transfer run
  - onset times are finite when growth happens and flagged when it cannot
  - input validation on seed specs and ensemble arguments
  - any subset of runs, in any blocking, reproduces the same per-run
    columns bit for bit, each run matching its direct single run; blocks
    hold at most ENSEMBLE_BLOCK members; a too-small step names the run;
    a failing run is named once, by its index in the ensemble
  - an ensemble keeps only its per-run columns, not its members' samples:
    its heap peak stays below the size of their amplitudes
"""

import math
import tracemalloc

import numpy as np
import pytest

from lcse import (InvalidInputError, NumericalError, SeedSpec,
                  SpinorAmplitudes, SystemParams, effective_coupling,
                  integrate, run_ensemble, sample_seed, state_observables)
from lcse import dynamics, stochastic
from lcse import RB87_C2_OVER_C0 as C2
from lcse.cpt import cpt_state, make_schedule, run_transfer


def fig4_pulse():
    return make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2)


def fig4_params(gamma=1.0):
    return SystemParams(small_delta=3.0, gamma=gamma)


def seeded_polar(eps):
    return SpinorAmplitudes.from_populations(eps, 1.0 - 2.0 * eps, eps,
                                             resonant=True)


def test_fixed_classical_seed_exact():
    spec = SeedSpec(mode="fixed-classical", classical_n=1e-4)
    st = sample_seed(spec)
    obs = state_observables(st)
    assert obs.n_plus == pytest.approx(1e-4, rel=1e-12)
    assert obs.n_minus == pytest.approx(1e-4, rel=1e-12)
    assert obs.total_n == pytest.approx(1.0, abs=1e-12)
    assert st.a_plus.imag == 0.0 and st.a_plus.real > 0
    # deterministic: two draws coincide exactly
    st2 = sample_seed(spec)
    assert st2.a_plus == st.a_plus and st2.a_minus == st.a_minus


def test_vacuum_seed_statistics():
    spec = SeedSpec(mode="vacuum-sampled", atom_number_N=1e4, rng_seed=42)
    rng = np.random.default_rng(42)
    n_plus = np.empty(10000)
    for i in range(n_plus.size):
        st = sample_seed(spec, rng=rng)
        n_plus[i] = abs(st.a_plus) ** 2
        if i < 50:  # normalization holds sample by sample
            assert state_observables(st).total_n == pytest.approx(1.0,
                                                                  abs=1e-12)
    # mean seed population is 1/(2N) per quadrature pair = 5e-5, and the
    # exponential spread gives sigma_mean = 5e-5/sqrt(10000)
    assert abs(n_plus.mean() - 5e-5) < 1.5e-6


def test_vacuum_seed_vanishes_for_large_condensate():
    spec = SeedSpec(mode="vacuum-sampled", atom_number_N=1e30, rng_seed=1)
    st = sample_seed(spec, rng=np.random.default_rng(1))
    assert abs(st.a_plus) < 1e-10
    assert abs(st.a_minus) < 1e-10


def test_seed_spec_validation():
    with pytest.raises(InvalidInputError):
        SeedSpec(mode="classical")
    with pytest.raises(InvalidInputError):
        SeedSpec(classical_n=0.2)  # must stay a small seed, below 0.1
    with pytest.raises(InvalidInputError):
        SeedSpec(mode="vacuum-sampled", atom_number_N=5.0)
    with pytest.raises(InvalidInputError):
        SeedSpec(rng_seed=-1)
    with pytest.raises(InvalidInputError):
        SeedSpec(rng_seed=2 ** 64)


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        run_ensemble(SeedSpec(), 1, "unknown", fig4_params(),
                     pulse=fig4_pulse())
    with pytest.raises(InvalidInputError):
        run_ensemble(SeedSpec(), 1, "resonant", fig4_params())  # pulse
    with pytest.raises(InvalidInputError):
        run_ensemble(SeedSpec(), 1, "effective", fig4_params())  # coupling


def test_run_ensemble_rejects_zero_runs():
    with pytest.raises(InvalidInputError):
        run_ensemble(SeedSpec(), 0, "resonant", fig4_params(),
                     pulse=fig4_pulse())


def test_ensemble_bitwise_reproducible():
    spec = SeedSpec(mode="vacuum-sampled", atom_number_N=1e4, rng_seed=7)
    scenario = dict(family="resonant", params=fig4_params(),
                    pulse=fig4_pulse(), tau_span=(0.0, 30.0), sampling=301)
    a = run_ensemble(spec, 3, **scenario)
    b = run_ensemble(spec, 3, **scenario)
    assert np.array_equal(a.seed_plus, b.seed_plus)
    assert np.array_equal(a.seed_minus, b.seed_minus)
    assert np.array_equal(a.final_side, b.final_side)
    assert np.array_equal(a.final_populations, b.final_populations)
    assert a.mean_final_side == b.mean_final_side


def test_fixed_seed_member_matches_direct_run():
    spec = SeedSpec(mode="fixed-classical", classical_n=1e-5)
    stats = run_ensemble(spec, 1, "resonant", fig4_params(),
                         tau_span=(0.0, 150.0), pulse=fig4_pulse())
    direct = run_transfer(seeded_polar(1e-5), fig4_params(), fig4_pulse(),
                          tau_span=(0.0, 150.0))
    final_side = stats.final_side[0]
    assert final_side == pytest.approx(
        direct.final_populations[0] + direct.final_populations[2],
        rel=1e-12)
    assert stats.runs == 1
    assert stats.mean_final_side == final_side
    assert stats.std_final_side == 0.0


def test_vacuum_ensemble_magnetization_unbiased():
    spec = SeedSpec(mode="vacuum-sampled", atom_number_N=1e4, rng_seed=3)
    stats = run_ensemble(spec, 8, "resonant", fig4_params(),
                         tau_span=(0.0, 40.0), pulse=fig4_pulse(),
                         sampling=401)
    m = stats.final_populations[0] - stats.final_populations[2]
    # magnetization is conserved from the (tiny, random) seed value, so the
    # ensemble mean stays within a few standard errors of zero
    limit = 3.0 * (m.std(ddof=1) / np.sqrt(m.size) + 1e-15)
    assert abs(m.mean()) <= limit + 1e-6


def test_onset_detected_for_growing_side_modes():
    spec = SeedSpec(mode="fixed-classical", classical_n=1e-5)
    stats = run_ensemble(spec, 1, "resonant", fig4_params(),
                         tau_span=(0.0, 150.0), pulse=fig4_pulse())
    onset = stats.tau_onset[0]
    assert np.isfinite(onset)
    assert 0.0 < onset < 10.0
    assert stats.onset_misses == 0
    assert stats.mean_tau_onset == pytest.approx(onset)


def test_onset_missed_when_dynamics_frozen():
    # a coupling-cancelled amplitude-level scenario never grows side modes
    params = SystemParams(omega_p=10.0 * (-C2), omega_d=1.0,
                          big_delta_prime=10.0, c2n=C2, q=0.01)
    coupling = effective_coupling(params)
    assert abs(coupling.c_eff) < 1e-12  # the drive cancels the collisions
    spec = SeedSpec(mode="fixed-classical", classical_n=1e-5)
    stats = run_ensemble(spec, 2, "effective", params, tau_span=(0.0, 50.0),
                         coupling=coupling, sampling=501)
    assert stats.onset_misses == 2
    assert np.isnan(stats.mean_tau_onset)
    assert np.all(np.isnan(stats.tau_onset))
    assert np.all(stats.final_side < 2.1e-5)


def short_scenario(kind):
    """run_ensemble's arguments after runs: fig4 physics (cpt) or an
    off-resonant run from an unstable polar state (effective, onset in only
    some members) over a short span."""
    if kind == "cpt":
        return dict(family="resonant", params=fig4_params(),
                    pulse=fig4_pulse(), tau_span=(0.0, 10.0), sampling=101)
    params = SystemParams(c2n=-0.5, q=0.5)
    return dict(family="effective", params=params,
                coupling=effective_coupling(params), tau_span=(0.0, 10.0),
                sampling=101)


VACUUM = SeedSpec(mode="vacuum-sampled", atom_number_N=1e4, rng_seed=11)
PER_RUN = ("seed_plus", "seed_minus", "final_populations", "final_side",
           "tau_onset")


def same_columns(a, b, runs):
    # the first `runs` entries of every per-run column; repr is exact for
    # floats and treats NaN onsets as equal
    return all(repr(getattr(a, c)[..., :runs].tolist())
               == repr(getattr(b, c)[..., :runs].tolist()) for c in PER_RUN)


@pytest.mark.parametrize("kind", ["cpt", "effective"])
def test_subset_of_runs_reproduces_records(kind):
    scenario = short_scenario(kind)
    five = run_ensemble(VACUUM, 5, **scenario)
    three = run_ensemble(VACUUM, 3, **scenario)
    assert same_columns(five, three, 3)


def test_blocks_do_not_change_records(monkeypatch):
    scenario = short_scenario("cpt")
    whole = run_ensemble(VACUUM, 5, **scenario)
    prepare_batch = stochastic.prepare_batch
    starts = []

    def counted(family, initials, *args, **kwargs):
        starts.append(len(initials))
        return prepare_batch(family, initials, *args, **kwargs)

    monkeypatch.setattr(stochastic, "prepare_batch", counted)
    monkeypatch.setattr(stochastic, "ENSEMBLE_BLOCK", 2)
    blocked = run_ensemble(VACUUM, 5, **scenario)  # blocks 2 + 2 + 1
    assert starts == [2, 2, 1]
    assert same_columns(blocked, whole, 5)
    assert blocked.runs == 5 and blocked.final_side.shape == (5,)


def test_full_blocks_do_not_change_records(monkeypatch):
    # more runs than one default block: blocks 256 + 1 against 2 at a time
    scenario = short_scenario("effective")
    runs = stochastic.ENSEMBLE_BLOCK + 1
    assert stochastic.ENSEMBLE_BLOCK == 256
    whole = run_ensemble(VACUUM, runs, **scenario)
    monkeypatch.setattr(stochastic, "ENSEMBLE_BLOCK", 2)
    pairs = run_ensemble(VACUUM, runs, **scenario)
    assert same_columns(pairs, whole, runs)
    assert 0 < whole.onset_misses < runs


def test_ensemble_heap_peak_is_below_its_amplitudes():
    # the batch hands each group of samples to a reduction that keeps only
    # the onset index and the final populations per member, so 16 fig4
    # members no longer hold their (4, 16, 2001) complex amplitudes, 2.05
    # MB, the bound. The heap peaked at 3.55 MB with them and peaks at 0.75
    # MB without (tracemalloc), 2.7 times below the bound; the amplitudes'
    # size does not depend on the span, so (0, 15), past every onset,
    # keeps the traced run short
    runs, samples = 16, 2001
    tracemalloc.start()
    try:
        stats = run_ensemble(VACUUM, runs, "resonant", fig4_params(),
                             tau_span=(0.0, 15.0), pulse=fig4_pulse(),
                             sampling=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.onset_misses == 0
    assert peak < 4 * runs * samples * np.dtype(complex).itemsize


@pytest.mark.parametrize("kind", ["cpt", "effective"])
def test_vacuum_members_match_direct_runs(kind):
    scenario = short_scenario(kind)
    stats = run_ensemble(VACUUM, 4, **scenario)
    span, sampling = scenario["tau_span"], scenario["sampling"]
    for run in range(4):
        state = sample_seed(VACUUM, np.random.default_rng(
            np.random.SeedSequence(entropy=VACUUM.rng_seed,
                                   spawn_key=(run,))))
        assert state.a_plus == stats.seed_plus[run]
        if kind == "cpt":
            res = run_transfer(state, scenario["params"], scenario["pulse"],
                               tau_span=span, sampling=sampling)
            traj, finals = res.trajectory, res.final_populations
        else:
            traj = integrate("effective", state, scenario["params"], span,
                             coupling=scenario["coupling"], sampling=sampling)
            finals = tuple(traj.populations()[:, -1]) + (0.0,)
        assert tuple(stats.final_populations[:, run]) == pytest.approx(
            finals, rel=1e-12)
        n = traj.populations()
        crossed = np.flatnonzero(n[0] + n[2] > 0.1)
        onset = traj.times[crossed[0]] if len(crossed) else math.nan
        assert repr(float(stats.tau_onset[run])) == repr(float(onset))


def test_too_small_step_names_the_run():
    # at tau ~ 1e17 ten ulp of tau (160) is far above any usable step
    pulse = make_schedule(1.0, 40.0, 1e30, theta_variant="fixed",
                          theta_fixed=0.0)
    span = (1e17, 1e17 + 1e4)
    with pytest.raises(NumericalError), np.errstate(all="ignore"):
        run_transfer(seeded_polar(1e-5), fig4_params(), pulse,
                     tau_span=span, sampling=11)
    with pytest.raises(NumericalError, match="ensemble run 0") as err, \
            np.errstate(all="ignore"):
        run_ensemble(VACUUM, 2, "resonant", fig4_params(), tau_span=span,
                     pulse=pulse, sampling=11)
    assert err.value.member == 0
    assert err.value.tau == 1e17


@pytest.mark.parametrize("failure", ["budget", "floor"])
def test_failing_run_is_named_by_its_ensemble_index(monkeypatch, failure):
    # blocks of 2 and only the second fails: runs 2 and 3 are its members
    # 0 and 1, and the error names the run as the ensemble counts it
    prepare_batch = stochastic.prepare_batch
    blocks = []

    def second_fails(family, initials, params, tau_span, **kwargs):
        blocks.append(len(initials))
        if len(blocks) == 2 and failure == "budget":
            monkeypatch.setattr(dynamics, "_MAX_STEP_ATTEMPTS", 20)
        elif len(blocks) == 2:
            # at tau ~ 1e17 ten ulp of tau (160) is above any usable step
            tau_span = (1e17, 1e17 + 1e4)
            kwargs.update(pulse=make_schedule(
                1.0, 40.0, 1e30, theta_variant="fixed", theta_fixed=0.0),
                sampling=11)
        return prepare_batch(family, initials, params, tau_span, **kwargs)

    monkeypatch.setattr(stochastic, "prepare_batch", second_fails)
    monkeypatch.setattr(stochastic, "ENSEMBLE_BLOCK", 2)
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        run_ensemble(VACUUM, 4, **short_scenario("cpt"))
    run, tau = err.value.member, err.value.tau
    assert blocks == [2, 2] and run in (2, 3)
    reason = (f"stopped after 20 step attempts at tau = {tau!r}"
              if failure == "budget" else
              "failed: required step size is less than spacing between "
              "numbers at tau = 1e+17")
    assert str(err.value) == f"ensemble run {run}: integration {reason}"
