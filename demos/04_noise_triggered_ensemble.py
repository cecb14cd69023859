"""Vacuum noise as the trigger of the pair-transfer instability.

With no side-mode seed the transfer would never start at the mean-field
level; in reality quantum noise of order 1/(2N) per mode kicks it off.
This script compares an ensemble of vacuum-sampled seeds (half a quantum
per quadrature on each side mode) against a single classical seed run and
prints the onset-time statistics.

Equivalent CLI run: lcse run --preset fig4-ensemble
"""

from lcse import (RB87_C2_OVER_C0, SeedSpec, SpinorAmplitudes, SystemParams,
                  run_ensemble)
from lcse.cpt import make_schedule, run_transfer

C2 = RB87_C2_OVER_C0
RUNS = 16
ATOMS = 1e4
RNG_SEED = 20260814


def main():
    pulse = make_schedule(omega_p=1.0, omega_d0=40.0, t_zero=20.0,
                          small_delta=3.0, c2n=C2)
    params = SystemParams(small_delta=3.0, gamma=1.0)

    classical = run_transfer(
        SpinorAmplitudes.from_populations(1e-5, 1.0 - 2e-5, 1e-5,
                                          resonant=True),
        params, pulse, tau_span=(0.0, 150.0))
    classical_side = (classical.final_populations[0]
                      + classical.final_populations[2])
    print(f"classical seed 1e-5: final n+ + n- = {classical_side:.4f}")

    spec = SeedSpec(mode="vacuum-sampled", atom_number_N=ATOMS,
                    rng_seed=RNG_SEED)
    stats = run_ensemble(spec, RUNS, "resonant", params,
                         tau_span=(0.0, 150.0), pulse=pulse)

    print(f"\nvacuum ensemble, N = {ATOMS:.0e}, {RUNS} runs:")
    print(f"  final n+ + n-: mean {stats.mean_final_side:.4f}, "
          f"std {stats.std_final_side:.4f}")
    print(f"  onset (side modes crossing 0.1): mean tau "
          f"{stats.mean_tau_onset:.2f}, std {stats.std_tau_onset:.2f}, "
          f"misses {stats.onset_misses}")
    print(f"  |ensemble mean - classical| = "
          f"{abs(stats.mean_final_side - classical_side):.4f}")

    lo, hi = stats.final_side.min(), stats.final_side.max()
    print(f"  run-to-run spread of the final side population: "
          f"[{lo:.4f}, {hi:.4f}]")


if __name__ == "__main__":
    main()
