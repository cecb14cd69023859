"""Three spin-mixing regimes of a driven spin-1 condensate.

Starting from populations (0.05, 0.9, 0.05) with theta = 0 and a quadratic
shift q = 0.01, the total pair coupling C = Omega' + c2 selects the regime:

  C = c2   lasers off, collision-dominated mixing (n0 rises above 0.9)
  C = 0    drive tuned to cancel the collisions, mixing frozen
  C = -c2  drive overcompensates, mixing reversed (n0 dips below 0.9)

Equivalent CLI runs: lcse run --preset fig2-collision | fig2-frozen |
fig2-reversed. This script integrates all three and prints a summary.
"""

import numpy as np

from lcse import (RB87_C2_OVER_C0, SpinorAmplitudes, SystemParams,
                  classify_regime, drive_ladder, effective_coupling,
                  integrate)

C2 = RB87_C2_OVER_C0
Q = 0.01
TAU_END = 50.0


def drive_for(c_eff):
    # realize the target coupling with the standard Rabi/detuning ladder
    # omega_p : omega_d : Delta' = 1 : 10 : 100, which keeps the
    # off-resonant validity margin exactly at its boundary (lasers off at
    # C = c2)
    omega_p, omega_d, big_delta_prime = drive_ladder(c_eff - C2)
    return SystemParams(omega_p=omega_p, omega_d=omega_d,
                        big_delta_prime=big_delta_prime, q=Q)


def main():
    start = SpinorAmplitudes.from_populations(0.05, 0.9, 0.05)
    print(f"{'regime':>20} {'C/|c2|':>8} {'min n0':>10} {'max n0':>10} "
          f"{'amplitude':>10}")
    for c_eff in (C2, 0.0, -C2):
        params = drive_for(c_eff)
        coupling = effective_coupling(params)
        regime = classify_regime(coupling.c_eff, C2)
        traj = integrate("effective", start, params, (0.0, TAU_END),
                         coupling=coupling, sampling=2001)
        n0 = traj.populations()[1]
        print(f"{regime.value:>20} {c_eff / abs(C2):>8.1f} {n0.min():>10.6f} "
              f"{n0.max():>10.6f} {n0.max() - n0.min():>10.3e}")
    drift = np.max(np.abs(traj.monitors["total_n"] - 1.0))
    print(f"\nworst total-population drift in the last run: {drift:.2e}")


if __name__ == "__main__":
    main()
