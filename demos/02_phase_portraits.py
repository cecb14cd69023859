"""Phase-space structure of the pair-exchange pendulum.

The reduced dynamics lives on (theta, n0) with a conserved energy. For each
of four couplings this script locates the interior fixed points, then
classifies trajectories started on a 10x10 grid as Open (the relative phase
winds) or Closed (libration around a center).

Negative total coupling C (drive overcompensating the collisions, with its
light shifts) carves out an island of closed orbits; positive C at this
quadratic shift leaves only open phase winding.

Equivalent CLI run: lcse run --preset fig3-portraits
"""

from lcse import (GridSpec, LandscapeParams, RB87_C2_OVER_C0, Stability,
                  contour_portrait, find_fixed_points, ladder_lightshifts)

C2 = RB87_C2_OVER_C0
Q = 0.01


def landscape_for(c_eff):
    # light shifts of the drive needed on top of the collisions
    delta, p = ladder_lightshifts(c_eff - C2)
    return LandscapeParams(c_eff=c_eff, c2n=C2, q=Q,
                           lightshift_delta=delta, lightshift_p=p)


def main():
    for c_eff, label in ((C2, "C = c2"), (0.5 * C2, "C = 0.5 c2"),
                         (-0.5 * C2, "C = -0.5 c2"), (-C2, "C = -c2")):
        lp = landscape_for(c_eff)
        print(f"\n{label}  (c_eff = {c_eff:+.6e})")
        interior = [p for p in find_fixed_points(lp)
                    if p.stability in (Stability.CENTER, Stability.SADDLE)]
        if interior:
            for p in interior:
                print(f"  {p.stability.value:>6} at theta = {p.theta:+.3f}, "
                      f"n0 = {p.n_zero:.6f}, E = {p.energy:.6e}")
        else:
            print("  no interior fixed points")
        summary = contour_portrait(lp, GridSpec())
        counts = ", ".join(f"{k}: {v}" for k, v in
                           sorted(summary.counts.items()) if v)
        print(f"  verdicts over the start grid: {counts}")


if __name__ == "__main__":
    main()
