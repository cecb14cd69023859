"""Seeding policies and ensemble statistics for noise-triggered transfer.

Spin exchange out of the polar state needs a nonzero seed in the side modes.
Two policies: a deterministic classical fraction, and truncated-Wigner style
vacuum sampling with half a quantum per mode, i.e. complex Gaussian side-mode
amplitudes with <|zeta|^2> = 1/(2 N) for N condensate atoms. The sampling
rule is a documented policy of this module, swappable without touching the
dynamics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .core import SpinorAmplitudes, SystemParams, CouplingSummary
from .cpt import PulseSchedule
from .dynamics import IntegratorConfig, prepare_batch
from .errors import InvalidInputError

SEED_MODES = ("fixed-classical", "vacuum-sampled")
ONSET_THRESHOLD = 0.1
# members integrated together in one batch; the batch keeps only each
# member's onset index and final populations, so memory grows with this,
# not with the sample count or the number of runs
ENSEMBLE_BLOCK = 256


@dataclass(frozen=True)
class SeedSpec:
    """How to fill the side modes before a run."""

    mode: str = "fixed-classical"
    classical_n: float = 1e-5
    atom_number_N: float = 1e4
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in SEED_MODES:
            raise InvalidInputError(f"mode must be one of {SEED_MODES}")
        if not 0.0 <= self.classical_n <= 0.1:
            raise InvalidInputError("classical_n must lie in [0, 0.1]")
        if not self.atom_number_N >= 10:   # NaN too
            raise InvalidInputError("atom_number_N must be >= 10")
        if (isinstance(self.rng_seed, bool)
                or not hasattr(self.rng_seed, "__index__")
                or not 0 <= operator.index(self.rng_seed) < 2 ** 64):
            raise InvalidInputError("rng_seed must be a 64-bit unsigned int, "
                                    f"not {self.rng_seed!r}")


def sample_seed(spec: SeedSpec,
                rng: Optional[np.random.Generator] = None) -> SpinorAmplitudes:
    """Draw one seeded initial state; total_N is exactly 1.

    fixed-classical ignores rng and puts sqrt(classical_n) in each side mode
    with zero phase. vacuum-sampled draws zeta+- as complex Gaussians with
    variance 1/(2 N) split evenly between quadratures (uniform phase), then
    sets a0 real positive to absorb the remainder.
    """
    if spec.mode == "fixed-classical":
        a = math.sqrt(spec.classical_n)
        a0 = math.sqrt(1.0 - 2.0 * spec.classical_n)
        return SpinorAmplitudes(a + 0.0j, a0 + 0.0j, a + 0.0j, 0.0j)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    sigma = 1.0 / (2.0 * math.sqrt(spec.atom_number_N))
    zp = complex(rng.normal(0.0, sigma) + 1j * rng.normal(0.0, sigma))
    zm = complex(rng.normal(0.0, sigma) + 1j * rng.normal(0.0, sigma))
    rest = 1.0 - abs(zp) ** 2 - abs(zm) ** 2
    if rest <= 0.0:
        raise InvalidInputError(
            "sampled seeds exceed unit norm; atom_number_N too small")
    return SpinorAmplitudes(zp, math.sqrt(rest) + 0.0j, zm, 0.0j)


def _per_run():
    """A per-run column of EnsembleStats: an array over the runs."""
    return field(repr=False, compare=False, metadata={"per_run": True})


@dataclass
class EnsembleStats:
    """Mean / std of the transfer summary numbers plus per-run columns.

    tau_onset is the first sampled tau with n+ + n- > 0.1, NaN for runs
    that never cross; those are excluded from the onset statistics (their
    count is onset_misses). final_populations has shape (4, runs), rows
    n+, n0, n-, n_m; the n_m row is 0 for the effective family.
    """

    runs: int
    mean_final_side: float
    std_final_side: float
    mean_tau_onset: float
    std_tau_onset: float
    onset_misses: int
    seed_plus: np.ndarray = _per_run()          # complex, (runs,)
    seed_minus: np.ndarray = _per_run()         # complex, (runs,)
    final_populations: np.ndarray = _per_run()  # (4, runs)
    final_side: np.ndarray = _per_run()         # (runs,)
    tau_onset: np.ndarray = _per_run()          # (runs,)

    def to_dict(self) -> dict:
        """The summary numbers, without the per-run columns."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.metadata.get("per_run")}


def run_ensemble(spec: SeedSpec, runs: int, family: str,
                 params: SystemParams,
                 tau_span: tuple[float, float] = (0.0, 150.0),
                 coupling: Optional[CouplingSummary] = None,
                 pulse: Optional[PulseSchedule] = None,
                 config: Optional[IntegratorConfig] = None,
                 sampling: int = 2001,
                 variant: str = "symmetrized") -> EnsembleStats:
    """Integrate `runs` independently seeded members and aggregate.

    family, params and the keywords are integrate_batch's: 'resonant' (the
    CPT transfer, needs pulse; variant 'literal' or 'symmetrized') or
    'effective' (the off-resonant three-mode system, needs coupling;
    variant 'symmetrized' only), checked and built once per block. Run k
    draws from a generator spawned off (rng_seed, k), so the ensemble is
    deterministic and order-independent. Members are integrated
    ENSEMBLE_BLOCK at a time, each with its own step control, and their
    samples are reduced to the per-run columns as the batch makes them: no
    member's samples are kept. Once the batch has written a member's onset,
    its later samples are not evaluated, apart from the last one, so a run
    costs its steps whatever its sample count. Every sample is still
    evaluated on its own, so a member's numbers do not depend on which
    others share its block: any subset of runs, executed in any grouping,
    reproduces the same columns bit for bit, and each run matches a direct
    single run (run_transfer or integrate) to rounding. A run that fails
    raises the batch's NumericalError, which names it (`member`) by its run
    number.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    seeds = np.empty((2, runs), dtype=complex)
    finals = np.zeros((4, runs))
    # per run the first sample index with n+ + n- above the threshold;
    # one past the last sample while it has none
    crossing = np.empty(runs, dtype=int)
    # per run the first sample index the batch still evaluates: the last
    # one once the onset is known
    wanted = np.zeros(runs, dtype=int)
    for first in range(0, runs, ENSEMBLE_BLOCK):
        block = slice(first, min(first + ENSEMBLE_BLOCK, runs))
        states = [sample_seed(spec, np.random.default_rng(
                      np.random.SeedSequence(entropy=spec.rng_seed,
                                             spawn_key=(k,))))
                  for k in range(block.start, block.stop)]
        batch = prepare_batch(family, states, params, tau_span,
                              coupling=coupling, pulse=pulse, config=config,
                              sampling=sampling, variant=variant)
        final = len(batch.t_eval) - 1
        crossing[block] = final + 1

        def write(cols, sample, values):
            sides = np.abs(values[0]) ** 2 + np.abs(values[2]) ** 2
            crossed = sides > ONSET_THRESHOLD
            np.minimum.at(crossing, cols[crossed], sample[crossed])
            wanted[cols[crossed]] = final
            last = sample == final
            finals[:len(values), cols[last]] = np.abs(values[:, last]) ** 2
        batch.run(write, first, wanted)
        seeds[:, block] = [[s.a_plus for s in states],
                           [s.a_minus for s in states]]
    onset = np.append(batch.t_eval, math.nan)[crossing]
    side = finals[0] + finals[2]
    hit = onset[np.isfinite(onset)]
    return EnsembleStats(
        runs=runs,
        mean_final_side=float(side.mean()),
        std_final_side=float(side.std()),
        mean_tau_onset=float(hit.mean()) if len(hit) else math.nan,
        std_tau_onset=float(hit.std()) if len(hit) else math.nan,
        onset_misses=int(runs - len(hit)),
        seed_plus=seeds[0], seed_minus=seeds[1], final_populations=finals,
        final_side=side, tau_onset=onset,
    )
