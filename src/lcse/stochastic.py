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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SpinorAmplitudes, SystemParams, CouplingSummary
from .cpt import PulseSchedule
from .dynamics import IntegratorConfig, integrate_batch
from .errors import InvalidInputError, NumericalError

SEED_MODES = ("fixed-classical", "vacuum-sampled")
ONSET_THRESHOLD = 0.1
# members integrated together in one batch; memory grows with this times
# the sample count, not with the number of runs
ENSEMBLE_BLOCK = 64


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
        if self.atom_number_N < 10:
            raise InvalidInputError("atom_number_N must be >= 10")
        if not 0 <= int(self.rng_seed) < 2 ** 64:
            raise InvalidInputError("rng_seed must be a 64-bit unsigned int")


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


@dataclass(frozen=True)
class EnsembleScenario:
    """What each ensemble member integrates.

    kind 'cpt' runs the resonant transfer (needs pulse); kind 'effective'
    runs the off-resonant three-mode system (needs coupling).
    """

    kind: str
    params: SystemParams
    pulse: Optional[PulseSchedule] = None
    coupling: Optional[CouplingSummary] = None
    tau_span: tuple[float, float] = (0.0, 150.0)
    sampling: int = 2001
    config: Optional[IntegratorConfig] = None
    variant: str = "symmetrized"

    def __post_init__(self):
        if self.kind not in ("cpt", "effective"):
            raise InvalidInputError("kind must be 'cpt' or 'effective'")
        if self.kind == "cpt" and self.pulse is None:
            raise InvalidInputError("cpt scenario needs a pulse")
        if self.kind == "effective" and self.coupling is None:
            raise InvalidInputError("effective scenario needs a coupling")


@dataclass(frozen=True)
class EnsembleRecord:
    run: int
    seed_plus: complex
    seed_minus: complex
    final_populations: tuple
    final_side: float
    tau_onset: float  # NaN when n+ + n- never crosses the threshold


@dataclass
class EnsembleStats:
    """Per-run records plus mean / std of the transfer summary numbers.

    tau_onset is the first sampled tau with n+ + n- > 0.1; runs that never
    cross are excluded from the onset statistics (their count is onset_misses).
    """

    runs: int
    mean_final_side: float
    std_final_side: float
    mean_tau_onset: float
    std_tau_onset: float
    onset_misses: int
    records: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "mean_final_side": self.mean_final_side,
            "std_final_side": self.std_final_side,
            "mean_tau_onset": self.mean_tau_onset,
            "std_tau_onset": self.std_tau_onset,
            "onset_misses": self.onset_misses,
        }


def _run_block(scenario: EnsembleScenario, first: int,
               states: list) -> list:
    """Integrate runs first, first + 1, ... together; one record each."""
    cpt = scenario.kind == "cpt"
    try:
        batch = integrate_batch(
            "resonant" if cpt else "effective", states, scenario.params,
            scenario.tau_span, coupling=scenario.coupling,
            pulse=scenario.pulse, config=scenario.config,
            sampling=scenario.sampling, variant=scenario.variant)
    except NumericalError as exc:
        run = first + exc.member
        raise NumericalError(f"ensemble run {run}: {exc}", tau=exc.tau,
                             member=run) from exc
    finals = np.abs(batch.values[:, :, -1]) ** 2          # (modes, members)
    side = np.abs(batch.values[0]) ** 2 + np.abs(batch.values[2]) ** 2
    crossed = side > ONSET_THRESHOLD
    onset = np.where(crossed.any(axis=1),
                     batch.times[crossed.argmax(axis=1)], math.nan)
    records = []
    for j, state in enumerate(states):
        n = [float(v) for v in finals[:, j]]
        records.append(EnsembleRecord(
            run=first + j, seed_plus=complex(state.a_plus),
            seed_minus=complex(state.a_minus),
            final_populations=tuple(n) if cpt else (*n, 0.0),
            final_side=float(side[j, -1]), tau_onset=float(onset[j])))
    return records


def run_ensemble(spec: SeedSpec, scenario: EnsembleScenario,
                 runs: int) -> EnsembleStats:
    """Integrate `runs` independently seeded members and aggregate.

    Run k draws from a generator spawned off (rng_seed, k), so the ensemble
    is deterministic and order-independent. Members are integrated
    ENSEMBLE_BLOCK at a time by dynamics.integrate_batch, each with its own
    step control, so a member's numbers do not depend on which others share
    its block: any subset of runs, executed in any grouping, reproduces the
    same records bit for bit, and each record matches a direct single run
    (run_transfer or integrate) to rounding.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    records = []
    for first in range(0, runs, ENSEMBLE_BLOCK):
        states = [sample_seed(spec, np.random.default_rng(
                      np.random.SeedSequence(entropy=spec.rng_seed,
                                             spawn_key=(k,))))
                  for k in range(first, min(first + ENSEMBLE_BLOCK, runs))]
        records += _run_block(scenario, first, states)
    sides = np.array([r.final_side for r in records])
    onsets = np.array([r.tau_onset for r in records])
    hit = onsets[np.isfinite(onsets)]
    return EnsembleStats(
        runs=runs,
        mean_final_side=float(sides.mean()),
        std_final_side=float(sides.std()),
        mean_tau_onset=float(hit.mean()) if len(hit) else math.nan,
        std_tau_onset=float(hit.std()) if len(hit) else math.nan,
        onset_misses=int(len(records) - len(hit)),
        records=records,
    )
