"""Laser-catalyzed spin exchange in a spin-1 condensate, single-mode level.

Mean-field dynamics of the three Zeeman modes of an F = 1 condensate coupled
by collisions and by a pair of photoassociation lasers. Three tiers:

  core        parameter derivation, effective two-channel coupling, regimes
  dynamics    amplitude / pendulum / resonant equations and the integrator
  landscape   energy surfaces, fixed points, open vs closed orbit census
  cpt         dark-state steady states and resonant transfer pulses
  stochastic  vacuum seeding and ensemble statistics
  config/cli  scenario files, built-in presets, artifact writers
"""

from .constants import (BOHR_RADIUS, HBAR, MASS_RB87, RB87_A0, RB87_A2,
                        RB87_C2_OVER_C0)
from .core import (CouplingSummary, Regime, ScatteringInputs,
                   SpinorAmplitudes, StateObservables, SystemParams,
                   ValidityWarning, classify_regime,
                   derive_collision_strengths, drive_ladder,
                   effective_coupling, ladder_lightshifts,
                   state_observables, require_normalized)
from .cpt import (AdiabaticityReport, PulseSchedule, StationarityResidual,
                  TransferResult, adiabaticity_diagnostic, cpt_populations,
                  cpt_state, make_schedule, resonance_detuning,
                  resonant_counterpart, run_transfer, stationarity_residual)
from .dynamics import (BatchTrajectory, CrossValidation, IntegratorConfig,
                       PendulumState, Trajectory,
                       crossvalidate_amplitude_vs_pendulum,
                       energy_from_amplitudes, energy_functional,
                       integrate, integrate_batch, rhs_effective,
                       rhs_pendulum, rhs_resonant)
from .errors import (ConfigError, DomainError, InvalidInputError, LcseError,
                     NumericalError)
from .landscape import (EnergyGrid, FixedPoint, GridSpec, LandscapeParams,
                        PortraitSummary, Stability, Verdict,
                        classify_trajectory, contour_portrait,
                        default_start_grid, energy, energy_grid,
                        find_fixed_points)
from .stochastic import EnsembleStats, SeedSpec, run_ensemble, sample_seed
from .config import (ScenarioConfig, parse_config, serialize_config,
                     config_to_dict)
from .presets import load_preset, preset_names, preset_text

__version__ = "0.1.0"

__all__ = [
    "BOHR_RADIUS", "HBAR", "MASS_RB87", "RB87_A0", "RB87_A2",
    "RB87_C2_OVER_C0",
    "CouplingSummary", "Regime", "ScatteringInputs", "SpinorAmplitudes",
    "StateObservables", "SystemParams", "ValidityWarning", "classify_regime",
    "derive_collision_strengths", "drive_ladder", "effective_coupling",
    "ladder_lightshifts", "state_observables", "require_normalized",
    "AdiabaticityReport", "PulseSchedule", "StationarityResidual",
    "TransferResult", "adiabaticity_diagnostic", "cpt_populations",
    "cpt_state", "make_schedule", "resonance_detuning",
    "resonant_counterpart", "run_transfer", "stationarity_residual",
    "BatchTrajectory", "CrossValidation", "IntegratorConfig", "PendulumState",
    "Trajectory", "crossvalidate_amplitude_vs_pendulum",
    "energy_from_amplitudes", "energy_functional", "integrate",
    "integrate_batch", "rhs_effective", "rhs_pendulum", "rhs_resonant",
    "ConfigError", "DomainError", "InvalidInputError", "LcseError",
    "NumericalError",
    "EnergyGrid", "FixedPoint", "GridSpec", "LandscapeParams",
    "PortraitSummary", "Stability", "Verdict", "classify_trajectory",
    "contour_portrait", "default_start_grid", "energy", "energy_grid",
    "find_fixed_points",
    "EnsembleStats", "SeedSpec", "run_ensemble", "sample_seed",
    "ScenarioConfig", "parse_config", "serialize_config", "config_to_dict",
    "load_preset", "preset_names", "preset_text",
    "__version__",
]
