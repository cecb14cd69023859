"""Where the traced run hooks into lcse, and the per-layer metrics it reports.

Layers are the package's modules: config (with presets), core, dynamics,
landscape, cpt, stochastic and cli. Every hook is a public name rebound in the
module that calls it; see tracer.py.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from tracer import Span, Tracer
from workloads import C2

# (calling module, imported name, span name); a span's parent is the
# innermost enclosing span, so self time excludes the layers it calls
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "config.parse"),
    ("cli", "integrate", "dynamics.integrate"),
    ("cpt", "integrate", "dynamics.integrate"),
    ("stochastic", "integrate", "dynamics.integrate"),
    ("landscape", "integrate", "dynamics.integrate"),
    ("cli", "run_transfer", "cpt.transfer"),
    ("stochastic", "run_transfer", "cpt.transfer"),
    ("cli", "run_ensemble", "stochastic.ensemble"),
    ("cli", "contour_portrait", "landscape.portrait"),
    ("landscape", "classify_trajectory", "landscape.classify"),
    ("cli", "energy_grid", "landscape.energy_grid"),
    ("landscape", "energy_grid", "landscape.energy_grid"),
    ("landscape", "find_fixed_points", "landscape.fixed_points"),
]
# recomputed on every resonant RHS call: counted, not timed
COUNTERS = [("cpt", "resonance_detuning", "cpt.detuning_calls")]

# every per-layer metric, in report order, with its unit
UNITS = {
    "config.parse_calls": "count", "config.parse_s": "s",
    "core.validity_warnings": "count",
    "dynamics.integrate_calls": "count", "dynamics.integrate_s": "s",
    "dynamics.nfev": "count", "dynamics.us_per_fev": "us",
    "dynamics.rhs_resonant_us": "us", "dynamics.rhs_pendulum_us": "us",
    "dynamics.rhs_effective_us": "us", "dynamics.max_m_drift": "1",
    "landscape.classify_calls": "count", "landscape.classify_self_s": "s",
    "landscape.nfev_per_open": "count", "landscape.nfev_per_closed": "count",
    "landscape.energy_grid_s": "s", "landscape.fixed_points_s": "s",
    "landscape.verdict_open": "count", "landscape.verdict_closed": "count",
    "landscape.verdict_boundary": "count",
    "landscape.verdict_indeterminate": "count",
    "cpt.transfer_calls": "count", "cpt.transfer_self_s": "s",
    "cpt.detuning_calls": "count",
    "stochastic.members": "count", "stochastic.ensemble_self_s": "s",
    "stochastic.member_p50_ms": "ms",
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.files_written": "count",
    "cli.mb_per_s": "MB/s",
    "trace.overhead_pct": "%",
}
# metrics that must repeat exactly between reps of the same inputs
EXACT = [k for k, u in UNITS.items() if u in ("count", "B")]


def _integrated(span: Span, traj) -> None:
    solver = getattr(traj, "solver", None)
    span.attrs["nfev"] = int(getattr(solver, "nfev", 0))
    mag = getattr(traj, "monitors", {}).get("magnetization")
    if mag is not None and len(mag):
        span.attrs["m_drift"] = float(abs(mag - mag[0]).max())
    parent = span.parent
    if parent is not None and parent.name == "landscape.classify":
        parent.attrs["nfev"] = parent.attrs.get("nfev", 0) + span.attrs["nfev"]


def _classified(span: Span, verdict) -> None:
    span.attrs["verdict"] = getattr(verdict, "value", str(verdict))


def _ensembled(span: Span, stats) -> None:
    span.attrs["members"] = int(getattr(stats, "runs", 0))


_ON_RETURN = {"dynamics.integrate": _integrated,
              "landscape.classify": _classified,
              "stochastic.ensemble": _ensembled}


def install(lcse) -> Tracer:
    tracer = Tracer()
    for mod, attr, name in SPANS + COUNTERS:
        module = getattr(lcse, mod, None)
        if module is None:
            tracer.absent.append(f"lcse.{mod}.{attr}")
        elif (mod, attr, name) in COUNTERS:
            tracer.count(module, attr, name)
        else:
            tracer.wrap(module, attr, name, _ON_RETURN.get(name))
    return tracer


def rep_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced rep (cli.* byte counts and warnings
    are added by the caller, which sees the output directory)."""
    integ = tr.named("dynamics.integrate")
    nfev = sum(s.attrs.get("nfev", 0) for s in integ)
    integ_s = tr.total("dynamics.integrate")
    classify = tr.named("landscape.classify")
    verdicts = [s.attrs.get("verdict") for s in classify]

    def nfev_per(verdict: str) -> float:
        hits = [s.attrs.get("nfev", 0) for s in classify
                if s.attrs.get("verdict") == verdict]
        return sum(hits) / len(hits) if hits else 0.0

    members = [s for s in tr.named("cpt.transfer")
               if s.parent is not None and s.parent.name == "stochastic.ensemble"]
    return {
        "config.parse_calls": len(tr.named("config.parse")),
        "config.parse_s": tr.total("config.parse"),
        "dynamics.integrate_calls": len(integ),
        "dynamics.integrate_s": integ_s,
        "dynamics.nfev": nfev,
        "dynamics.us_per_fev": integ_s * 1e6 / nfev if nfev else 0.0,
        "dynamics.max_m_drift": max((s.attrs.get("m_drift", 0.0)
                                     for s in integ), default=0.0),
        "landscape.classify_calls": len(classify),
        "landscape.classify_self_s": tr.total("landscape.classify", True),
        "landscape.nfev_per_open": nfev_per("Open"),
        "landscape.nfev_per_closed": nfev_per("Closed"),
        "landscape.energy_grid_s": tr.total("landscape.energy_grid"),
        "landscape.fixed_points_s": tr.total("landscape.fixed_points"),
        "landscape.verdict_open": verdicts.count("Open"),
        "landscape.verdict_closed": verdicts.count("Closed"),
        "landscape.verdict_boundary": verdicts.count("Boundary"),
        "landscape.verdict_indeterminate": verdicts.count("Indeterminate"),
        "cpt.transfer_calls": len(tr.named("cpt.transfer")),
        "cpt.transfer_self_s": tr.total("cpt.transfer", True),
        "cpt.detuning_calls": tr.counts.get("cpt.detuning_calls", 0),
        "stochastic.members": sum(s.attrs.get("members", 0)
                                  for s in tr.named("stochastic.ensemble")),
        "stochastic.ensemble_self_s": tr.total("stochastic.ensemble", True),
        "stochastic.member_p50_ms": (statistics.median(
            s.duration for s in members) * 1e3 if members else 0.0),
        "cli.self_s": tr.total("cli.main", True),
    }


def rhs_micro(lcse) -> dict:
    """Median microseconds per call of each public RHS on a fixed state.

    A family whose public signature no longer matches is left out and
    reported as absent by the caller.
    """
    w = -2.0 * C2

    def system():
        params = lcse.SystemParams(omega_p=10 * w, omega_d=100 * w,
                                   big_delta_prime=1000 * w, q=0.01,
                                   small_delta=3.0, gamma=1.0)
        coupling = lcse.CouplingSummary(omega_eff=w, c_eff=w + C2,
                                        lightshift_delta=10 * w,
                                        lightshift_p=w / 10)
        return params, coupling

    def effective():
        params, coupling = system()
        amps = lcse.SpinorAmplitudes.from_populations(
            0.05, 0.9, 0.05, phase_plus=0.3, phase_minus=-0.2)
        return lambda: lcse.rhs_effective(amps, params, coupling)

    def pendulum():
        params, coupling = system()
        state = lcse.PendulumState(0.3, 0.6)
        return lambda: lcse.rhs_pendulum(state, params, coupling)

    def resonant():
        params, _ = system()
        amps = lcse.SpinorAmplitudes.from_populations(
            0.2, 0.55, 0.2, n_m=0.025, phase_plus=0.3, phase_m=0.1,
            resonant=True)
        pulse = lcse.make_schedule(1.0, 40.0, 20.0, small_delta=3.0, c2n=C2)
        return lambda: lcse.rhs_resonant(amps, params, pulse, 10.0)

    out = {}
    for name, prepare in (("dynamics.rhs_effective_us", effective),
                          ("dynamics.rhs_pendulum_us", pendulum),
                          ("dynamics.rhs_resonant_us", resonant)):
        try:
            call = prepare()
            call()
        except (TypeError, AttributeError, ValueError, lcse.LcseError):
            continue
        batches = []
        for _ in range(7):
            t0 = perf_counter()
            for _ in range(500):
                call()
            batches.append((perf_counter() - t0) / 500 * 1e6)
        out[name] = statistics.median(batches)
    return out
