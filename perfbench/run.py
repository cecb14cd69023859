"""lcse benchmark: one workload per fresh process, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload ensemble|portraits|sweep \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Generates the workload's INI inputs from the seed, times lcse set-up in
fresh interpreters, then repeats the workload (each rep one or more
`lcse.cli.main(["run", "--config", ...])` calls in this process) until
`--seconds` have passed. Every rep's outputs are checked and digested; the
digest and the exact counts must agree between reps and with earlier runs
of the same source and inputs in this checkout (perfbench/out/reference.json).
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` untraced reps alternate with pairs of traced ones,
and the JSON carries the per-layer metrics plus the tracing overhead.
`--smoke` runs a reduced size of each workload. A result file with machine
facts goes to perfbench/out/results/. Exits non-zero, printing no result,
when the checkout has no lcse source.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import workloads
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 20260814
SETUP_PROBES = 5

# per-rep values that must repeat exactly, between reps and between runs
REPEATED = ["digest", "bytes", "files", "warnings"]

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "scenario_p50_ms": "ms", "scenario_p98_ms": "ms"}


def load_lcse():
    if not (SRC / "lcse" / "__init__.py").is_file():
        sys.exit(f"no lcse source under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcse
    import lcse.cli
    if not Path(lcse.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lcse imported from {lcse.__file__}, not from {SRC}")
    return lcse


def setup_seconds(ini: Path, out: Path, probes: int) -> tuple[list, dict]:
    """Set-up times of up to `probes` fresh interpreters, one after another.

    A probe that did not stop at the first integration timed the whole run;
    it is not repeated, and the notes say so.
    """
    times, notes = [], {}
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "setup_probe.py"),
             str(SRC), str(ini), str(out)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        notes = {"setup_absent": probe["absent"],
                 "setup_stopped": probe["stopped"]}
        if not probe["stopped"]:
            break
    return times, notes


def digest_and_size(rep_dir: Path) -> tuple[str, int, int]:
    """sha256, bytes and file count of every output file.

    The manifest's wall clock is the one value a rerun may change, so each
    manifest.json is taken as written without that key; the byte count then
    repeats exactly too.
    """
    h = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in rep_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(rep_dir).as_posix()
        data = path.read_bytes()
        if path.name == "manifest.json":
            man = json.loads(data)
            man.pop("wall_clock_seconds", None)
            data = (json.dumps(man, indent=2, sort_keys=True) + "\n").encode()
        total += len(data)
        files += 1
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), total, files


class Runner:
    def __init__(self, lcse, wl: workloads.Workload, work: Path):
        self.lcse = lcse
        self.wl = wl
        self.work = work
        self.inputs = []
        (work / "inputs").mkdir(parents=True)
        for i, text in enumerate(wl.configs):
            path = work / "inputs" / f"c{i:04d}.ini"
            path.write_text(text)
            self.inputs.append(path)
        self.classical_side = None
        if wl.name == "ensemble":
            self.classical_side = self._classical_side()
        self.problems: list[str] = []

    def _classical_side(self) -> float:
        ini = self.work / "inputs" / "classical.ini"
        ini.write_text(workloads.classical_transfer_config())
        out = self.work / "classical"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.lcse.cli.main(["run", "--config", str(ini),
                                       "--out", str(out)])
        if code != 0:  # leaves the criterion-7 gate failing every member
            return math.nan
        pops = json.loads((out / "transfer.json").read_text())
        return pops["final_populations"][0] + pops["final_populations"][2]

    def rep(self) -> dict:
        """Run every call once; check, digest and delete the outputs."""
        rep_dir = self.work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        lcse, latencies, codes, warned = self.lcse, [], [], 0
        sink = io.StringIO()
        t0 = perf_counter()
        for i, ini in enumerate(self.inputs):
            argv = ["run", "--config", str(ini),
                    "--out", str(rep_dir / f"c{i:04d}")]
            s = perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", lcse.ValidityWarning)
                    with contextlib.redirect_stdout(sink):
                        codes.append(lcse.cli.main(argv))
            except Exception:
                traceback.print_exc()
                codes.append(None)
            latencies.append(perf_counter() - s)
            sink.seek(0)
            sink.truncate()
            warned += sum(issubclass(w.category, lcse.ValidityWarning)
                          for w in caught)
        run_s = perf_counter() - t0
        failed = sum(self._check(i, code) for i, code in enumerate(codes))
        digest, nbytes, nfiles = digest_and_size(rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return {"run_s": run_s, "latencies": latencies, "failed": failed,
                "digest": digest, "bytes": nbytes, "files": nfiles,
                "warnings": warned}

    def _check(self, i: int, code) -> int:
        wl = self.wl
        if code != 0:
            self.problems.append(f"call {i} exited with {code}")
            return wl.ops_per_call
        out = self.work / "rep" / f"c{i:04d}"
        try:
            if wl.name == "ensemble":
                return workloads.check_ensemble(out, wl, i, self.classical_side,
                                                self.problems)
            if wl.name == "portraits":
                return workloads.check_portraits(out, wl, i, self.problems)
            return workloads.check_sweep(out, wl, i, self.problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"call {i}: unreadable output: {exc!r}")
            return wl.ops_per_call


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def fingerprint(root: Path, pattern: str) -> str:
    """Short sha256 of the names and contents of the matching files."""
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(path.relative_to(root).as_posix().encode() + b"\0"
                 + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def check_reference(key: str, values: dict, problems: list) -> None:
    """Compare with earlier runs of the same code and inputs in this checkout.

    `key` holds the workload, the seed and fingerprints of the lcse source
    and of the generated inputs, so changed code starts a fresh entry while
    two runs of the same code that disagree are flagged.
    """
    store = OUT / "reference.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    ref = known.setdefault(key, {})
    for name, value in values.items():
        if ref.setdefault(name, value) != value:
            problems.append(f"{name} {str(value)[:16]} differs from an earlier "
                            f"run of the same code and inputs "
                            f"({str(ref[name])[:16]})")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def machine_facts(lcse) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "lcse": lcse.__version__, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs, one set-up probe")
    args = ap.parse_args(argv)

    lcse = load_lcse()
    wl = workloads.BUILDERS[args.workload](args.seed, args.smoke)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(lcse, wl, work)
    setup, setup_notes = setup_seconds(runner.inputs[0], work / "probe",
                                       1 if args.smoke else SETUP_PROBES)

    # reps until --seconds have passed, and at least two, so that every run
    # compares two reps' outputs; with --trace 1 the order is traced,
    # untraced, traced, traced, untraced, ..., so that traced counts are
    # compared too and the overhead is not skewed by a drift in speed
    plain, traced, tracers = [], [], []
    t_start = perf_counter()
    while (len(plain) + len(traced) < 2 or len(traced) < 2 * args.trace
           or perf_counter() - t_start < args.seconds):
        if args.trace and len(traced) < 2 * len(plain) + 1:
            tracer = layers.install(lcse)
            try:
                traced.append(runner.rep())
            finally:
                tracer.restore()
            tracers.append(tracer)
        else:
            plain.append(runner.rep())

    reps = plain + traced
    problems = runner.problems
    repeat = {name: reps[0][name] for name in REPEATED}
    for name in REPEATED:
        if len({r[name] for r in reps}) > 1:
            problems.append(f"{name} differs between reps")
    attempted = wl.ops * len(reps)
    failed = sum(r["failed"] for r in reps)

    latencies = [x for r in plain for x in r["latencies"]]
    p98, beyond = percentile(latencies, 0.98)
    run_s = statistics.median(r["run_s"] for r in plain)
    info = {"reps": len(plain), "setup_probes": len(setup), **setup_notes,
            "scenario_samples": len(latencies), "p98_beyond": beyond,
            "failed_frac": failed / attempted, "digest": reps[0]["digest"]}
    if args.trace:
        per_rep = []
        for tracer, rep in zip(tracers, traced):
            m = layers.rep_metrics(tracer)
            m["core.validity_warnings"] = rep["warnings"]
            m["cli.bytes_written"] = rep["bytes"]
            m["cli.files_written"] = rep["files"]
            m["cli.mb_per_s"] = (rep["bytes"] / 1e6 / m["cli.self_s"]
                                 if m["cli.self_s"] > 0 else 0.0)
            per_rep.append(m)
        for name in layers.EXACT:
            if len({m[name] for m in per_rep}) > 1:
                problems.append(f"{name} differs between traced reps")
            repeat[name] = per_rep[0][name]
        values = {k: statistics.median(m[k] for m in per_rep)
                  for k in per_rep[0]}
        values.update(layers.rhs_micro(lcse))
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["run_s"] for r in traced) / run_s - 1.0)
        absent = sorted(set(tracers[0].absent)
                        | {k for k in layers.UNITS if k not in values})
        info["absent"] = absent
        metrics = {k: {"value": values.get(k, 0.0), "unit": u}
                   for k, u in layers.UNITS.items()}
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scenario_p50_ms": statistics.median(latencies) * 1e3,
            "scenario_p98_ms": p98 * 1e3,
        }
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]}
                   for k in E2E_UNITS}

    key = (f"{args.workload}|{args.seed}|"
           f"{fingerprint(SRC, '*.py')}|{fingerprint(work / 'inputs', '*.ini')}")
    check_reference(key, repeat, problems)
    info["reference_key"] = key
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": machine_facts(lcse),
              "problems": problems, "setup_values": setup,
              "run_s_values": [r["run_s"] for r in plain],
              "traced_run_s_values": [r["run_s"] for r in traced],
              **info, **result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    (results / name).write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:>14.6g} {m['unit']}")
    for k, v in info.items():
        print(f"{k:34s} {v}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
