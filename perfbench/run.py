"""The morseshed benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One caller runs jobs back to back with no threads; the next job starts
only when the previous one has returned and its output has been checked
against an independent reference (see workloads.py).  Garbage collection
runs between jobs, outside the timed region.  Jobs run in whole passes
over the workload's cases, the first pass starting at ``--seconds``
before the deadline and the last one finishing after it.

Times in the metrics are wall times scaled to a reference machine speed
by an interleaved calibration (speed.py); the raw wall times are printed
next to them and kept in the report.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (tracing.py) and prints the per-layer metrics
plus the tracing overhead against the untraced half.  ``--smoke`` uses
tiny inputs for the benchmark's own tests.

Every metric is printed on its own line with its unit, then the result,
with provenance and job times, is written to ``.perfbench/`` at the root
of the checkout, and the last line of stdout is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail their check still exits 0, with ``correct`` false.  Without the
program's sources next to this directory it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_SAMPLES = 5  # calibration passes before and after each set-up
MIN_BEYOND = 10  # samples a tail percentile must have beyond it

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "faces_per_s": "faces/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Layers whose self time is reported; the second field marks those whose
# call count is reported as well.
TIMED_LAYERS = [
    ("io.parse_stack", False),
    ("io.serialize_labels", False),
    ("complexes.Complex_init", True),
    ("complexes.closure", True),
    ("complexes.packed", False),
    ("complexes.connected_components", True),
    ("stacks.minima", True),
    ("stacks.validate_stack", False),
    ("stacks.alt_array", False),
    ("stacks.ultimate_d_collapse", False),
    ("morse.is_morse", False),
    ("kernels.flat_matching_offender", False),
    ("kernels.top_adjacency", False),
    ("kernels.minimum_facets", False),
    ("kernels.flood", False),
    ("watershed.morse_watershed", False),
    ("watershed.watershed_collapse", False),
    ("watershed.verify_cut", False),
    ("watershed.verify_drop_of_water", False),
    ("forest.verify_msf_theorem", False),
    ("forest.build_facet_graph", False),
    ("forest.watershed_forest", False),
    ("cli.main", False),
]
BYTE_COUNTERS = ["io.bytes_in", "io.bytes_out", "kernels.array_bytes"]
CASE_COUNTS = ["complexes.faces", "complexes.facets", "stacks.n_minima", "watershed.cut_faces"]


@dataclass
class Phase:
    """Job times and outcomes of one measured phase."""

    times: list[float] = field(default_factory=list)  # raw wall seconds
    starts: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # machine-speed scale per job
    failed: int = 0
    faces: int = 0
    cases: list[int] = field(default_factory=list)  # case index of each job

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.times, self.factors)]


def _import_program():
    """Import the program from the checkout's src/; None when it is absent.
    An installed copy elsewhere never stands in for the checkout's sources."""
    src = ROOT / "src"
    if not (src / "morseshed" / "__init__.py").is_file():
        print(f"no program sources at {src}/morseshed", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import morseshed
    except ImportError as exc:
        print(f"cannot import morseshed from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(morseshed.__file__).resolve().is_relative_to(src.resolve()):
        print(f"morseshed was imported from {morseshed.__file__}, not {src}", file=sys.stderr)
        return None
    import workloads

    return workloads


def provenance(name: str, seed: int, seconds: float, scale: str) -> dict:
    import numpy

    try:
        from morseshed import _kernels

        numba = bool(getattr(_kernels, "NUMBA_ENABLED", False))
    except ImportError:
        numba = False
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_enabled": numba,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def prepare(wl, seed: int, scale: str, work_dir: Path, repeats: int, probe):
    """Build the cases `repeats` times, each time with one first call of the
    job, calibrating around every set-up; returns the last cases and every
    set-up time."""
    import workloads

    times = []
    for _ in range(repeats):
        cases = None  # free the previous set-up's inputs before the next one
        gc.collect()
        probe.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        cases = workloads.build_cases(wl.name, seed, scale, work_dir)
        wl.job(cases[0], 0)
        times.append(time.perf_counter() - t0)
    probe.sample(SETUP_SAMPLES)
    return cases, times


def measure(wl, cases, seconds: float, tracer=None) -> Phase:
    import speed

    phase = Phase()
    probe = speed.SpeedProbe()
    deadline = time.perf_counter() + seconds
    i = 0
    while i % len(cases) or time.perf_counter() < deadline:
        k = i % len(cases)
        case = cases[k]
        probe.maybe_sample()
        if tracer is not None:
            tracer.begin_job(i)
        t0 = time.perf_counter()
        try:
            out = wl.job(case, i)
        except Exception:  # a raising job is a failed job; keep measuring
            out = None
            if phase.failed == 0:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        ok = out is not None and wl.check(case, out)
        phase.starts.append(t0)
        phase.times.append(dt)
        phase.cases.append(k)
        phase.failed += not ok
        phase.faces += case.counts["complexes.faces"]
        del out
        gc.collect()
        i += 1
    probe.sample()
    phase.factors = [probe.factor(t) for t in phase.starts]
    return phase


def tail(times: list[float], pct: int):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(wl, phase: Phase, setup_s: float, raw_setup_s: float) -> tuple[dict, list[str]]:
    """The metrics from scaled times; the notes give the raw wall times."""
    metrics, notes = {}, {}
    n = phase.attempted
    scaled = phase.scaled
    metrics["job_p50_s"] = statistics.median(scaled)
    notes["job_p50_s"] = f"median of {n} jobs; raw wall {statistics.median(phase.times):.6f} s"
    value, beyond = tail(scaled, wl.tail_pct)
    if beyond >= MIN_BEYOND:
        metrics["job_tail_s"] = value
        notes["job_tail_s"] = (f"p{wl.tail_pct} of {n} jobs, {beyond} beyond it; "
                               f"raw wall {tail(phase.times, wl.tail_pct)[0]:.6f} s")
    metrics["faces_per_s"] = phase.faces / sum(scaled)
    notes["faces_per_s"] = (f"{phase.faces} input faces over summed job time; "
                            f"raw wall {phase.faces / sum(phase.times):.1f} faces/s")
    metrics["setup_s"] = setup_s
    notes["setup_s"] = f"raw wall {raw_setup_s:.6f} s"
    metrics["peak_rss_mib"] = peak_rss_mib()
    notes["peak_rss_mib"] = "peak resident set of the process, set-up included"
    lines = [
        f"{k} {v!r} {END_TO_END_UNITS[k]}" + (f" ({notes[k]})" if k in notes else "")
        for k, v in metrics.items()
    ]
    if "job_tail_s" not in metrics:
        lines.append(f"job_tail_s not reported: p{wl.tail_pct} of {n} jobs has {beyond} beyond it")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def per_layer(tracer, cases, untraced: Phase, traced: Phase) -> dict:
    import tracing

    self_s, calls, jobs = tracing.layer_totals(tracer, traced.factors)
    metrics = {}
    for name, with_calls in TIMED_LAYERS:
        metrics[f"{name}_s"] = (self_s.get(name, 0.0) / jobs, "s")
        if with_calls:
            metrics[f"{name}_calls"] = (calls.get(name, 0) / jobs, "count")
    for name in BYTE_COUNTERS:
        total = sum(c.get(name, 0) for j, c in tracer.counters.items() if j >= 0)
        metrics[name] = (total / jobs, "bytes")
    for name in CASE_COUNTS:
        metrics[name] = (sum(cases[k].counts[name] for k in traced.cases) / jobs, "count")
    metrics["job.unattributed_s"] = (self_s.get(tracing.ROOT_SPAN, 0.0) / jobs, "s")
    base = statistics.median(untraced.scaled)
    with_trace = statistics.median(traced.scaled)
    metrics["trace.untraced_job_p50_s"] = (base, "s")
    metrics["trace.traced_job_p50_s"] = (with_trace, "s")
    metrics["trace.overhead"] = (with_trace / base - 1, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(name: str, seed: int, seconds: float, traced: bool, scale: str,
        out_dir: Path, import_s: float = 0.0) -> tuple[dict, dict]:
    """One benchmark run; returns the summary line and the full report."""
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"provenance": provenance(name, seed, seconds, scale), "why": wl.why}
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        speed.calibrate()  # the first pass in a process runs cold; discard it
        setup_probe = speed.SpeedProbe()
        cases, setups = prepare(wl, seed, scale, Path(work), SETUP_REPEATS, setup_probe)
        gc.collect()
        gc.freeze()  # set-up objects stay out of the between-job collections
        problems = []
        try:
            if not traced:
                phase = measure(wl, cases, seconds)
                raw_setup_s = import_s + statistics.median(setups)
                setup_s = raw_setup_s * setup_probe.overall()
                metrics, lines = end_to_end(wl, phase, setup_s, raw_setup_s)
                lines.append(
                    f"error_rate {phase.failed / phase.attempted!r} ratio "
                    f"({phase.failed} of {phase.attempted} jobs failed the reference check or raised)"
                )
                lines.append(
                    f"setup_s = (import {import_s:.4f} s + median of set-ups "
                    f"{[round(s, 4) for s in setups]} s) * speed scale {setup_probe.overall():.4f}"
                )
                phases = [phase]
            else:
                untraced = measure(wl, cases, seconds / 2)
                tracer = tracing.Tracer()
                restore, missing = tracing.install(tracer)
                try:
                    traced_phase = measure(wl, cases, seconds / 2, tracer)
                finally:
                    restore()
                metrics = per_layer(tracer, cases, untraced, traced_phase)
                lines = [f"{k} {m['value']!r} {m['unit']}" for k, m in metrics.items()]
                lines.append(
                    "trace overhead = traced job_p50_s "
                    f"{metrics['trace.traced_job_p50_s']['value']:.6f} s / untraced job_p50_s "
                    f"{metrics['trace.untraced_job_p50_s']['value']:.6f} s - 1 = "
                    f"{metrics['trace.overhead']['value']:+.4f}"
                )
                lines.append("kernels.array_bytes is computed from array sizes, not measured")
                if missing:
                    lines.append(f"not traced (absent from the program): {missing}")
                problems = tracing.check_tree(tracer.spans)
                lines.append(f"span tree: {len(tracer.spans)} spans, {len(problems)} problems")
                phases = [untraced, traced_phase]
                report["spans"] = tracer
        finally:
            gc.unfreeze()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    summary = {
        "correct": failed == 0 and (not traced or not problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report.update(
        lines=lines,
        summary=summary,
        setup_times_s=setups,
        setup_calibration_s=setup_probe.samples,
        import_s=import_s,
        job_times_s=[p.times for p in phases],
        job_speed_factors=[p.factors for p in phases],
    )
    return summary, report


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)

    workloads = _import_program()
    if workloads is None:
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    scale = "smoke" if args.smoke else "full"
    summary, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          scale, args.out, import_s)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    tracer = report.pop("spans", None)
    if tracer is not None:
        tracer.dump(args.out / f"{stem}.spans.jsonl")
    (args.out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"workload {args.workload}: {report['why']}")
    for line in report["lines"]:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
