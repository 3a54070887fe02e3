"""Fresh process that runs metaline jobs in-process and reports timings.

Usage: ``python3 perfbench/worker.py <plan.json>`` with the package on
PYTHONPATH.  The plan's ``mode`` selects:

- ``jobs``: a warm-up job, then timed jobs through ``metaline.cli.main``
  until ``seconds`` have passed and at least ``min_jobs`` ran, with the
  fresh-process CLI sessions and set-up probes interleaved;
- ``trace``: a warm-up job, then ``pairs`` untraced/traced job pairs,
  with the per-layer aggregation of the traced ones;
- ``ladder``: median ``solve_modes`` time of one size-ladder rung.

The last stdout line is the JSON result.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import metaline.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check import digest  # noqa: E402
from proc import probe, setup_probe  # noqa: E402
from tracer import Tracer, health, self_times  # noqa: E402


def environment() -> dict:
    """CPUs, library versions and the BLAS thread count in effect."""
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__}
    for mod in (np, scipy):
        libs = os.path.join(os.path.dirname(mod.__file__), os.pardir,
                            f"{mod.__name__}.libs", "*openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    env[f"{mod.__name__}_openblas"] = config().decode()
                    env[f"{mod.__name__}_blas_threads"] = threads()
                    break
    return env


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(argvs: list[list[str]]) -> dict:
    """One job: every CLI call in order; wall time and the first failure."""
    error = None
    t0 = time.perf_counter()
    for argv in argvs:
        try:
            rc = cli.main(argv)
        except Exception:
            error = traceback.format_exc(limit=3)
            break
        if rc != 0:
            error = f"metaline {' '.join(argv)} exited {rc}"
            break
    return {"s": time.perf_counter() - t0, "error": error}


def run_session(argvs: list[list[str]], env: dict, src: Path,
                setups: list[float]) -> dict:
    """One fresh-process CLI session; adds each process's set-up time."""
    wall, error = 0.0, None
    for argv in argvs:
        t, result, err = probe(argv, env, src)
        wall += t
        if result is None:
            error = f"fresh-process metaline {' '.join(argv)}: {err.strip()}"
            break
        setups.append(result["setup_s"])
    out = Path(argvs[0][argvs[0].index("--out") + 1])
    return {"s": wall, "error": error, "digest": None if error else digest(out)}


def timed_jobs(plan: dict, job_out: Path) -> dict:
    """Warm jobs for ``seconds``, with the fresh-process sessions and set-up
    probes spread evenly over the same window; each warm job is checked
    byte-identical to the first."""
    env, src = dict(os.environ), Path(plan["src"])
    extras = [("session", argvs) for argvs in plan["sessions"]]
    from_sessions = sum(len(argvs) for argvs in plan["sessions"])
    extras += [("setup", None)] * max(0, plan["setup_samples"] - from_sessions)
    t0 = time.perf_counter()
    due = [t0 + (k + 1) * plan["seconds"] / (len(extras) + 1)
           for k in range(len(extras))]
    jobs, sessions, setups, first = [], [], [], None
    while True:
        now = time.perf_counter()
        if extras and now >= due[0]:
            due.pop(0)
            kind, argvs = extras.pop(0)
            if kind == "session":
                sessions.append(run_session(argvs, env, src, setups))
            else:
                setups.append(setup_probe(plan["setup_argv"], env, src)["setup_s"])
            continue
        if not extras and now >= t0 + plan["seconds"] and len(jobs) >= plan["min_jobs"]:
            break
        job = run_job(plan["job"])
        if job["error"] is None:
            sums = digest(job_out)
            first = first or sums
            if sums != first:
                job["error"] = "CSV bytes differ from the first job's"
        jobs.append(job)
    return {"jobs": jobs, "sessions": sessions, "setups": setups}


def traced_jobs(plan: dict, job_out: Path) -> dict:
    """Alternate untraced and traced jobs; aggregate the traced spans."""
    tracer = Tracer()
    untraced, traced, errors, residuals, first = [], [], [], [], None
    for pair in range(plan["pairs"]):
        # alternate which side runs first, so drift biases neither
        for traced_side in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_side:
                tracer.install()
                try:
                    job = tracer.job(pair, run_job, plan["job"])
                finally:
                    tracer.uninstall()
                traced.append(job["s"])
                residuals += [health(*kept) for kept in tracer.solves.pop(pair, [])]
            else:
                job = run_job(plan["job"])
                untraced.append(job["s"])
            if job["error"] is None:
                sums = digest(job_out)
                first = first or sums
                if sums != first:
                    job["error"] = "CSV bytes differ between jobs"
            if job["error"]:
                errors.append(job["error"])
    tracer.dump(plan["spans_path"])
    layers = aggregate(tracer, plan["pairs"], residuals)
    layers["bench.trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    return {"layers": layers, "errors": errors, "untraced_s": untraced,
            "traced_s": traced}


# per-layer time metrics: metric name -> span names whose self time it sums
TIME_METRICS = {
    "circuit.apply_disorder_s": ("circuit.apply_disorder",),
    "circuit.build_matrices_s": ("circuit.build_matrices",),
    "modes.solve_modes_s": ("modes.solve_modes",),
    "modes.coupling_spectrum_s": ("modes.coupling_spectrum",),
    "modes.footprint_at_antinode_s": ("modes.footprint_at_antinode",),
    "modes.dom_numeric_s": ("modes.dom_numeric",),
    "dispersion.dom_approx_s": ("dispersion.dom_approx",),
    "dynamics.entropy_scan_s": ("dynamics.entropy_scan",),
    "dynamics.build_rwa_hamiltonian_s": ("dynamics.build_rwa_hamiltonian",),
    "spinboson.sweep_coupling_s": ("spinboson.sweep_coupling",),
    "spinboson.phase_diagram_s": ("spinboson.phase_diagram",),
    "cli.self_s": tuple(f"cli.cmd_{c}" for c in
                        ("modes", "dynamics", "renorm", "phase", "disorder")),
}


def aggregate(tracer: Tracer, n_jobs: int, residuals: list[tuple[float, float]]) -> dict:
    """Per-layer metrics of the traced jobs.

    Times are per-job medians of self time.  Call counts are per job, except
    ``modes.solve_modes_calls``, the total over the traced jobs.  Residuals
    and matrix bytes are maxima; ``bench.concurrency`` is the median over
    jobs of summed self time, every thread counted, over job wall time.
    """
    spans, selfs = tracer.spans, self_times(tracer.spans)
    per_job = [dict.fromkeys(TIME_METRICS, 0.0) for _ in range(n_jobs)]
    calls = [dict.fromkeys(("circuit", "modes.solve_modes", "dispersion.dom_approx",
                            "dynamics.entropy_scan"), 0) for _ in range(n_jobs)]
    busy, wall = [0.0] * n_jobs, [0.0] * n_jobs
    for span, own in zip(spans, selfs):
        busy[span.job] += own
        if span.name == "job":
            wall[span.job] = span.end - span.start
        for metric, names in TIME_METRICS.items():
            if span.name in names:
                per_job[span.job][metric] += own
        for prefix in calls[span.job]:
            if span.name.startswith(prefix):
                calls[span.job][prefix] += 1
    out = {m: statistics.median(j[m] for j in per_job) for m in TIME_METRICS}
    total = {k: sum(c[k] for c in calls) for k in calls[0]}
    counters = [tracer.counters[j] for j in range(n_jobs)]

    def per(key):
        return statistics.median(c[key] for c in counters)

    pairs, dims = sum(c["modes.window_pairs"] for c in counters), \
        sum(c["modes.window_dim"] for c in counters)
    out.update({
        "circuit.calls": total["circuit"] / n_jobs,
        "modes.solve_modes_calls": total["modes.solve_modes"],
        "modes.solves_per_job": total["modes.solve_modes"] / n_jobs,
        "modes.window_ratio": pairs / dims if dims else 0.0,
        "modes.matrix_bytes": max(c["modes.matrix_bytes"] for c in counters),
        "dispersion.dom_approx_calls": total["dispersion.dom_approx"] / n_jobs,
        "dynamics.entropy_scan_calls": total["dynamics.entropy_scan"] / n_jobs,
        "cli.csv_bytes": per("cli.csv_bytes"),
        "cli.csv_values": per("cli.csv_values"),
        "modes.eig_residual_max": max((r[0] for r in residuals), default=0.0),
        "modes.c_orth_err_max": max((r[1] for r in residuals), default=0.0),
        "spinboson.jumps": per("spinboson.jumps"),
        "spinboson.boundary_rows": per("spinboson.boundary_rows"),
        "bench.concurrency": statistics.median(b / w for b, w in zip(busy, wall)),
    })
    return out


def ladder(plan: dict) -> dict:
    """Median solve_modes time of one rung after a small warm-up solve."""
    from metaline.circuit import build_matrices
    from metaline.config import parse_config
    from metaline.modes import solve_modes

    warm = parse_config(plan["warmup_config"])
    solve_modes(build_matrices(warm.circuit_spec()), warm.freq_window())
    config = parse_config(plan["config"])
    mat = build_matrices(config.circuit_spec())
    times = []
    for _ in range(plan["repeats"]):
        t0 = time.perf_counter()
        modeset = solve_modes(mat, config.freq_window())
        times.append(time.perf_counter() - t0)
    return {"solve_s": statistics.median(times), "dim": mat.cap.shape[0],
            "modes": len(modeset), "maxrss_mb": maxrss_mb()}


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    result = {"env": environment()}
    if plan["mode"] == "ladder":
        result.update(ladder(plan))
    else:
        result["warmup"] = run_job(plan["warmup"])
        job_out = Path(plan["job_out"])
        if plan["mode"] == "jobs":
            result.update(timed_jobs(plan, job_out))
        else:
            result.update(traced_jobs(plan, job_out))
        result["maxrss_mb"] = maxrss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
