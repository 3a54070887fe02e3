"""metaline benchmark: time to solution, throughput and memory per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectrum|ensemble|bath|all \
        --seed N --seconds S --trace 0|1

``all`` runs the three workloads one after another; its result line
names each metric ``<workload>.<metric>``.

The harness uses only the standard library and runs the package from the
checkout's ``src`` with the interpreter it was started with; it exits 2
without a result when ``src/metaline`` is not there.  Inputs come from
``workloads.py`` and the seed; every job's CSVs go through ``check.py``.
Working files go to ``.perfbench_out/`` in the checkout.

``--trace 0`` measures, with nothing traced, per workload:

- ``setup_s``: median over fresh processes of the time from process start
  to a parsed config (imports included), before the first layer call;
- ``cli_wall_s``: median wall time of one fresh-process CLI session with
  default flags (bath: its three commands back to back), which counts
  set-up, the cold first job and exit;
- ``job_s``: median wall time of one warm job run in-process through
  ``metaline.cli.main`` after a warm-up job, over ``--seconds``;
- ``items_per_s``: items of one job over ``job_s``; an item is a window
  mode with its profile (spectrum), a disorder seed (ensemble), or a tg
  point, g point or phase cell (bath);
- ``peak_rss_mb``: peak resident set of the process running the warm jobs.

``failed_ratio`` (failed jobs over attempted) is printed with them; it
goes into the result line as ``failed`` and ``attempted``.

``--trace 1`` reports the per-layer metrics of ``worker.aggregate`` from
alternating untraced and traced warm jobs, set-up split into import and
config parsing, and the ``n_left`` size ladder (200, 800 and 2000 with
``n_right`` = 1.5 ``n_left``) with peak RSS per rung.

Metric units come from ``BENCHMARK.json``, and a run whose metrics differ
from the ones listed there fails.  The last stdout line is the JSON
result; a fuller record with the CPU count, library versions and BLAS
threads in effect goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
from proc import python, setup_probe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate, ladder_config  # noqa: E402

OUT = Path(".perfbench_out")
CLI_SESSIONS = 2           # fresh-process CLI sessions per untraced run
SETUP_SAMPLES = 4          # fresh-process set-up timings per untraced run
TRACE_SETUP_SAMPLES = 3
TRACE_PAIRS = 3            # untraced/traced job pairs per traced run
MIN_JOBS = 3
LADDER = ((200, 5), (800, 3), (2000, 1))   # (n_left, repeats)


def worker(plan: dict, work: Path, env: dict) -> tuple[dict | None, str]:
    path = work / f"plan-{plan['mode']}.json"
    path.write_text(json.dumps(plan))
    _, result, err = python([Path(__file__).resolve().parent / "worker.py", path], env)
    return result, err


def check_outputs(outdir: Path, workload: str, reference: bool) -> list[str]:
    problems = check.check_finite(outdir)
    if reference and not problems:
        problems = check.compare_reference(outdir, check.load_reference(workload))
    return problems


def warmup_problems(result: dict, work: Path, workload: str) -> list[str]:
    """The warm-up job runs the default-seed inputs: compare with the reference."""
    if result["warmup"]["error"]:
        return [result["warmup"]["error"]]
    return check_outputs(work / "ref", workload, reference=True)


def measure(name: str, seed: int, seconds: float, work: Path, env: dict,
            src: Path) -> dict:
    """The untraced run: warm in-process jobs and fresh-process sessions."""
    job = generate(name, seed, work / "inputs")
    ref = generate(name, DEFAULT_SEED, work / "ref-inputs")
    job_out = work / "job"
    plan = {"mode": "jobs", "warmup": ref.argvs(work / "ref"),
            "job": job.argvs(job_out), "job_out": str(job_out),
            "seconds": seconds, "min_jobs": MIN_JOBS, "src": str(src),
            "sessions": [job.argvs(work / f"cli-{s}")
                         for s in range(CLI_SESSIONS)],
            "setup_argv": job.argvs(work / "unused")[0],
            "setup_samples": SETUP_SAMPLES}
    result, err = worker(plan, work, env)
    if result is None:
        raise RuntimeError(f"worker failed: {err}")

    problems = warmup_problems(result, work, name)
    failed = bool(problems)
    jobs, sessions = result["jobs"], result["sessions"]
    ok_jobs = [j for j in jobs if j["error"] is None]
    out_problems = check_outputs(job_out, name, reference=False) if ok_jobs else []
    if out_problems:
        ok_jobs = []
    problems += out_problems + [j["error"] for j in jobs + sessions if j["error"]]
    failed += len(jobs) - len(ok_jobs)
    final = check.digest(job_out) if ok_jobs else None
    for s, session in enumerate(sessions):
        if session["error"] or session["digest"] != final:
            failed += 1
            if not session["error"] and final is not None:
                problems.append(f"cli session {s}: CSV bytes differ from warm jobs")

    items = check.count_items(name, job_out) if ok_jobs else 0
    warm = statistics.median(j["s"] for j in (ok_jobs or jobs))
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "job_s": warm,
        "cli_wall_s": statistics.median(s["s"] for s in sessions),
        "items_per_s": items / warm,
        "peak_rss_mb": result["maxrss_mb"],
    }
    return {"metrics": metrics, "attempted": 1 + len(jobs) + len(sessions),
            "failed": failed, "problems": problems, "env": result["env"],
            "samples": {"setup_s": result["setups"],
                        "cli_wall_s": [s["s"] for s in sessions],
                        "job_s": [j["s"] for j in jobs]}}


def measure_traced(name: str, seed: int, work: Path, env: dict, src: Path) -> dict:
    """The traced run: per-layer metrics, set-up split and the size ladder."""
    job = generate(name, seed, work / "inputs")
    ref = generate(name, DEFAULT_SEED, work / "ref-inputs")
    problems, layers = [], {}
    setups = [setup_probe(job.argvs(work / "unused")[0], env, src)
              for _ in range(TRACE_SETUP_SAMPLES)]
    layers["setup.import_s"] = statistics.median(r["import_s"] for r in setups)
    layers["config.parse_s"] = statistics.median(r["parse_s"] for r in setups)

    job_out = work / "job"
    plan = {"mode": "trace", "warmup": ref.argvs(work / "ref"),
            "job": job.argvs(job_out), "job_out": str(job_out),
            "pairs": TRACE_PAIRS, "spans_path": str(OUT / "results" /
                                                    f"spans-{name}-seed{seed}.json")}
    result, err = worker(plan, work, env)
    if result is None:
        raise RuntimeError(f"traced worker failed: {err}")
    layers.update(result["layers"])
    warm_problems = warmup_problems(result, work, name)
    out_problems = [] if result["errors"] else check_outputs(job_out, name, False)
    problems += warm_problems + result["errors"] + out_problems
    failed = (bool(warm_problems) + len(result["errors"])
              + (2 * TRACE_PAIRS if out_problems else 0))

    warm_cfg = work / "ladder-warmup.cfg"
    warm_cfg.write_text(ladder_config(40))
    for n_left, repeats in LADDER:
        cfg = work / f"ladder-{n_left}.cfg"
        cfg.write_text(ladder_config(n_left))
        rung, err = worker({"mode": "ladder", "config": str(cfg),
                            "warmup_config": str(warm_cfg), "repeats": repeats},
                           work, env)
        if rung is None:
            raise RuntimeError(f"ladder rung n_left={n_left} failed: {err}")
        layers[f"modes.solve_modes_s.n_left-{n_left}"] = rung["solve_s"]
        layers[f"modes.peak_rss_mb.n_left-{n_left}"] = rung["maxrss_mb"]
    return {"metrics": layers, "attempted": 1 + 2 * TRACE_PAIRS, "failed": failed,
            "problems": problems, "env": result["env"],
            "samples": {"untraced_s": result["untraced_s"],
                        "traced_s": result["traced_s"]}}


def run_workload(name: str, args, env: dict, src: Path) -> dict:
    """Measure one workload, print its metrics and write its result record."""
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        run = measure_traced(name, args.seed, work, env, src)
    else:
        run = measure(name, args.seed, args.seconds, work, env, src)
    units = {m["name"]: m["unit"] for m in
             json.loads(Path("BENCHMARK.json").read_text())[
                 "per_layer" if args.trace else "end_to_end"]}
    if set(run["metrics"]) != set(units):
        raise RuntimeError(f"measured {sorted(run['metrics'])}, "
                           f"BENCHMARK.json lists {sorted(units)}")
    run["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()}
    # CSV outputs are large (the spectrum profiles are 24 MB per job)
    for path in work.iterdir():
        if path.is_dir() and path.name not in ("inputs", "ref-inputs"):
            shutil.rmtree(path)

    ratio = run["failed"] / run["attempted"]
    for key, m in run["metrics"].items():
        print(f"{name:9s} {key:34s} {m['value']:.6g} {m['unit']}")
    print(f"{name:9s} {'failed_ratio':34s} {ratio:.6g} ratio "
          f"({run['failed']}/{run['attempted']})")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print("env: " + json.dumps(run["env"], sort_keys=True))
    record = dict(run, workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    (OUT / "results" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "metaline" / "__init__.py").is_file():
        print("perfbench: run from the root of a metaline checkout "
              "(src/metaline not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        run = run_workload(args.workload, args, env, src)
        metrics = run["metrics"]
        runs = [run]
    else:
        runs, metrics = [], {}
        for name in WORKLOADS:
            runs.append(run_workload(name, args, env, src))
            metrics.update({f"{name}.{k}": v for k, v in runs[-1]["metrics"].items()})
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
