"""Tests of the benchmark itself: generator, output checker and tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import check  # noqa: E402
import metaline.cli as cli  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402


def _read_all(job) -> list[bytes]:
    return [path.read_bytes() for _, _, path in job.configs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    a = generate(name, 7, tmp_path / "a")
    b = generate(name, 7, tmp_path / "b")
    assert _read_all(a) == _read_all(b)
    assert _read_all(a) != _read_all(generate(name, 8, tmp_path / "c"))
    assert a.argvs(Path("out"))[0][:2] == [WORKLOADS[name][0][0], "--config"]


def test_generator_keeps_problem_size(tmp_path):
    def sizes(seed):
        text = generate("spectrum", seed, tmp_path / str(seed)).configs[0][2].read_text()
        return [line for line in text.splitlines() if line.startswith("circuit.")]
    assert sizes(DEFAULT_SEED) == sizes(3) == sizes(12345)


CSV = """\
# metaline 0.1.0 phase
# jump g_star=1.5e+00
x,y,phase
1.0,2.0e-01,localized
2.0,3.0e-01,delocalized
"""


def _write(tmp_path: Path, text: str) -> Path:
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "phase.csv").write_text(text)
    return out


def test_checker_accepts_clean_output(tmp_path):
    out = _write(tmp_path, CSV)
    assert check.check_finite(out) == []
    assert check.compare_reference(out, check.make_reference(out)) == []


@pytest.mark.parametrize("bad", [
    CSV.replace("3.0e-01", "nan"),
    CSV.replace("2.0e-01", "inf"),
    CSV.replace("1.5e+00", "nan"),
    CSV.replace("2.0,3.0e-01,delocalized", "2.0,3.0e-01"),
    CSV.replace("2.0e-01", "2.0e-0#1"),
    CSV[:-10],
])
def test_checker_rejects_corrupt_or_nonfinite(bad, tmp_path):
    assert check.check_finite(_write(tmp_path, bad))


def test_reference_tolerance(tmp_path):
    ref = check.make_reference(_write(tmp_path, CSV))
    last_digit = _write(tmp_path, CSV.replace("3.0e-01", "3.0000000001e-01"))
    assert check.compare_reference(last_digit, ref) == []
    moved = _write(tmp_path, CSV.replace("3.0e-01", "3.001e-01"))
    assert check.compare_reference(moved, ref)
    relabeled = _write(tmp_path, CSV.replace("delocalized", "localized"))
    assert check.compare_reference(relabeled, ref)


SMALL = """\
circuit.n_left = 30
circuit.n_right = 45
qubit.g_ghz = 0.2
qubit.freq_ghz = 5.4
renorm.variant = literal
dynamics.tg_grid = 0.0, 4.0, 9
phase.delta0_grid = 1.1, 1.4, 4
phase.g_grid = 0.05, 2.0, 12
disorder.seeds = 4
"""


def _traced_job(tmp_path: Path, threads: int):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)
    argvs = [[cmd, "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--threads", str(threads)]
             for cmd in ("modes", "dynamics", "renorm", "phase", "disorder")]
    originals = {attr: getattr(cli, attr) for _, attr, _ in tracing.TARGETS
                 if hasattr(cli, attr)}
    t = tracing.Tracer()
    t.install()
    try:
        rcs = t.job(0, lambda: [cli.main(a) for a in argvs])
    finally:
        t.uninstall()
    assert rcs == [0] * len(argvs)
    assert {a: getattr(cli, a) for a in originals} == originals
    return t


def test_self_times_sum_to_job_span(tmp_path):
    t = _traced_job(tmp_path, threads=1)
    (job,) = [s for s in t.spans if s.name == "job"]
    selfs = tracing.self_times(t.spans)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == pytest.approx(job.end - job.start, rel=1e-9)
    names = {s.name for s in t.spans}
    assert {"modes.solve_modes", "circuit.apply_disorder", "dynamics.entropy_scan",
            "spinboson.phase_diagram", "cli.cmd_phase"} <= names


def test_pool_spans_attach_to_job(tmp_path):
    t = _traced_job(tmp_path, threads=2)
    root = next(i for i, s in enumerate(t.spans) if s.name == "job")
    threads = set()
    for s in t.spans:
        threads.add(s.thread)
        while s.parent is not None:
            s = t.spans[s.parent]
        assert s is t.spans[root]
    assert len(threads) > 1
    # busy time summed over threads is at least the wall time
    job = t.spans[root]
    assert sum(tracing.self_times(t.spans)) >= (job.end - job.start) * (1 - 1e-9)
