"""Spans around the calls into each metaline layer, recorded from outside.

``Tracer.install()`` replaces the public functions of the package with
wrappers in every module namespace the calls are looked up in (the CLI
and ``spinboson`` bind names at import, so patching ``metaline.modes``
alone would miss them), and ``uninstall()`` puts the originals back.
Each span records name, start, end, parent, job id and thread.  A span
opened in a worker thread with nothing open on that thread takes as
parent the innermost span open on the thread that started the job, so
pool work (disorder seeds, dynamics times, phase rows) attaches to its
job.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

import metaline.cli as cli

# (module, attribute, span name): every place a public layer function is
# looked up at call time
TARGETS = [
    ("metaline.cli", "parse_config", "config.parse_config"),
    ("metaline.cli", "apply_disorder", "circuit.apply_disorder"),
    ("metaline.cli", "build_matrices", "circuit.build_matrices"),
    ("metaline.spinboson", "build_matrices", "circuit.build_matrices"),
    ("metaline.cli", "dom_approx", "dispersion.dom_approx"),
    ("metaline.modes", "dom_approx", "dispersion.dom_approx"),
    ("metaline.cli", "solve_modes", "modes.solve_modes"),
    ("metaline.spinboson", "solve_modes", "modes.solve_modes"),
    ("metaline.cli", "coupling_spectrum", "modes.coupling_spectrum"),
    ("metaline.spinboson", "coupling_spectrum", "modes.coupling_spectrum"),
    ("metaline.cli", "footprint_at_antinode", "modes.footprint_at_antinode"),
    ("metaline.cli", "dom_numeric", "modes.dom_numeric"),
    ("metaline.cli", "build_rwa_hamiltonian", "dynamics.build_rwa_hamiltonian"),
    ("metaline.cli", "entropy_scan", "dynamics.entropy_scan"),
    ("metaline.cli", "sweep_coupling", "spinboson.sweep_coupling"),
    ("metaline.cli", "phase_diagram", "spinboson.phase_diagram"),
] + [("metaline.cli", f"cmd_{c}", f"cli.cmd_{c}")
     for c in ("modes", "dynamics", "renorm", "phase", "disorder")]

# solves kept per job for the residual and orthonormality checks
HEALTH_SOLVES = 4


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.solves: dict[int, list] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job = -1
        self._job_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._job_stack[-1] if self._job_stack else None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self._job, threading.get_ident()))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` inside the root span of job ``job_id``."""
        self._job, self._job_stack = job_id, self._stack()
        index = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[self._job][key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            c = self.counters[self._job]
            c[key] = max(c[key], value)

    # -- wrappers ----------------------------------------------------

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped[original] = self._wrap(original, name)
            setattr(module, attr, wrapped[original])
        # main() dispatches through this table, bound at import
        self._saved.append((cli, "_COMMANDS", cli._COMMANDS))
        cli._COMMANDS = {k: wrapped.get(f, f) for k, f in cli._COMMANDS.items()}
        original = cli._write_csv
        self._saved.append((cli, "_write_csv", original))

        @functools.wraps(original)
        def write_csv(path, columns, rows, *args, **kwargs):
            original(path, columns, rows, *args, **kwargs)
            self.count("cli.csv_values", sum(len(r) for r in rows))
            self.count("cli.csv_bytes", path.stat().st_size)
        cli._write_csv = write_csv

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counters": {str(k): dict(v) for k, v in self.counters.items()}},
                      f)


def _after_solve(tracer: Tracer, args, modeset) -> None:
    mat = args[0]
    dim = mat.cap.shape[0]
    tracer.count("modes.window_pairs", len(modeset))
    tracer.count("modes.window_dim", dim)
    tracer.peak("modes.matrix_bytes", mat.cap.nbytes + mat.inv_ind.nbytes)
    with tracer._lock:
        kept = tracer.solves[tracer._job]
        if len(kept) < HEALTH_SOLVES:
            kept.append((mat, modeset))


def _after_sweep(tracer: Tracer, args, sweep) -> None:
    tracer.count("spinboson.jumps", len(sweep.jumps))


def _after_phase(tracer: Tracer, args, diagram) -> None:
    tracer.count("spinboson.boundary_rows", len(diagram.boundary))


_AFTER = {
    "modes.solve_modes": _after_solve,
    "spinboson.sweep_coupling": _after_sweep,
    "spinboson.phase_diagram": _after_phase,
}


def health(mat, modeset) -> tuple[float, float]:
    """(max ||Kv - w^2 Cv|| / ||Kv||, max |V^T C V - I|) of one solve."""
    v, w2 = modeset.profiles, modeset.frequencies ** 2
    if v.shape[1] == 0:
        return 0.0, 0.0
    kv, cv = mat.inv_ind @ v, mat.cap @ v
    residual = np.linalg.norm(kv - cv * w2, axis=0) / np.linalg.norm(kv, axis=0)
    orth = np.abs(v.T @ cv - np.eye(v.shape[1]))
    return float(residual.max()), float(orth.max())


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out
