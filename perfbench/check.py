"""Output checker: finite values, byte-identical reruns, reference agreement.

A job's CSVs pass when every value is finite (labels excepted), when a
repeated job writes the same bytes, and, at the default seed, when they
agree with the reference recorded from the library at the commit that
introduced this benchmark.

Reference tolerance: each numeric value within ``RTOL`` relative of the
reference, or within ``ATOL_SCALE`` times the largest magnitude of its
column (entries that are zero up to rounding, such as profile nodes).
That admits last-digit changes from a reordered or different solver.
Two quantities are bisection midpoints whose exact replacement may move
them anywhere inside the 1e-4 relative bracket, so they get
``BRACKET_RTOL``; numbers on comment lines get ``COMMENT_RTOL``.

To record a reference, write the default-seed inputs and run the commands
that ``python3 perfbench/workloads.py <workload> 0 <dir>`` prints, then
``python3 perfbench/check.py record <workload> <dir>/out``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
import sys
from pathlib import Path

RTOL = 1e-6
ATOL_SCALE = 1e-9
BRACKET_RTOL = 2e-4
COMMENT_RTOL = 1e-3
# (file, column) pairs holding bisection-bracket midpoints
BRACKET_COLUMNS = {("boundary.csv", "g_star_over_omega_ir")}
LABELS = {"localized", "delocalized"}
# the reference keeps at most this many rows and columns per file
MAX_ROWS = 800
MAX_COLS = 40

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def read_csv(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header fields, data rows) of one metaline CSV."""
    comments, header, rows = [], None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header line")
    return comments, header, rows


def digest(outdir: Path) -> dict[str, str]:
    """SHA-256 of every CSV in a job's output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


def check_finite(outdir: Path) -> list[str]:
    """Problems found (the first per file and kind): non-finite or
    malformed values, ragged rows."""
    problems = []
    files = sorted(outdir.glob("*.csv"))
    if not files:
        return [f"{outdir}: no CSV written"]
    for path in files:
        comments, header, rows = read_csv(path)
        bad = [f"{path.name}: non-finite comment {line!r}"
               for line in comments if _NONFINITE.search(line)][:1]
        for i, row in enumerate(rows):
            if len(row) != len(header):
                bad.append(f"{path.name}: row {i} has {len(row)} fields")
                break
            if not all(v in LABELS or _finite(v) for v in row):
                bad.append(f"{path.name}: row {i} holds {row!r}")
                break
        problems += bad
    return problems


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _stride(n: int, limit: int) -> list[int]:
    step = max(1, math.ceil(n / limit))
    idx = list(range(0, n, step))
    if idx and idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def _value(text: str):
    return text if text in LABELS else float(text)


def make_reference(outdir: Path) -> dict:
    """Strided sample of every CSV in ``outdir``, with comments and shape."""
    ref = {}
    for path in sorted(outdir.glob("*.csv")):
        comments, header, rows = read_csv(path)
        ri, ci = _stride(len(rows), MAX_ROWS), _stride(len(header), MAX_COLS)
        ref[path.name] = {
            "comments": comments, "header": header, "n_rows": len(rows),
            "rows": ri, "cols": ci,
            "values": [[_value(rows[r][c]) for c in ci] for r in ri],
        }
    return ref


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= max(rtol * abs(b), atol)


def _compare_comment(got: str, want: str) -> bool:
    gt, wt = re.split(r"[\s=]+", got), re.split(r"[\s=]+", want)
    if len(gt) != len(wt):
        return False
    for g, w in zip(gt, wt):
        try:
            gf, wf = float(g), float(w)
        except ValueError:
            if g != w:
                return False
            continue
        if not _close(gf, wf, COMMENT_RTOL, 0.0):
            return False
    return True


def compare_reference(outdir: Path, ref: dict) -> list[str]:
    """Problems found comparing the CSVs in ``outdir`` with a reference."""
    problems = []
    names = sorted(p.name for p in outdir.glob("*.csv"))
    if names != sorted(ref):
        return [f"files {names} differ from reference {sorted(ref)}"]
    for name, want in ref.items():
        comments, header, rows = read_csv(outdir / name)
        if header != want["header"] or len(rows) != want["n_rows"]:
            problems.append(f"{name}: header or row count differs")
            continue
        if len(comments) != len(want["comments"]) or not all(
                _compare_comment(g, w) for g, w in zip(comments, want["comments"])):
            problems.append(f"{name}: comment lines differ")
        columns = list(zip(*want["values"])) if want["values"] else []
        for k, c in enumerate(want["cols"]):
            ref_col = columns[k] if columns else ()
            numeric = [abs(v) for v in ref_col if not isinstance(v, str)]
            atol = ATOL_SCALE * max(numeric, default=0.0)
            rtol = BRACKET_RTOL if (name, header[c]) in BRACKET_COLUMNS else RTOL
            for r, w in zip(want["rows"], ref_col):
                got = _value(rows[r][c])
                if isinstance(w, str) or isinstance(got, str):
                    ok = got == w
                else:
                    ok = _close(got, w, rtol, atol)
                if not ok:
                    problems.append(
                        f"{name}: row {r} {header[c]} = {got!r}, reference {w!r}")
                    break
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as f:
        return json.load(f)


def save_reference(workload: str, outdir: Path) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(workload)
    # mtime=0 keeps the gzip bytes reproducible
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb",
                                                 mtime=0) as f:
        f.write(json.dumps(make_reference(outdir), separators=(",", ":")).encode())
    return path


def count_items(workload: str, outdir: Path) -> int:
    """Work items of one job, counted from its outputs (see BENCHMARK.json)."""
    if workload == "spectrum":
        return len(read_csv(outdir / "modes.csv")[2])
    if workload == "ensemble":
        return len(read_csv(outdir / "disorder.csv")[2])
    if workload == "bath":
        blocks = sum(c.startswith("# tg=") for c in read_csv(outdir / "entropy.csv")[0])
        return (blocks + len(read_csv(outdir / "renorm.csv")[2])
                + len(read_csv(outdir / "phase.csv")[2]))
    raise KeyError(workload)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "record":
        sys.exit("usage: check.py record <workload> <dir>")
    print(save_reference(sys.argv[2], Path(sys.argv[3])))
