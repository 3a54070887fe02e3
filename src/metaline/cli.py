"""Command-line driver emitting deterministic, plot-ready CSV files.

Every subcommand reads one flat config file, runs the corresponding
pipeline and returns its tables as numpy columns, one table per file.
``main`` alone writes them, through ``_write_csv``, each behind the same
'#' provenance comments (tool version and config hash).  Output bytes are
identical across reruns of the same config and independent of the
worker-pool size.

Exit codes: 0 success, 2 config error, 3 numerical failure, also for a
NaN or infinity in a CSV column.  A command that fails writes no file:
each of its tables is computed and checked before the first is written.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import apply_disorder, build_matrices, network_bands
from .config import GHZ, ConfigError, RunConfig, check_output_names, parse_config
from .dispersion import dom_approx
from .dynamics import build_rwa_hamiltonian, diagonalize, entropy_scan
from .modes import (IllConditionedCircuitError, ModeSet, QubitSpec, band_edges,
                    coupling_spectrum, dom_numeric, footprint_at_antinode, solve_modes)
from .spinboson import phase_diagram, sweep_coupling


# "%.11e" fields from tables of 4-byte ASCII words, five words a field:
# [pad, sign, d0, "."], [d1-d4], [d5-d8], [d9-d11, "e"], [exponent sign,
# exponent digits, separator]; a NUL byte is an empty slot (the pad, the
# sign of a non-negative value) and is dropped from the output
def _words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


_LEAD = _words(f"\0{sign}{i}." for sign in "\0-" for i in range(10))
# "0000" to "9999", from digit arithmetic (10^4 f-strings cost ms at import)
_QUAD = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
         + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# "000e" to "999e": "0000" to "9990" with the last digit made "e"
_TAIL = _QUAD[::10].copy()
_TAIL.view(np.uint8)[3::4] = ord("e")
# exponent k at k + 99, then the same with the row end at k + 298
_EXPONENT = _words(f"{'+-'[k < 0]}{abs(k):02d}{end}" for end in ",\n" for k in range(-99, 100))
_POW10 = 10.0 ** np.arange(-120, 121)                   # 10^k at k + 120
# values a chunk formats per numpy pass, few enough that the formatter's
# passes stay in a core's 2 MiB L2 (about 30 ns a value at 8192, 55 ns at
# 16 384); a chunk's rows also hold at most this many 20-byte float
# fields' worth of padded bytes (160 KiB)
_CHUNK_VALUES = 1 << 13


def _float_fields(block: np.ndarray, newline: bool = True) -> np.ndarray:
    """The finite values of a 2-D float array in ``"%.11e"``, the bytes of
    the ``%`` operator built with numpy: a uint8 array with one row per
    block row and 18, 19 or 20 bytes per value (fewer where no value needs
    the sign slot or the pad), each value followed by "," but the last of a
    row, which is followed by "\\n" when ``newline``, and NUL bytes to drop.
    The ``%`` operator itself formats the few values numpy cannot:
    subnormals, three-digit exponents and values next to a half-way tie.
    """
    flat = block.ravel()
    a = np.abs(flat)
    # decimal exponent e, so that the 12 digits are a * 10^(11 - e) rounded,
    # from the binary one: floor(log10(2^(e2 - 1))) is (e2 - 1) 78913 >> 18
    # (Adams, Ryu, PLDI 2018), e itself or one below it
    e = ((np.frexp(a)[1] - 1) * 78913 >> 18).astype(np.intp)
    # three-digit exponents (subnormals too) are left to "%", with a margin
    # for the two steps e may still move up by
    wide = np.abs(e) > 97
    a[wide] = 1.0
    e[wide] = 0
    # one step up where the estimate fell short, and from -1 for a zero
    e += (a * _POW10[131 - e] >= 1e12) | (a == 0)
    s = a * _POW10[131 - e]
    m = np.rint(s)
    # s is rounded twice (10^k and the product), so its digits are certain
    # except next to half-way; those values are left to "%" as well
    doubtful = wide | (np.abs(s - m) > 0.499)
    m = m.astype(np.int64)
    carry = m >= 10 ** 12               # 9.99999999999|5 -> 1.00000000000e+01
    m[carry] = 10 ** 11
    e += carry
    # digit groups by floor division and a product (numpy's % and divmod
    # take four times as long)
    high = m // 10 ** 7                 # d0-d4
    low = m - high * 10 ** 7            # d5-d11
    lead = high // 10 ** 4              # d0
    high -= lead * 10 ** 4              # d1-d4
    mid = low // 1000                   # d5-d8
    low -= mid * 1000                   # d9-d11
    words = np.empty(block.shape + (5,), dtype=np.uint32)
    w = words.reshape(-1, 5)
    # the second ten of _LEAD is negative
    w[:, 0] = _LEAD[lead + 10 * np.signbit(flat)]
    w[:, 1] = _QUAD[high]
    w[:, 2] = _QUAD[mid]
    w[:, 3] = _TAIL[low]
    exponent = (e + 99).reshape(block.shape)
    if newline:
        exponent[:, -1] += 199
    words[..., 4] = _EXPONENT[exponent]
    fields = w.view(np.uint8)
    i = np.flatnonzero(doubtful)
    if len(i):
        # "%" text and the separator in the 20 bytes of the field (19 with
        # a sign and a three-digit exponent)
        text = "".join([("%.11e" % v + chr(end)).rjust(20, "\0") for v, end in
                        zip(flat[i].tolist(), fields[i, 19].tolist())])
        fields[i] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 20)
    # the pad and the sign slot are cut off where every field has them empty
    cut = 0 if fields[:, 0].any() else 1 if fields[:, 1].any() else 2
    return words.view(np.uint8)[..., cut:].reshape(len(block), -1)


def _column_fields(column: np.ndarray, newline: bool) -> np.ndarray:
    """An int or label column as CSV fields, like ``_float_fields``."""
    n = len(column)
    if column.dtype.kind == "U":
        # ASCII labels by UCS-4 code point, any others encoded as UTF-8
        text = np.ascontiguousarray(column).view(np.uint32).reshape(n, -1)
        text = text.astype(np.uint8) if text.max() < 128 else np.strings.encode(column)
    elif 0 <= column.min() and column.max() < 10 ** 8:
        # row numbers, mode indices, seeds and counts from the digit table,
        # zeros ahead of the first digit made NUL (int64 holds 10^4)
        column = column.astype(np.int64)
        text = _QUAD[np.stack([column // 10000, column % 10000], axis=1)].view(np.uint8)
        text = text[:, 8 - len(str(column.max())):]
        text[:, :-1][np.logical_and.accumulate(text[:, :-1] == ord("0"), axis=1)] = 0
    else:
        text = column.astype("S")
    end = np.full(n, ord("\n" if newline else ","), dtype=np.uint8)
    return np.column_stack([text.view(np.uint8).reshape(n, -1), end])


def _comment_numbers(values) -> list[str]:
    """The numbers of comment lines in ``"%.11e"``, as the CSV writes its
    float columns, in one ``_float_fields`` call; ArithmeticError on a NaN
    or an infinity, which no output line may hold."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    if not np.isfinite(values).all():
        raise ArithmeticError(f"a comment line would hold {values[~np.isfinite(values)][0]}")
    return _float_fields(values).tobytes().replace(b"\0", b"").decode().splitlines()


def _fields(run: list, rows: slice, newline: bool) -> np.ndarray:
    """The fields of ``rows`` of a run of ``_Table`` columns' values."""
    if run[0][0].dtype.kind == "f":
        return _float_fields(np.column_stack([values[rows] for values, _ in run]), newline)
    return _column_fields(run[0][0][rows], newline)


def _void(fields: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array as void scalars, copied whole."""
    return fields.view(f"V{fields.shape[1]}")[:, 0]


def _side_by_side(parts: list) -> np.ndarray:
    """Void arrays of one length side by side, a uint8 row per element;
    the parts die with the call, before the next chunk is formatted."""
    widths = [part.itemsize for part in parts]
    rows = np.empty((len(parts[0]), sum(widths)), dtype=np.uint8)
    for part, end in zip(parts, itertools.accumulate(widths)):
        _void(rows[:, end - part.itemsize:end])[:] = part
    return rows


def _row_starts(rows: np.ndarray, marks: list[int]) -> list[int]:
    """0, then where each row of ``marks`` starts once the NUL bytes of
    ``rows`` are dropped: its padded offset less the NUL bytes ahead."""
    nul = rows.ravel() == 0
    starts = [0] + [i * rows.shape[1] for i in marks]
    return list(itertools.accumulate(
        (b - a - np.count_nonzero(nul[a:b]) for a, b in zip(starts, starts[1:])), initial=0))


def _pair(column) -> tuple | None:
    """(values, index or None) of a ``_Table`` column; None if it is none."""
    if isinstance(column, tuple):
        if len(column) != 2:
            return None
        values, index = map(np.asarray, column)
        if values.ndim != 1 or index.ndim != 1 or index.dtype.kind not in "iu" or len(
                index) and not (0 <= index.min() and index.max() < len(values)):
            return None
    else:
        values, index = np.asarray(column), None
    if values.ndim not in (1, 2) or values.dtype.kind not in ("fiuU" if values.ndim == 1
                                                              else "f"):
        return None
    if values.dtype.kind == "U":
        # NUL pads a label's end, so one before a later code point of the
        # same label would be dropped; ",", CR and LF would split its row
        width, codes = values.itemsize // 4, np.ascontiguousarray(values).view(np.uint32)
        nul = codes == 0
        inner = nul[:-1] > nul[1:]
        inner[width - 1::width] = False         # the next label's first code point
        if inner.any() or np.isin(codes, (0x0A, 0x0D, 0x2C)).any():
            return None
    return values.astype(float, copy=False) if values.dtype.kind == "f" else values, index


class _Table:
    """CSV columns of one length: 1-D int, float or str (label) arrays, 2-D
    float arrays, a CSV column per column (none if zero-wide), and indexed
    columns, pairs ``(values, index)`` of a 1-D int, float or label array
    and an int array whose row r holds ``values[index[r]]``, for a column
    of few distinct values.  A label holds no NUL, ",", CR or LF.
    Iteration yields each row as the tuple of its values, as Python
    scalars, indexed columns expanded."""

    def __init__(self, *columns):
        pairs = [_pair(c) for c in columns]
        lengths = [len(v) if i is None else len(i) for v, i in filter(None, pairs)]
        self.rows = lengths[0] if lengths else 0
        self.columns = [(v, i) for v, i in filter(None, pairs) if v.ndim != 2 or v.shape[1]]
        if any(p is None for p in pairs) or any(
                n != self.rows for n in lengths) or self.rows and not self.columns:
            raise TypeError("CSV columns are 1-D int, float or str arrays, 2-D float "
                            "arrays and (values, index) pairs of a 1-D column and an "
                            "int array inside it, all of one length, a row holds a "
                            "value, and a label holds no NUL, comma, CR or LF")

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return zip(*[values for v, i in self.columns for values in
                     np.atleast_2d((v if i is None else v[i]).T).tolist()])


def _check_finite(path: Path, columns: list[str], table: _Table) -> None:
    """ArithmeticError naming the file, the column and the row of the
    first NaN or infinity of ``table``; an indexed column's values are all
    formatted, so one that no row holds is refused too."""
    width = 0
    for values, index in table.columns:
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            rows = values.reshape(len(values), -1) if index is None else values[index, None]
            bad = np.argwhere(~np.isfinite(rows)).tolist()
            row, j = bad[0] if bad else (None, 0)
            name = columns[width + j] if width + j < len(columns) else width + j + 1
            value, where = ((rows[row, j], f"at row {row}") if bad else
                            (values[~np.isfinite(values)][0], "in a value no row holds"))
            raise ArithmeticError(f"{path.name}: column {name} holds {value} {where}")
        width += values.shape[1] if values.ndim == 2 else 1


def _write_csv(path: Path, columns: list[str], table: _Table, comments: list[str],
               block_comments: dict[int, str] | None = None) -> None:
    """Write ``table``: labels verbatim, integers in full, floats in
    ``"%.11e"`` (12 significant digits).  A non-finite float raises
    ArithmeticError naming the file, the column and the row before the file
    is opened.  ``block_comments`` maps a row index to a comment line
    written just before that row.

    An indexed column's distinct values are formatted once, ahead of the
    rows; every other column is formatted a chunk of rows at a time,
    adjacent float columns together.  A chunk's rows are laid out at a
    fixed width, each indexed field gathered by one fixed-size copy, then
    its NUL padding is removed in one pass and its comment lines spliced
    in at the row offsets, and it is written as one string.  A chunk
    formats at most ``_CHUNK_VALUES`` values and holds at most as many
    padded bytes as ``_CHUNK_VALUES`` float fields (20 bytes each).
    """
    _check_finite(path, columns, table)
    runs = [list(run) for _, run in itertools.groupby(
        table.columns, key=lambda c: c[1] is None and c[0].dtype.kind == "f" or object())]
    # an indexed column's fields, each a void scalar for the one-copy gather
    indexed = [None if run[0][1] is None or not len(table) else
               _void(_fields(run, slice(None), run is runs[-1])) for run in runs]
    formatted = sum(v.shape[1] if v.ndim == 2 else 1 for v, i in table.columns if i is None)
    padded = 20 * formatted + sum(f.itemsize for f in indexed if f is not None)
    step = max(1, _CHUNK_VALUES * 20 // max(1, padded))
    marks = sorted(i for i in block_comments or () if i < len(table))
    with open(path, "wb") as f:
        f.write("".join([f"# {c}\n" for c in comments]
                        + [",".join(columns) + "\n"]).encode())
        for first in range(0, len(table), step):
            rows = slice(first, first + step)
            text = _side_by_side([
                _void(_fields(run, rows, run is runs[-1])) if fields is None
                else fields[run[0][1][rows]] for run, fields in zip(runs, indexed)])
            here = marks[bisect_left(marks, first):bisect_left(marks, first + step)]
            cuts = _row_starts(text, [i - first for i in here])
            text = memoryview(text.tobytes().replace(b"\0", b""))
            f.write(b"".join([part for k, i in enumerate(here) for part in (
                text[cuts[k]:cuts[k + 1]], f"# {block_comments[i]}\n".encode())]
                + [text[cuts[-1]:]]))


def _comments(config: RunConfig, command: str) -> list[str]:
    return [f"metaline {__version__} {command}", f"config sha256={config.sha256}"]


# times per entropy_scan call: a fixed size, so that the products, and so
# the bytes, do not depend on the pool size
_TIME_CHUNK = 32


def _build_modes(config: RunConfig) -> tuple:
    spec = config.circuit_spec()
    modeset = solve_modes(build_matrices(spec), config.freq_window())
    return spec, modeset


def _no_mode(config: RunConfig, what: str) -> ConfigError:
    v = config.values
    return ConfigError(f"{config.path}: modes.window_ghz_lo = "
                       f"{v['modes.window_ghz_lo']!r} and modes.window_ghz_hi = "
                       f"{v['modes.window_ghz_hi']!r} enclose no mode {what}")


def _qubit_and_couplings(config: RunConfig, spec, modeset: ModeSet):
    """Resolve footprint placement and the coupling scale from the config."""
    v = config.values
    if not len(modeset):
        raise _no_mode(config, "for the qubit to couple to")
    extent = v["qubit.extent_m"]
    if v["qubit.position_m"] is not None:
        position = v["qubit.position_m"]
    else:
        position = footprint_at_antinode(
            modeset, spec, v["qubit.target_mode_ghz"] * GHZ, extent)
    probe = QubitSpec(delta0=v["qubit.freq_ghz"] * GHZ, position=position,
                      extent=extent, g_global=1.0)
    shape = coupling_spectrum(modeset, spec, probe, v["coupling.normalization"])
    if v["qubit.g_ghz"] is not None:
        g_global = v["qubit.g_ghz"] * GHZ
    else:
        n = int(np.argmin(np.abs(shape.frequencies - v["qubit.tune_mode_ghz"] * GHZ)))
        rel = shape.relative_profile[n]
        if rel == 0:
            raise ValueError("cannot tune coupling: target mode has zero profile")
        g_global = v["qubit.tune_g_ghz"] * GHZ / rel
    qubit = QubitSpec(delta0=probe.delta0, position=position,
                      extent=extent, g_global=g_global)
    couplings = replace(shape, g=g_global * shape.relative_profile)
    return qubit, couplings


def cmd_modes(config: RunConfig, profiles: bool = False) -> list:
    spec, modeset = _build_modes(config)
    freqs_ghz = modeset.frequencies / GHZ
    blocks = [modeset.profiles.T] if profiles and len(modeset) else []
    cols = ["n", "f_ghz"] + [f"phi_{j}" for b in blocks for j in range(b.shape[1])]
    dom = coupling_table = _Table()
    if len(modeset) >= 2:
        dom = _Table(freqs_ghz, dom_numeric(modeset), dom_approx(modeset.frequencies, spec))
    if len(modeset):
        _, couplings = _qubit_and_couplings(config, spec, modeset)
        coupling_table = _Table(np.arange(len(couplings)), couplings.frequencies / GHZ,
                                couplings.relative_profile, couplings.g / GHZ)
    return [(cols, _Table(np.arange(len(modeset)), freqs_ghz, *blocks), [], None),
            (["f_ghz", "d_numeric", "d_approx"], dom, [], None),
            (["n", "f_ghz", "relative_profile", "g_ghz"], coupling_table, [], None)]


def cmd_dynamics(config: RunConfig, threads: int) -> list:
    """Entropies at every tg, all propagated from one eigendecomposition
    of the RWA Hamiltonian, ``_TIME_CHUNK`` times per ``entropy_scan`` call;
    a pool of ``threads`` workers (at most one per tg) maps the chunks."""
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    eig = diagonalize(build_rwa_hamiltonian(couplings, qubit.delta0))
    tg_grid = config.grid("dynamics.tg")
    times = tg_grid / qubit.g_global
    chunks = [times[i:i + _TIME_CHUNK] for i in range(0, len(times), _TIME_CHUNK)]

    def scan(chunk: np.ndarray):
        return entropy_scan(eig, chunk)

    workers = min(threads, len(tg_grid))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(scan, chunks))
    else:
        reports = [scan(chunk) for chunk in chunks]
    e_qubit = np.concatenate([rep.e_qubit for rep in reports])
    e_per_mode = np.concatenate([rep.e_per_mode for rep in reports])

    n_modes = len(couplings)
    text = _comment_numbers(np.column_stack([tg_grid, e_qubit]))
    blocks = {k * n_modes: f"tg={tg} e_q={e_q}"
              for k, (tg, e_q) in enumerate(zip(text[::2], text[1::2]))}
    k, n = np.indices((len(tg_grid), n_modes)).reshape(2, -1)
    table = _Table((tg_grid, k), (np.arange(n_modes), n),
                   (couplings.frequencies / GHZ, n), e_per_mode.ravel())
    return [(["tg", "n", "f_ghz", "e_n"], table, [], blocks)]


def cmd_renorm(config: RunConfig) -> list:
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    omega_ir = spec.omega_ir
    g_grid = config.grid("renorm.g") * omega_ir
    sweep = sweep_coupling(couplings, qubit.delta0, g_grid,
                           config["renorm.variant"])
    delta0, *jumps = _comment_numbers([qubit.delta0 / GHZ] + [
        v for j in sweep.jumps for v in (j.g_star / omega_ir, j.drop_factor)])
    comments = [f"delta0_ghz={delta0} variant={config['renorm.variant']}"] + [
        f"jump g_star_over_omega_ir={g_star} drop_factor={drop}"
        for g_star, drop in zip(jumps[::2], jumps[1::2])]
    table = _Table(sweep.g_grid / omega_ir, sweep.g_grid / GHZ,
                   sweep.delta_eff / qubit.delta0, sweep.delta_eff_flat / qubit.delta0)
    return [(["g_over_omega_ir", "g_ghz", "delta_eff_over_delta0",
              "delta_eff_flat_over_delta0"], table, comments, None)]


def cmd_phase(config: RunConfig) -> list:
    """Phase diagram over the (Delta_0, g) grid."""
    spec, modeset = _build_modes(config)
    _, couplings = _qubit_and_couplings(config, spec, modeset)
    omega_ir = spec.omega_ir
    diagram = phase_diagram(couplings, config.grid("phase.g") * omega_ir,
                            config.grid("phase.delta0") * omega_ir,
                            config["renorm.variant"])
    ratio = diagram.delta_eff_grid / diagram.delta0_axis[:, None]
    i, j = np.indices(ratio.shape).reshape(2, -1)
    table = _Table((diagram.delta0_axis / omega_ir, i), (diagram.g_axis / omega_ir, j),
                   ratio.ravel(), diagram.phase.ravel())
    boundary = np.reshape(diagram.boundary, (-1, 2)) / omega_ir
    return [(["delta0_over_omega_ir", "g_over_omega_ir", "delta_eff_over_delta0",
              "phase"], table, [], None),
            (["g_star_over_omega_ir", "delta0_over_omega_ir"], _Table(boundary), [], None)]


def cmd_disorder(config: RunConfig) -> list:
    """Band edge and band mode count of every disordered device, from one
    batched Sturm-count solve (no eigenvectors)."""
    spec = config.circuit_spec()
    sigma = config["disorder.sigma"]
    seeds = list(range(config["disorder.seed0"],
                       config["disorder.seed0"] + config["disorder.seeds"]))
    band = (config["disorder.band_ghz_lo"] * GHZ, config["disorder.band_ghz_hi"] * GHZ)
    bands = network_bands(apply_disorder(spec, sigma, seeds))
    edges, counts = band_edges(bands, config.freq_window(), band)
    empty = [seed for seed, edge in zip(seeds, edges) if np.isnan(edge)]
    if empty:
        raise _no_mode(config, f"for disorder seed{'s' if len(empty) > 1 else ''} "
                               f"{', '.join(map(str, empty))}")

    edges = edges / GHZ
    text = _comment_numbers([sigma, edges.mean(), edges.std(), counts.mean(), counts.std()])
    comments = [f"sigma={text[0]} seeds={len(seeds)}",
                f"summary edge_ghz mean={text[1]} std={text[2]}",
                f"summary band_count mean={text[3]} std={text[4]}"]
    return [(["seed", "edge_ghz", "band_count"], _Table(seeds, edges, counts),
             comments, None)]


_COMMANDS = {f.__name__.removeprefix("cmd_"): f for f in
             (cmd_modes, cmd_dynamics, cmd_renorm, cmd_phase, cmd_disorder)}
# the file of each table a command returns, in order: the one place a file
# name is spelled, checked against the file-name limit before any work
_OUTPUTS = {"modes": ("modes.csv", "dom.csv", "couplings.csv"),
            "dynamics": ("entropy.csv",), "renorm": ("renorm.csv",),
            "phase": ("phase.csv", "boundary.csv"), "disorder": ("disorder.csv",)}


def _worker_count(text: str) -> int:
    """The ``--threads`` value: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


# built once per process; the --threads default, the CPU count, is
# resolved on each call
_PARSER = argparse.ArgumentParser(
    prog="metaline", description="Hybrid metamaterial transmission-line simulator")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a .cfg file")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--threads", type=_worker_count,
                     help="dynamics worker pool size (default: CPU count)")
_PARSER.add_argument("--profiles", action="store_true",
                     help="include per-node mode profiles in modes.csv")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    threads = args.threads or os.cpu_count() or 1

    try:
        config = parse_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        check_output_names(config, out, _OUTPUTS[args.command])
        options = {"modes": {"profiles": args.profiles},
                   "dynamics": {"threads": threads}}
        tables = _COMMANDS[args.command](config, **options.get(args.command, {}))
        files = [(out / config.output_name(name), *entry) for name, entry
                 in zip(_OUTPUTS[args.command], tables, strict=True)]
        for path, columns, table, _, _ in files:
            _check_finite(path, columns, table)
        for path, columns, table, comments, blocks in files:
            _write_csv(path, columns, table, _comments(config, args.command) + comments,
                       blocks)
    except ConfigError as exc:
        print(f"metaline: config error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedCircuitError, ValueError, ArithmeticError) as exc:
        print(f"metaline: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"metaline: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
