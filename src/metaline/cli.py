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


def _fmt(value) -> str:
    """A number of a comment line, as the CSV writes its columns."""
    return ("%d" if isinstance(value, (int, np.integer)) else "%.11e") % (value,)


# "%.11e" fields from tables of 4-byte ASCII words, five words a field:
# [sign, d0, ".", d1], [d2-d5], [d6-d9], [d10, d11, "e", exponent sign],
# [exponent digits, separator, pad]; a NUL byte is an empty slot (the
# sign of a non-negative value, the pad) and is dropped from the output
def _words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


_LEAD = _words(f"{sign}{i // 10}.{i % 10}" for sign in "\0-" for i in range(100))
# "0000" to "9999", from digit arithmetic (10^4 f-strings cost ms at import)
_QUAD = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
         + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TAIL = _words(f"{i:02d}e{sign}" for sign in "+-" for i in range(100))
_EXPONENT = _words(f"{i:02d}{end}\0" for end in ",\n" for i in range(100))
_POW10 = 10.0 ** np.arange(-120, 121)                   # 10^k at k + 120
# values formatted per numpy pass: few enough to stay in cache
_CHUNK_VALUES = 1 << 14


def _float_fields(block: np.ndarray, newline: bool = True) -> np.ndarray:
    """The finite values of a 2-D float array in ``"%.11e"``, the bytes of
    the ``%`` operator built with numpy: a uint8 array with one row per block row,
    each value followed by "," but the last of a row, which is followed by
    "\\n" when ``newline``, and NUL bytes to drop.  The ``%`` operator itself
    formats the few values numpy cannot: subnormals, three-digit exponents
    and values next to a half-way tie.
    """
    flat = block.ravel()
    a = np.abs(flat)
    # decimal exponent e, so that the 12 digits are a * 10^(11 - e) rounded;
    # log10 may land one off next to a power of ten
    e = np.floor(np.log10(np.where(a > 0, a, 1.0))).astype(np.intp)
    # three-digit exponents (subnormals too) are left to "%", with a margin
    # for the two steps e may still move by
    wide = np.abs(e) > 97
    a[wide] = 1.0
    e[wide] = 0
    nonzero = a > 0
    s = a * _POW10[131 - e]
    e += nonzero & (s >= 1e12)
    e -= nonzero & (s < 1e11)
    s = a * _POW10[131 - e]
    m = np.rint(s)
    # s is rounded twice (10^k and the product), so its digits are certain
    # except next to half-way; those values are left to "%" as well
    doubtful = wide | (np.abs(np.abs(s - m) - 0.5) < 1e-3)
    carry = m >= 1e12                   # 9.99999999999|5 -> 1.00000000000e+01
    m[carry] = 1e11
    e[carry] += 1
    # digits by exact float division: m < 1e12 < 2^53
    lead = np.floor(m / 1e10)
    rest = m - lead * 1e10
    mid = np.floor(rest / 1e6)
    rest -= mid * 1e6
    low = np.floor(rest / 1e2)
    rest -= low * 1e2
    words = np.empty(block.shape + (5,), dtype=np.uint32)
    w = words.reshape(-1, 5)
    # the second hundred of each table: negative, negative exponent, row end
    w[:, 0] = _LEAD[lead.astype(np.intp) + 100 * np.signbit(flat)]
    w[:, 1] = _QUAD[mid.astype(np.intp)]
    w[:, 2] = _QUAD[low.astype(np.intp)]
    w[:, 3] = _TAIL[rest.astype(np.intp) + 100 * (e < 0)]
    exponent = np.abs(e).reshape(block.shape)
    if newline:
        exponent[:, -1] += 100
    words[..., 4] = _EXPONENT[exponent]
    fields = w.view(np.uint8)
    i = np.flatnonzero(doubtful)
    if len(i):
        # "%" text and the separator in the 20 bytes of the field (19 with
        # a sign and a three-digit exponent)
        text = "".join([("%.11e" % v + chr(end)).rjust(20, "\0") for v, end in
                        zip(flat[i].tolist(), fields[i, 18].tolist())])
        fields[i] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 20)
    return words.view(np.uint8).reshape(len(block), -1)


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


class _Table:
    """CSV columns of one length: 1-D int, float or str (label) arrays and 2-D
    float arrays, a CSV column per column (none if zero-wide).  Iteration
    yields each row as the tuple of its values, as Python scalars."""

    def __init__(self, *columns):
        columns = [c.astype(float, copy=False) if c.dtype.kind == "f" else c
                   for c in map(np.asarray, columns)]
        self.rows = len(columns[0]) if columns else 0
        self.columns = [c for c in columns if c.ndim != 2 or c.shape[1]]
        if self.rows and not self.columns or any(
                c.ndim not in (1, 2) or c.dtype.kind not in ("fiuU" if c.ndim == 1 else "f")
                or len(c) != self.rows for c in columns):
            raise TypeError("CSV columns are 1-D int, float or str arrays and 2-D "
                            "float arrays, all of one length, and a row holds a value")

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return zip(*[values for c in self.columns for values in np.atleast_2d(c.T).tolist()])


def _check_finite(path: Path, columns: list[str], table: _Table) -> int:
    """The CSV column count of ``table``; ArithmeticError naming the file
    and the column of its first NaN or infinity."""
    width = 0
    for c in table.columns:
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            values = c.reshape(len(c), -1)
            row, j = np.argwhere(~np.isfinite(values))[0]
            name = columns[width + j] if width + j < len(columns) else width + j + 1
            raise ArithmeticError(f"{path.name}: column {name} holds "
                                  f"{values[row, j]} at row {row}")
        width += c.shape[1] if c.ndim == 2 else 1
    return width


def _write_csv(path: Path, columns: list[str], table: _Table, comments: list[str],
               block_comments: dict[int, str] | None = None) -> None:
    """Write ``table``: labels verbatim, integers in full, floats in
    ``"%.11e"`` (12 significant digits), formatted by numpy ``_CHUNK_VALUES``
    values at a time and written a chunk per string.  A non-finite float
    raises ArithmeticError naming the file and the column before the file is
    opened.  ``block_comments`` maps a row index to a comment line written
    just before that row."""
    width = _check_finite(path, columns, table)
    # adjacent float columns are formatted together, any other column alone
    runs = [list(run) for _, run in itertools.groupby(
        table.columns, key=lambda c: c.dtype.kind == "f" or object())]
    marks = sorted(i for i in block_comments or () if i < len(table))
    step = max(1, _CHUNK_VALUES // max(1, width))
    with open(path, "wb") as f:
        f.write("".join([f"# {c}\n" for c in comments]
                        + [",".join(columns) + "\n"]).encode())
        for first in range(0, len(table), step):
            fields = np.concatenate([
                _float_fields(np.column_stack([c[first:first + step] for c in run]),
                              run is runs[-1]) if run[0].dtype.kind == "f"
                else _column_fields(run[0][first:first + step], run is runs[-1])
                for run in runs], axis=1)
            cuts = [i - first for i in marks if first <= i < first + step]
            parts = np.split(fields, cuts)
            f.write(b"".join([parts[0].tobytes()] + [
                f"# {block_comments[first + i]}\n".encode() + part.tobytes()
                for i, part in zip(cuts, parts[1:])]).replace(b"\0", b""))


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
    blocks = {k * n_modes: f"tg={_fmt(tg)} e_q={_fmt(e_q)}"
              for k, (tg, e_q) in enumerate(zip(tg_grid, e_qubit))}
    table = _Table(np.repeat(tg_grid, n_modes),
                   np.tile(np.arange(n_modes), len(tg_grid)),
                   np.tile(couplings.frequencies / GHZ, len(tg_grid)),
                   e_per_mode.ravel())
    return [(["tg", "n", "f_ghz", "e_n"], table, [], blocks)]


def cmd_renorm(config: RunConfig) -> list:
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    omega_ir = spec.omega_ir
    g_grid = config.grid("renorm.g") * omega_ir
    sweep = sweep_coupling(couplings, qubit.delta0, g_grid,
                           config["renorm.variant"])
    comments = [f"delta0_ghz={_fmt(qubit.delta0 / GHZ)} "
                f"variant={config['renorm.variant']}"]
    for j in sweep.jumps:
        comments.append(
            f"jump g_star_over_omega_ir={_fmt(j.g_star / omega_ir)} "
            f"drop_factor={_fmt(j.drop_factor)}")
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
    table = _Table(np.repeat(diagram.delta0_axis / omega_ir, len(diagram.g_axis)),
                   np.tile(diagram.g_axis / omega_ir, len(ratio)),
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
    comments = [f"sigma={_fmt(sigma)} seeds={len(seeds)}",
                f"summary edge_ghz mean={_fmt(edges.mean())} std={_fmt(edges.std())}",
                f"summary band_count mean={_fmt(counts.mean())} std={_fmt(counts.std())}"]
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metaline",
        description="Hybrid metamaterial transmission-line simulator")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a .cfg file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=_worker_count, default=os.cpu_count() or 1,
                        help="dynamics worker pool size (default: CPU count)")
    parser.add_argument("--profiles", action="store_true",
                        help="include per-node mode profiles in modes.csv")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        check_output_names(config, out, _OUTPUTS[args.command])
        options = {"modes": {"profiles": args.profiles},
                   "dynamics": {"threads": args.threads}}
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
