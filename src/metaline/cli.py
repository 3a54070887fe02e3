"""Command-line driver emitting deterministic, plot-ready CSV files.

Every subcommand reads one flat config file, runs the corresponding
pipeline and writes CSVs with '#' provenance comments (tool version and
config hash).  Output bytes are identical across reruns of the same
config and independent of the worker-pool size.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import NetworkBands, apply_disorder, build_matrices, network_bands
from .config import GHZ, ConfigError, RunConfig, parse_config
from .dispersion import dom_approx, rhtl_background_dom
from .dynamics import build_rwa_hamiltonian, diagonalize, entropy_scan
from .modes import (CouplingSpectrum, IllConditionedCircuitError, ModeSet,
                    QubitSpec, band_edges, coupling_spectrum, dom_numeric,
                    footprint_at_antinode, solve_modes)
from .spinboson import Phase, phase_diagram, sweep_coupling


def _conversion(kind: type) -> str:
    """printf conversion of a CSV value of type ``kind``: labels verbatim,
    integers in full, anything else as a float with 12 significant digits
    (``"%.11e" % x`` is ``format(float(x), ".11e")``)."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.11e"


def _fmt(value) -> str:
    return _conversion(type(value)) % (value,)


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
_CHUNK_VALUES = 1 << 12


def _float_rows(block: np.ndarray) -> list[str] | None:
    """Each row of a 2-D float array as its values in ``"%.11e"`` joined by
    commas: the bytes of the ``%`` operator, built with numpy.

    None when a value is not finite or needs a three-digit exponent (the
    caller then formats with ``%``).
    """
    flat = block.ravel()
    if not np.isfinite(flat).all():
        return None
    a = np.abs(flat)
    nonzero = a > 0
    # decimal exponent e, so that the 12 digits are a * 10^(11 - e) rounded;
    # log10 may land one off next to a power of ten
    e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.intp)
    if np.abs(e).max(initial=0) > 99:
        return None
    s = a * _POW10[131 - e]
    e += nonzero & (s >= 1e12)
    e -= nonzero & (s < 1e11)
    s = a * _POW10[131 - e]
    m = np.rint(s)
    # s is rounded twice (10^k and the product), so its digits are certain
    # except next to half-way; those values and zeros are left to "%"
    doubtful = ~nonzero | (np.abs(np.abs(s - m) - 0.5) < 1e-3)
    carry = m >= 1e12                   # 9.99999999999|5 -> 1.00000000000e+01
    m[carry] = 1e11
    e[carry] += 1
    if np.abs(e).max(initial=0) > 99:
        return None
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
    exponent[:, -1] += 100
    words[..., 4] = _EXPONENT[exponent]
    fields = w.view(np.uint8)
    for i in np.flatnonzero(doubtful).tolist():
        text = ("%.11e" % flat[i]).rjust(18, "\0")
        if len(text) != 18:
            return None
        fields[i, :18] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return words.tobytes().replace(b"\0", b"").decode("ascii").split("\n")[:-1]


def _format_rows(rows: list, kinds: tuple[type, ...]):
    """Lines of rows whose values have the types ``kinds``, made a chunk of
    rows at a time by one ``%`` template, with each run of float columns
    formatted by ``_float_rows``."""
    conversions = [_conversion(kind) for kind in kinds]
    runs, c = [], 0
    for is_float, run in itertools.groupby(conversions, key="%.11e".__eq__):
        runs.append((c, c + len(list(run)), is_float))
        c = runs[-1][1]
    step = max(1, _CHUNK_VALUES // max(1, len(kinds)))
    for first in range(0, len(rows), step):
        chunk = rows[first:first + step]
        pieces, columns = [], []
        for c, end, is_float in runs:
            if is_float:
                text = _float_rows(np.array([row[c:end] for row in chunk], dtype=float))
                if text is not None:
                    pieces.append("%s")
                    columns.append(text)
                    continue
            pieces += conversions[c:end]
            columns += [[row[k] for row in chunk] for k in range(c, end)]
        template = ",".join(pieces) + "\n"
        for values in zip(*columns) if columns else [()] * len(chunk):
            yield template % values


class _IndexedRows(Sequence):
    """Row n is (n, *block[n]): a row-number column beside a 2-D float
    array, which ``_write_csv`` formats without a Python float per value."""

    def __init__(self, block: np.ndarray):
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, n: int) -> tuple:
        return (n, *self.block[n].tolist())


def _indexed_lines(block: np.ndarray):
    """Lines of ``_IndexedRows(block)``, a chunk of rows at a time."""
    step = max(1, _CHUNK_VALUES // max(1, block.shape[1]))
    for first in range(0, len(block), step):
        chunk = block[first:first + step]
        text = _float_rows(chunk) if chunk.shape[1] else None
        if text is None:
            rows = [(first + k, *row) for k, row in enumerate(chunk.tolist())]
            yield from _format_rows(rows, (int,) + (float,) * chunk.shape[1])
        else:
            yield from (f"{first + k},{line}\n" for k, line in enumerate(text))


def _write_csv(path: Path, columns: list[str], rows, comments: list[str],
               block_comments: dict[int, str] | None = None) -> None:
    """Write rows with deterministic formatting; 12 significant digits.

    ``rows`` is a sequence of value sequences, or ``_IndexedRows``.  Each
    stretch of rows with the same sequence of value types is formatted by
    ``_format_rows``; labels must be plain ``str`` ("%s" would print an
    Enum member by its name).  ``block_comments`` maps a row index to a
    comment line emitted just before that row (used for the per-block
    entropy headers).
    """
    if isinstance(rows, _IndexedRows):
        lines = _indexed_lines(rows.block)
    else:
        lines = (line for kinds, stretch in itertools.groupby(
                     rows, key=lambda row: tuple(map(type, row)))
                 for line in _format_rows(list(stretch), kinds))
    with open(path, "w", newline="\n") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(",".join(columns) + "\n")
        for i, line in enumerate(lines):
            if block_comments and i in block_comments:
                f.write(f"# {block_comments[i]}\n")
            f.write(line)


def _comments(config: RunConfig, command: str) -> list[str]:
    return [
        f"metaline {__version__} {command}",
        f"config sha256={config.sha256}",
    ]


def _output(config: RunConfig, out: Path, name: str) -> Path:
    """Path of output file ``name`` in ``out``, behind the ``output.stem`` prefix."""
    stem = config["output.stem"]
    return out / (f"{stem}_{name}" if stem else name)


def _build_modes(config: RunConfig) -> tuple:
    spec = config.circuit_spec()
    modeset = solve_modes(build_matrices(spec), config.freq_window())
    return spec, modeset


def _qubit_and_couplings(config: RunConfig, spec, modeset: ModeSet):
    """Resolve footprint placement and the coupling scale from the config."""
    v = config.values
    if not len(modeset):
        raise ConfigError(
            f"modes.window_ghz_lo = {v['modes.window_ghz_lo']!r} and "
            f"modes.window_ghz_hi = {v['modes.window_ghz_hi']!r} enclose no "
            f"mode: the qubit has nothing to couple to")
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
    couplings = CouplingSpectrum(frequencies=shape.frequencies,
                                 relative_profile=shape.relative_profile,
                                 g=g_global * shape.relative_profile,
                                 g_global=g_global)
    return qubit, couplings


def cmd_modes(config: RunConfig, out: Path, threads: int,
              profiles: bool = False) -> None:
    spec, modeset = _build_modes(config)
    comments = _comments(config, "modes")

    freqs_ghz = (modeset.frequencies / GHZ).tolist()
    cols = ["n", "f_ghz"]
    if profiles and len(modeset):
        cols += [f"phi_{j}" for j in range(modeset.profiles.shape[0])]
    values = modeset.frequencies[:, None] / GHZ
    if profiles:
        values = np.column_stack([values, modeset.profiles.T])
    _write_csv(_output(config, out, "modes.csv"), cols, _IndexedRows(values),
               comments)

    dom_rows = []
    if len(modeset) >= 2:
        est = dom_numeric(modeset, config["modes.dom_bin_ghz"] * GHZ)
        # the formula diverges at the cutoff; below it only the strip counts
        approx = np.full(len(modeset), rhtl_background_dom(spec))
        above = modeset.frequencies > spec.omega_ir
        approx[above] = dom_approx(modeset.frequencies[above], spec,
                                   include_rhtl_background=True)
        dom_rows = list(zip(freqs_ghz, est.spacing_density.tolist(), approx.tolist()))
    _write_csv(_output(config, out, "dom.csv"), ["f_ghz", "d_numeric", "d_approx"],
               dom_rows, comments)

    coup_rows = []
    if len(modeset):
        _, couplings = _qubit_and_couplings(config, spec, modeset)
        coup_rows = list(zip(range(len(couplings)),
                             (couplings.frequencies / GHZ).tolist(),
                             couplings.relative_profile.tolist(),
                             (couplings.g / GHZ).tolist()))
    _write_csv(_output(config, out, "couplings.csv"),
               ["n", "f_ghz", "relative_profile", "g_ghz"], coup_rows, comments)


def cmd_dynamics(config: RunConfig, out: Path, threads: int) -> None:
    """Entropies at every tg, all propagated from one eigendecomposition
    of the RWA Hamiltonian; ``threads`` workers share the time grid."""
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    eig = diagonalize(build_rwa_hamiltonian(couplings, qubit.delta0))
    tg_grid = config.grid("dynamics.tg")

    def scan(tg: float):
        t = tg / qubit.g_global if qubit.g_global > 0 else 0.0
        return entropy_scan(eig, t, time_label=tg)

    workers = min(threads, len(tg_grid))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(scan, tg_grid))
    else:
        reports = [scan(tg) for tg in tg_grid]

    modes = range(len(couplings))
    freqs_ghz = (couplings.frequencies / GHZ).tolist()
    rows, blocks = [], {}
    for rep in reports:
        blocks[len(rows)] = f"tg={_fmt(rep.time)} e_q={_fmt(rep.e_qubit)}"
        rows += zip([rep.time] * len(modes), modes, freqs_ghz,
                    rep.e_per_mode.tolist())
    _write_csv(_output(config, out, "entropy.csv"), ["tg", "n", "f_ghz", "e_n"],
               rows, _comments(config, "dynamics"), blocks)


def cmd_renorm(config: RunConfig, out: Path, threads: int) -> None:
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    omega_ir = spec.omega_ir
    g_grid = config.grid("renorm.g") * omega_ir
    sweep = sweep_coupling(couplings, qubit.delta0, g_grid,
                           config["renorm.variant"])
    comments = _comments(config, "renorm")
    comments.append(f"delta0_ghz={_fmt(qubit.delta0 / GHZ)} "
                    f"variant={config['renorm.variant']}")
    for j in sweep.jumps:
        comments.append(
            f"jump g_star_over_omega_ir={_fmt(j.g_star / omega_ir)} "
            f"drop_factor={_fmt(j.drop_factor)}")
    rows = list(zip((sweep.g_grid / omega_ir).tolist(),
                    (sweep.g_grid / GHZ).tolist(),
                    (sweep.delta_eff / qubit.delta0).tolist(),
                    (sweep.delta_eff_flat / qubit.delta0).tolist()))
    _write_csv(_output(config, out, "renorm.csv"),
               ["g_over_omega_ir", "g_ghz", "delta_eff_over_delta0",
                "delta_eff_flat_over_delta0"], rows, comments)


def cmd_phase(config: RunConfig, out: Path, threads: int) -> None:
    """Phase diagram over the (Delta_0, g) grid (``threads`` is unused)."""
    spec, modeset = _build_modes(config)
    qubit, couplings = _qubit_and_couplings(config, spec, modeset)
    omega_ir = spec.omega_ir
    g_grid = config.grid("phase.g") * omega_ir
    delta0_grid = config.grid("phase.delta0") * omega_ir
    diagram = phase_diagram(
        spec, qubit, g_grid, delta0_grid,
        freq_window=config.freq_window(),
        normalization=config["coupling.normalization"],
        variant=config["renorm.variant"],
    )
    comments = _comments(config, "phase")
    ratio = diagram.delta_eff_grid / diagram.delta0_axis[:, None]
    labels = np.where(ratio < diagram.localization_threshold,
                      Phase.LOCALIZED.value, Phase.DELOCALIZED.value)
    n_g = len(diagram.g_axis)
    rows = list(zip(np.repeat(diagram.delta0_axis / omega_ir, n_g).tolist(),
                    np.tile(diagram.g_axis / omega_ir, len(ratio)).tolist(),
                    ratio.ravel().tolist(), labels.ravel().tolist()))
    _write_csv(_output(config, out, "phase.csv"),
               ["delta0_over_omega_ir", "g_over_omega_ir",
                "delta_eff_over_delta0", "phase"], rows, comments)
    brows = [(g / omega_ir, d0 / omega_ir) for g, d0 in diagram.boundary]
    _write_csv(_output(config, out, "boundary.csv"),
               ["g_star_over_omega_ir", "delta0_over_omega_ir"], brows, comments)


def cmd_disorder(config: RunConfig, out: Path, threads: int) -> None:
    """Band edge and band mode count of every disordered device, from one
    batched Sturm-count solve (no eigenvectors; ``threads`` is unused)."""
    spec = config.circuit_spec()
    sigma = config["disorder.sigma"]
    seeds = list(range(config["disorder.seed0"],
                       config["disorder.seed0"] + config["disorder.seeds"]))
    band = (config["disorder.band_ghz_lo"] * GHZ, config["disorder.band_ghz_hi"] * GHZ)
    bands = NetworkBands.stack([network_bands(apply_disorder(spec, sigma, seed))
                                for seed in seeds])
    edges, counts = band_edges(bands, config.freq_window(), band)
    empty = [seed for seed, edge in zip(seeds, edges) if np.isnan(edge)]
    if empty:
        raise ValueError(
            f"no mode in the window [{config['modes.window_ghz_lo']}, "
            f"{config['modes.window_ghz_hi']}] GHz for disorder "
            f"seed{'s' if len(empty) > 1 else ''} {', '.join(map(str, empty))}")

    edges = edges / GHZ
    comments = _comments(config, "disorder")
    comments.append(f"sigma={_fmt(sigma)} seeds={len(seeds)}")
    comments.append(
        f"summary edge_ghz mean={_fmt(edges.mean())} std={_fmt(edges.std())}")
    comments.append(
        f"summary band_count mean={_fmt(counts.mean())} std={_fmt(counts.std())}")
    _write_csv(_output(config, out, "disorder.csv"), ["seed", "edge_ghz", "band_count"],
               list(zip(seeds, edges, counts)), comments)


_COMMANDS = {
    "modes": cmd_modes,
    "dynamics": cmd_dynamics,
    "renorm": cmd_renorm,
    "phase": cmd_phase,
    "disorder": cmd_disorder,
}


def _resolve_threads(arg: int | None) -> int:
    if arg is not None:
        return max(1, arg)
    env = os.environ.get("METALINE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"METALINE_THREADS={env!r} is not an integer") from None
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metaline",
        description="Hybrid metamaterial transmission-line simulator")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a .cfg file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="dynamics worker pool size "
                             "(default: METALINE_THREADS or CPU count)")
    parser.add_argument("--profiles", action="store_true",
                        help="include per-node mode profiles in modes.csv")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        threads = _resolve_threads(args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "modes":
            cmd_modes(config, out, threads, profiles=args.profiles)
        else:
            _COMMANDS[args.command](config, out, threads)
    except ConfigError as exc:
        print(f"metaline: config error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedCircuitError, ValueError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"metaline: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"metaline: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
