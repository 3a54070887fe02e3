"""Command-line driver emitting deterministic, plot-ready CSV files.

Every subcommand reads one flat config file, runs the corresponding
pipeline and writes CSVs with '#' provenance comments (tool version and
config hash).  Output bytes are identical across reruns of the same
config and independent of the worker-pool size.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
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


def _write_csv(path: Path, columns: list[str], rows, comments: list[str],
               block_comments: dict[int, str] | None = None) -> None:
    """Write rows with deterministic formatting; 12 significant digits.

    Each row is formatted by one ``%`` template, built once per file for
    each sequence of value types met; labels must be plain ``str`` ("%s"
    would print an Enum member by its name).  ``block_comments`` maps a
    row index to a comment line emitted just before that row (used for
    the per-block entropy headers).
    """
    templates: dict[tuple[type, ...], str] = {}
    with open(path, "w", newline="\n") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(",".join(columns) + "\n")
        for i, row in enumerate(rows):
            if block_comments and i in block_comments:
                f.write(f"# {block_comments[i]}\n")
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join(map(_conversion, kinds)) + "\n"
            f.write(template % row)


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
    if profiles:
        rows = [[n, f] + phi for n, (f, phi)
                in enumerate(zip(freqs_ghz, modeset.profiles.T.tolist()))]
    else:
        rows = list(enumerate(freqs_ghz))
    _write_csv(_output(config, out, "modes.csv"), cols, rows, comments)

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
