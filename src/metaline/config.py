"""Flat key-value run configuration.

One ``section.key = value`` assignment per line, ``#`` comments, no
nesting.  Frequencies are written in GHz in the file and kept in GHz in
``RunConfig.values``; each becomes angular rad/s (x ``GHZ`` = 2 pi 1e9)
where it is used: in the circuit, ``RunConfig.freq_window`` and the
commands in ``cli``.  Grids are written as ``lo, hi, n`` triples with the
spacing (``linear`` or ``log``) named by the ``*_spacing`` key next to them.
Each ``_SCHEMA`` row carries its key's whole rule as (test, what the value
must be) pairs, which ``parse_config`` checks on the line that sets the
key; ``_validate`` then checks the rules that join keys, and
``parse_config`` builds the circuit and every grid.  ``check_output_names``
checks the file names against the output directory, which the config does
not name.  After them, only a window that holds no mode is a config error
(``cli``).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import MAX_SIGMA, CircuitSpec, design_from_impedance, rhtl_from_impedance

GHZ = 2.0 * np.pi * 1e9
# points of one grid at most, five times the largest grid in use (2000): a
# count beyond it stops at parse time, not in an allocation after the solve
MAX_GRID_POINTS = 10_000
# disorder seeds of one run at most: ``disorder`` stacks the bands of every
# seed's device, 160 MB at dim 501 for this many
MAX_SEEDS = 10_000
# ladder cells (circuit.n_left) and strip cells (circuit.n_right) at most:
# the size ladder's top rung is n_left 20 000 with n_right 30 000, and a
# larger count stops at parse time, not in an allocation
MAX_CELLS = 50_000


class ConfigError(ValueError):
    """Malformed or physically invalid run configuration."""


def _one_of(*words: str) -> tuple:
    """The rule of a key that takes one of ``words``."""
    return ((lambda v: v in words, f"must be {' or '.join(map(repr, words))}"),)


# a key's rule: (test, what the value must be) pairs, checked in order on
# the line that sets the key ("<path>:<line>: <key> <what>, got <value>";
# a grid's rules speak of the grid, "<key>: grid needs ...")
_POS = ((lambda v: v > 0, "must be positive"),)
_RAD = ((lambda v: np.isfinite(v * GHZ), "overflows in rad/s"),)
# the window and band ends are squared into (rad/s)^2, the pencil's shifts
_SQUARED = ((lambda v: np.isfinite((v * GHZ) * (v * GHZ)), "overflows when squared in "
             "(rad/s)^2"),)
_CELLS = ((lambda v: v <= MAX_CELLS, f"must be <= {MAX_CELLS}"),)
_SPACINGS = _one_of("linear", "log")
_GRID = ((lambda g: g[2] >= 1 and g[0] <= g[1], "grid needs lo <= hi and n >= 1"),
         (lambda g: g[2] <= MAX_GRID_POINTS, f"grid needs n <= {MAX_GRID_POINTS}"))
_SWEEP = _GRID + ((lambda g: g[2] >= 2 and g[0] < g[1],
                   "grid needs lo < hi and n >= 2"),)

# key -> (type tag, default, rule); frequencies carry the _ghz suffix in-file
_SCHEMA: dict[str, tuple[str, object, tuple]] = {
    "circuit.n_left": ("int", 200, _POS + _CELLS),
    "circuit.cell_pitch_m": ("float", 100e-6, _POS),
    "circuit.z0_ohm": ("float", 50.0, _POS),
    "circuit.f_ir_ghz": ("float", 4.0, _POS + _RAD),
    "circuit.c_left_f": ("float", None, _POS),
    "circuit.l_left_h": ("float", None, _POS),
    "circuit.rhtl_length_m": ("float", 0.03, _POS),
    "circuit.rhtl_z0_ohm": ("float", 50.0, _POS),
    "circuit.c_right_f_per_m": ("float", None, _POS),
    "circuit.l_right_h_per_m": ("float", None, _POS),
    "circuit.n_right": ("int", 300, ((lambda v: v >= 2, "must satisfy n_right >= 2 "
                                      "(two strip cells)"),) + _CELLS),
    "circuit.c_end_left_f": ("float", None, _POS),
    "circuit.c_end_right_f": ("float", None, _POS),
    "qubit.freq_ghz": ("float", 4.2, _POS + _RAD),
    "qubit.extent_m": ("float", 0.5e-3, _POS),
    "qubit.position_m": ("float", None, ()),          # None -> antinode placement
    "qubit.g_ghz": ("float", None, _POS + _RAD),
    "qubit.tune_mode_ghz": ("float", None, _POS + _RAD),
    "qubit.tune_g_ghz": ("float", None, _POS + _RAD),
    "qubit.target_mode_ghz": ("float", 4.579, _RAD),
    "modes.window_ghz_lo": ("float", 3.8, _RAD + _SQUARED),
    "modes.window_ghz_hi": ("float", 13.0, _RAD + _SQUARED),
    "coupling.normalization": ("str", "dom", _one_of("dom", "spatial")),
    "dynamics.tg_grid": ("grid", (0.0, 10.0, 11), _GRID),
    "dynamics.tg_spacing": ("str", "linear", _SPACINGS),
    "renorm.variant": ("str", "standard", _one_of("standard", "literal")),
    "renorm.g_grid": ("grid", (0.01, 2.0, 60), _SWEEP),  # units of omega_ir
    "renorm.g_spacing": ("str", "log", _SPACINGS),
    "phase.delta0_grid": ("grid", (1.1, 1.4, 4), _GRID + (  # units of omega_ir
        (lambda g: g[0] > 0, "grid must be positive"),)),
    "phase.delta0_spacing": ("str", "linear", _SPACINGS),
    "phase.g_grid": ("grid", (0.05, 2.0, 40), _SWEEP),
    "phase.g_spacing": ("str", "log", _SPACINGS),
    "disorder.sigma": ("float", 0.02, ((lambda v: 0 <= v < MAX_SIGMA,
                                        "must lie in [0, 1/3), since elements are "
                                        "scattered by up to 3 sigma"),)),
    "disorder.seeds": ("int", 50, _POS + ((lambda v: v <= MAX_SEEDS,
                                           f"must be <= {MAX_SEEDS}"),)),
    "disorder.seed0": ("int", 1, ((lambda v: v >= 0, "must be >= 0 (seeds seed "
                                   "the random generator)"),)),
    "disorder.band_ghz_lo": ("float", 4.119, _RAD + _SQUARED),
    "disorder.band_ghz_hi": ("float", 5.039, _RAD + _SQUARED),
    "output.stem": ("str", "", ((lambda v: not {"/", os.sep, "\0"} & set(v),
                                 "is a file-name prefix and may hold no path "
                                 "separator or NUL byte"),)),
}


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_value(kind: str, text: str, where: str):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(text)
        if kind == "str":
            return text
        parts = [p.strip() for p in text.split(",")]     # a grid
        if len(parts) != 3:
            raise ValueError("expected 'lo, hi, n'")
        return (_finite(parts[0]), _finite(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {kind} value {text!r} ({exc})") from None


def _make_grid(triple: tuple[float, float, int], spacing: str, where: str) -> np.ndarray:
    lo, hi, n = triple
    if spacing == "linear":
        return np.linspace(lo, hi, n)
    if lo <= 0:
        raise ConfigError(f"{where}: log grid needs lo > 0")
    return np.geomspace(lo, hi, n)


def _circuit_spec(v: dict, path: str) -> CircuitSpec:
    omega_ir = v["circuit.f_ir_ghz"] * GHZ
    # each element pair is set whole or not at all (_validate)
    if v["circuit.c_left_f"] is not None:
        c_left, l_left = v["circuit.c_left_f"], v["circuit.l_left_h"]
        left_keys = "circuit.c_left_f, circuit.l_left_h"
    else:
        c_left, l_left = design_from_impedance(v["circuit.z0_ohm"], omega_ir)
        left_keys = "circuit.z0_ohm, circuit.f_ir_ghz"
    if v["circuit.c_right_f_per_m"] is not None:
        c_r, l_r = v["circuit.c_right_f_per_m"], v["circuit.l_right_h_per_m"]
        right_keys = "circuit.c_right_f_per_m, circuit.l_right_h_per_m"
    else:
        # strip supports one full wavelength at the cutoff frequency
        velocity = v["circuit.rhtl_length_m"] * v["circuit.f_ir_ghz"] * 1e9
        c_r, l_r = rhtl_from_impedance(v["circuit.rhtl_z0_ohm"], velocity)
        right_keys = ("circuit.rhtl_z0_ohm, circuit.rhtl_length_m, "
                      "circuit.f_ir_ghz")
    # every other field is checked by the key rules and _validate
    for keys, name, value in ((left_keys, "C_l", c_left),
                              (left_keys, "L_l", l_left),
                              (right_keys, "c_r", c_r),
                              (right_keys, "l_r", l_r)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{path}: {keys} give {name} = {value}, "
                              f"which must be positive and finite")
    return CircuitSpec(
        n_left=v["circuit.n_left"],
        c_left=c_left, l_left=l_left,
        cell_pitch=v["circuit.cell_pitch_m"],
        rhtl_length=v["circuit.rhtl_length_m"],
        c_right_per_len=c_r, l_right_per_len=l_r,
        n_right=v["circuit.n_right"],
        c_end_left=v["circuit.c_end_left_f"],
        c_end_right=v["circuit.c_end_right_f"],
    )


@dataclass
class RunConfig:
    """Typed view of one config file plus its provenance hash, with the
    circuit and the grids it sets, built and checked by ``parse_config``."""

    values: dict
    sha256: str                         # of the file's UTF-8 text
    path: str
    spec: CircuitSpec
    grids: dict[str, np.ndarray]        # "renorm.g" -> the renorm.g_grid values

    def __getitem__(self, key: str):
        return self.values[key]

    def circuit_spec(self) -> CircuitSpec:
        return self.spec

    def freq_window(self) -> tuple[float, float]:
        return (self.values["modes.window_ghz_lo"] * GHZ,
                self.values["modes.window_ghz_hi"] * GHZ)

    def grid(self, name: str) -> np.ndarray:
        return self.grids[name]

    def output_name(self, name: str) -> str:
        """File name of output ``name``, behind the ``output.stem`` prefix."""
        stem = self.values["output.stem"]
        return f"{stem}_{name}" if stem else name


def check_output_names(config: RunConfig, out: Path, names) -> None:
    """Check, before any work, that the file of each output in ``names``
    fits the file-name limit of the directory ``out``, in UTF-8 bytes."""
    limit = os.pathconf(out, "PC_NAME_MAX")
    for name in names:
        size = len(config.output_name(name).encode())
        if size > limit:
            raise ConfigError(
                f"{config.path}: output.stem makes the file name of {name} "
                f"{size} bytes long, over the {limit} bytes allowed in {out}")


def parse_config(source: str | Path) -> RunConfig:
    """Parse the UTF-8 config file at ``source`` against the full key schema.

    Unknown keys, duplicate keys, malformed values and values that break
    their key's rule are ConfigErrors carrying the offending line; the
    checks across keys, the grids and the circuit follow.  Every config
    error but a window that holds no mode is raised here.
    """
    path = str(source)
    try:
        text = Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

    values = {k: default for k, (_, default, _) in _SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        kind, _, rule = _SCHEMA[key]
        where = f"{path}:{lineno}: {key}"
        value = values[key] = _parse_value(kind, val, where)
        for test, must in rule:
            if not test(value):
                subject = f"{where}:" if kind == "grid" else where
                raise ConfigError(f"{subject} {must}, got {value!r}")

    _validate(values, path)
    grids = {key.removesuffix("_grid"): _make_grid(
                 values[key], values[key.replace("_grid", "_spacing")], f"{path}: {key}")
             for key, (kind, _, _) in _SCHEMA.items() if kind == "grid"}
    spec = _circuit_spec(values, path)
    for key in ("renorm.g_grid", "phase.g_grid"):
        # the sweeps take the grid in rad/s, where close points can repeat
        if not (np.diff(grids[key.removesuffix("_grid")] * spec.omega_ir) > 0).all():
            lo, hi, n = values[key]
            raise ConfigError(f"{path}: {key} = {lo!r}, {hi!r}, {n} repeats a point "
                              f"once built in rad/s; it needs {n} distinct points")
    return RunConfig(values=values, sha256=hashlib.sha256(text.encode()).hexdigest(),
                     path=path, spec=spec, grids=grids)


def _validate(values: dict, path: str) -> None:
    # the qubit footprint lies on the strip, as footprint_weights requires
    length, extent = values["circuit.rhtl_length_m"], values["qubit.extent_m"]
    position = values["qubit.position_m"]
    if extent > length:
        raise ConfigError(f"{path}: qubit.extent_m = {extent} is longer than the "
                          f"strip, circuit.rhtl_length_m = {length}")
    if position is not None and (position < 0 or position + extent > length):
        raise ConfigError(
            f"{path}: qubit.position_m = {position} with qubit.extent_m = {extent} "
            f"puts the footprint outside the strip [0, {length}] m "
            f"(circuit.rhtl_length_m)")
    omega_ir = values["circuit.f_ir_ghz"] * GHZ
    for key in ("renorm.g_grid", "phase.g_grid", "phase.delta0_grid"):
        if not np.isfinite(max(map(abs, values[key][:2])) * omega_ir):
            raise ConfigError(f"{path}: {key} overflows in rad/s "
                              f"(its values are in units of the cutoff)")
    if values["qubit.g_ghz"] is None and values["qubit.tune_g_ghz"] is None:
        raise ConfigError(f"{path}: set qubit.g_ghz or qubit.tune_g_ghz/tune_mode_ghz")
    tune = [key for key in ("qubit.tune_g_ghz", "qubit.tune_mode_ghz")
            if values[key] is not None]
    if values["qubit.g_ghz"] is not None and tune:
        raise ConfigError(f"{path}: set qubit.g_ghz or {'/'.join(tune)}, not both")
    for first, second in (("qubit.tune_g_ghz", "qubit.tune_mode_ghz"),
                          ("circuit.c_left_f", "circuit.l_left_h"),
                          ("circuit.c_right_f_per_m", "circuit.l_right_h_per_m")):
        if (values[first] is None) != (values[second] is None):
            raise ConfigError(f"{path}: {first} and {second} go together")
    for name in ("modes.window", "disorder.band"):
        lo, hi = values[f"{name}_ghz_lo"], values[f"{name}_ghz_hi"]
        if lo > hi:
            raise ConfigError(
                f"{path}: {name}_ghz_hi must be >= {name}_ghz_lo, got "
                f"{name}_ghz_lo = {lo} and {name}_ghz_hi = {hi}")
