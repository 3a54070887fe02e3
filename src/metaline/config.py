"""Flat key-value run configuration.

One ``section.key = value`` assignment per line, ``#`` comments, no
nesting.  Frequencies are written in GHz in the file and kept in GHz in
``RunConfig.values``; each becomes angular rad/s (x ``GHZ`` = 2 pi 1e9)
where it is used: in ``RunConfig.circuit_spec``, ``RunConfig.freq_window``
and the commands in ``cli``.
Grids are written as ``lo, hi, n`` triples with the spacing named by the
``*_spacing`` key next to them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuit import MAX_SIGMA, CircuitSpec, design_from_impedance, rhtl_from_impedance

GHZ = 2.0 * np.pi * 1e9


class ConfigError(ValueError):
    """Malformed or physically invalid run configuration."""


# key -> (type tag, default); frequencies carry the _ghz suffix in-file
_SCHEMA: dict[str, tuple[str, object]] = {
    "circuit.n_left": ("int", 200),
    "circuit.cell_pitch_m": ("float", 100e-6),
    "circuit.z0_ohm": ("float", 50.0),
    "circuit.f_ir_ghz": ("float", 4.0),
    "circuit.c_left_f": ("float", None),
    "circuit.l_left_h": ("float", None),
    "circuit.rhtl_length_m": ("float", 0.03),
    "circuit.rhtl_z0_ohm": ("float", 50.0),
    "circuit.c_right_f_per_m": ("float", None),
    "circuit.l_right_h_per_m": ("float", None),
    "circuit.n_right": ("int", 300),
    "circuit.c_end_left_f": ("float", None),
    "circuit.c_end_right_f": ("float", None),
    "qubit.freq_ghz": ("float", 4.2),
    "qubit.extent_m": ("float", 0.5e-3),
    "qubit.position_m": ("float", None),        # None -> antinode placement
    "qubit.g_ghz": ("float", None),
    "qubit.tune_mode_ghz": ("float", None),
    "qubit.tune_g_ghz": ("float", None),
    "qubit.target_mode_ghz": ("float", 4.579),
    "modes.window_ghz_lo": ("float", 3.8),
    "modes.window_ghz_hi": ("float", 13.0),
    "coupling.normalization": ("str", "dom"),
    "dynamics.tg_grid": ("grid", (0.0, 10.0, 11)),
    "dynamics.tg_spacing": ("str", "linear"),
    "renorm.variant": ("str", "standard"),
    "renorm.g_grid": ("grid", (0.01, 2.0, 60)),  # units of omega_ir
    "renorm.g_spacing": ("str", "log"),
    "phase.delta0_grid": ("grid", (1.1, 1.4, 4)),  # units of omega_ir
    "phase.delta0_spacing": ("str", "linear"),
    "phase.g_grid": ("grid", (0.05, 2.0, 40)),
    "phase.g_spacing": ("str", "log"),
    "disorder.sigma": ("float", 0.02),
    "disorder.seeds": ("int", 50),
    "disorder.seed0": ("int", 1),
    "disorder.band_ghz_lo": ("float", 4.119),
    "disorder.band_ghz_hi": ("float", 5.039),
    "output.stem": ("str", ""),
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
        if kind == "grid":
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError("expected 'lo, hi, n'")
            return (_finite(parts[0]), _finite(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {kind} value {text!r} ({exc})") from None
    raise ConfigError(f"{where}: unknown value kind {kind}")


def _make_grid(triple: tuple[float, float, int], spacing: str, where: str) -> np.ndarray:
    lo, hi, n = triple
    if n < 1 or hi < lo:
        raise ConfigError(f"{where}: grid needs lo <= hi and n >= 1")
    if spacing == "log":
        if lo <= 0:
            raise ConfigError(f"{where}: log grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    if spacing == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError(f"{where}: unknown spacing {spacing!r}")


@dataclass
class RunConfig:
    """Typed view of one config file plus its provenance hash."""

    values: dict
    text: str
    path: str = ""
    sha256: str = field(init=False)

    def __post_init__(self):
        self.sha256 = hashlib.sha256(self.text.encode()).hexdigest()

    def __getitem__(self, key: str):
        return self.values[key]

    # -- derived physical objects ------------------------------------

    def circuit_spec(self) -> CircuitSpec:
        v = self.values
        omega_ir = v["circuit.f_ir_ghz"] * GHZ
        if v["circuit.c_left_f"] is not None and v["circuit.l_left_h"] is not None:
            c_left, l_left = v["circuit.c_left_f"], v["circuit.l_left_h"]
            left_keys = "circuit.c_left_f, circuit.l_left_h"
        else:
            c_left, l_left = design_from_impedance(v["circuit.z0_ohm"], omega_ir)
            left_keys = "circuit.z0_ohm, circuit.f_ir_ghz"
        if v["circuit.c_right_f_per_m"] is not None and v["circuit.l_right_h_per_m"] is not None:
            c_r, l_r = v["circuit.c_right_f_per_m"], v["circuit.l_right_h_per_m"]
            right_keys = "circuit.c_right_f_per_m, circuit.l_right_h_per_m"
        else:
            # strip supports one full wavelength at the cutoff frequency
            velocity = v["circuit.rhtl_length_m"] * v["circuit.f_ir_ghz"] * 1e9
            c_r, l_r = rhtl_from_impedance(v["circuit.rhtl_z0_ohm"], velocity)
            right_keys = ("circuit.rhtl_z0_ohm, circuit.rhtl_length_m, "
                          "circuit.f_ir_ghz")
        # every other field is checked when the config is parsed
        for keys, name, value in ((left_keys, "C_l", c_left),
                                  (left_keys, "L_l", l_left),
                                  (right_keys, "c_r", c_r),
                                  (right_keys, "l_r", l_r)):
            if not 0 < value < np.inf:
                raise ConfigError(f"{self.path}: {keys} give {name} = {value}, "
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

    def freq_window(self) -> tuple[float, float]:
        lo = self.values["modes.window_ghz_lo"] * GHZ
        hi = self.values["modes.window_ghz_hi"] * GHZ
        if hi < lo:
            raise ConfigError("modes.window_ghz_hi must be >= modes.window_ghz_lo")
        return lo, hi

    def grid(self, name: str) -> np.ndarray:
        triple = self.values[f"{name}_grid"]
        spacing = self.values[f"{name}_spacing"]
        return _make_grid(triple, spacing, f"{name}_grid")


def parse_config(source: str | Path, is_text: bool = False) -> RunConfig:
    """Parse a config file (or literal text) against the full key schema.

    Unknown keys, duplicate keys, malformed values and non-positive
    physical quantities are ConfigErrors carrying the offending line.
    """
    if is_text:
        text, path = str(source), "<text>"
    else:
        path = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None

    values = {k: default for k, (_, default) in _SCHEMA.items()}
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
        kind, _ = _SCHEMA[key]
        values[key] = _parse_value(kind, val, f"{path}:{lineno}: {key}")

    _validate(values, path)
    return RunConfig(values=values, text=text, path=path)


_POSITIVE = [
    "circuit.n_left", "circuit.cell_pitch_m", "circuit.z0_ohm",
    "circuit.f_ir_ghz", "circuit.rhtl_length_m", "circuit.rhtl_z0_ohm",
    "circuit.n_right", "qubit.freq_ghz", "qubit.extent_m", "disorder.seeds",
]


def _validate(values: dict, path: str) -> None:
    for key in _POSITIVE:
        if not values[key] > 0:
            raise ConfigError(f"{path}: {key} must be positive, got {values[key]}")
    if values["circuit.n_right"] < 2:
        raise ConfigError(f"{path}: circuit.n_right must satisfy n_right >= 2 "
                          f"(two strip cells), got {values['circuit.n_right']}")
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
    for key in ("circuit.c_left_f", "circuit.l_left_h", "circuit.c_right_f_per_m",
                "circuit.l_right_h_per_m", "circuit.c_end_left_f",
                "circuit.c_end_right_f", "qubit.g_ghz", "qubit.tune_mode_ghz",
                "qubit.tune_g_ghz"):
        val = values[key]
        if val is not None and not val > 0:
            raise ConfigError(f"{path}: {key} must be positive, got {val}")
    for key, val in values.items():
        if "_ghz" in key and val is not None and not np.isfinite(val * GHZ):
            raise ConfigError(f"{path}: {key} = {val} overflows in rad/s")
    omega_ir = values["circuit.f_ir_ghz"] * GHZ
    for key in ("renorm.g_grid", "phase.g_grid", "phase.delta0_grid"):
        if not np.isfinite(max(map(abs, values[key][:2])) * omega_ir):
            raise ConfigError(f"{path}: {key} overflows in rad/s "
                              f"(its values are in units of the cutoff)")
    if values["coupling.normalization"] not in ("dom", "spatial"):
        raise ConfigError(f"{path}: coupling.normalization must be 'dom' or 'spatial'")
    if values["renorm.variant"] not in ("standard", "literal"):
        raise ConfigError(f"{path}: renorm.variant must be 'standard' or 'literal'")
    if values["qubit.g_ghz"] is None and values["qubit.tune_g_ghz"] is None:
        raise ConfigError(f"{path}: set qubit.g_ghz or qubit.tune_g_ghz/tune_mode_ghz")
    if (values["qubit.tune_g_ghz"] is None) != (values["qubit.tune_mode_ghz"] is None):
        raise ConfigError(
            f"{path}: qubit.tune_g_ghz and qubit.tune_mode_ghz go together")
    for key in ("renorm.g_grid", "phase.g_grid"):
        lo, hi, n = values[key]
        if n < 2 or not lo < hi:
            raise ConfigError(
                f"{path}: {key} needs lo < hi and n >= 2, got {lo}, {hi}, {n}")
    lo, hi, _ = values["phase.delta0_grid"]
    if not (lo > 0 and hi > 0):
        raise ConfigError(
            f"{path}: phase.delta0_grid must be positive, got {lo}, {hi}")
    if values["disorder.seed0"] < 0:
        raise ConfigError(f"{path}: disorder.seed0 must be >= 0 (seeds seed the "
                          f"random generator), got {values['disorder.seed0']}")
    if values["disorder.band_ghz_lo"] > values["disorder.band_ghz_hi"]:
        raise ConfigError(
            f"{path}: disorder.band_ghz_hi must be >= disorder.band_ghz_lo, got "
            f"disorder.band_ghz_lo = {values['disorder.band_ghz_lo']} and "
            f"disorder.band_ghz_hi = {values['disorder.band_ghz_hi']}")
    if not 0 <= values["disorder.sigma"] < MAX_SIGMA:
        raise ConfigError(
            f"{path}: disorder.sigma must lie in [0, 1/3), since elements are "
            f"scattered by up to 3 sigma, got {values['disorder.sigma']}")
