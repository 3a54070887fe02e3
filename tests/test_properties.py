"""Property test of the command line over random small configs.

All five commands run on each config.  Every run either succeeds with
finite CSVs or stops with exit code 2 (config error, the message naming
a config key) or 3 (numerical failure) and a message; it never raises.
Values are drawn inside their valid ranges, with up to two keys out of
range.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from metaline.cli import main
from metaline.config import _SCHEMA

BAD_FLOATS = st.sampled_from(
    ["0", "-1.5", "1e-300", "1e300", "nan", "inf", "-inf"])
LABELS = {"localized", "delocalized"}
COMMANDS = ["modes", "dynamics", "renorm", "phase", "disorder"]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _grid(lo, hi, n_min, n_max):
    """'lo, hi, n' with lo in [lo, hi) and hi up to twice as far."""
    return st.tuples(st.floats(lo, hi), st.floats(0.01, hi - lo),
                     st.integers(n_min, n_max)).map(
        lambda t: f"{t[0]!r}, {t[0] + t[1]!r}, {t[2]}")


# in-range values: small devices around the bundled figure parameters
GOOD = {
    "circuit.n_left": st.integers(1, 30).map(str),
    "circuit.n_right": st.integers(1, 40).map(str),
    "circuit.cell_pitch_m": _floats(50e-6, 200e-6),
    "circuit.z0_ohm": _floats(20.0, 100.0),
    "circuit.f_ir_ghz": _floats(2.0, 6.0),
    "circuit.rhtl_length_m": _floats(0.01, 0.05),
    "circuit.rhtl_z0_ohm": _floats(20.0, 100.0),
    "qubit.freq_ghz": _floats(2.0, 9.0),
    "qubit.extent_m": _floats(1e-4, 2e-3),
    "qubit.g_ghz": _floats(0.01, 1.0),
    "qubit.target_mode_ghz": _floats(3.0, 14.0),
    "modes.window_ghz_lo": _floats(0.0, 6.0),
    "modes.window_ghz_hi": _floats(6.0, 20.0),
    "coupling.normalization": st.sampled_from(["dom", "spatial"]),
    "renorm.variant": st.sampled_from(["standard", "literal"]),
    "dynamics.tg_grid": _grid(0.0, 20.0, 1, 5),
    "renorm.g_grid": _grid(0.01, 3.0, 2, 30),
    "phase.g_grid": _grid(0.01, 3.0, 2, 12),
    "phase.delta0_grid": _grid(0.5, 2.0, 1, 4),
    "disorder.sigma": _floats(0.0, 0.3),
    "disorder.seeds": st.integers(1, 3).map(str),
}

# out-of-range values for some of the keys
BAD = {
    "circuit.n_left": st.integers(-2, 0).map(str),
    "circuit.n_right": st.sampled_from(["0", "-1", "2.5"]),
    "circuit.cell_pitch_m": BAD_FLOATS,
    "circuit.z0_ohm": BAD_FLOATS,
    "circuit.f_ir_ghz": BAD_FLOATS,
    "circuit.rhtl_length_m": BAD_FLOATS,
    "qubit.freq_ghz": BAD_FLOATS,
    "qubit.extent_m": BAD_FLOATS,
    "qubit.g_ghz": BAD_FLOATS,
    "qubit.target_mode_ghz": BAD_FLOATS,
    "modes.window_ghz_lo": BAD_FLOATS,
    "modes.window_ghz_hi": BAD_FLOATS,
    "coupling.normalization": st.just("flat"),
    "renorm.variant": st.just("quartic"),
    "dynamics.tg_grid": st.sampled_from(["5, 1, 3", "0, nan, 2", "0, 1, 0"]),
    "renorm.g_grid": st.sampled_from(
        ["0.5, 0.5, 3", "0, 1, 4", "1, 2", "1, 1e300, 3", "1.0, 1.0000000000000002, 3"]),
    "phase.g_grid": st.sampled_from(["0.5, 2, 1", "-1, 1, 4", "1e-300, 1e300, 3",
                                     "1.0, 1.0000000000000002, 3"]),
    "phase.delta0_grid": st.sampled_from(["0, 1, 3", "-1, 1.2, 2", "1, 1e300, 2"]),
    "disorder.sigma": st.sampled_from(["-0.01", "0.34", "nan"]),
    "disorder.seeds": st.sampled_from(["0", "-3"]),
    "disorder.seed0": st.sampled_from(["-1", "-50"]),
    "dynamics.tg_spacing": st.just("cubic"),
    "renorm.g_spacing": st.just("cubic"),
    "phase.delta0_spacing": st.just("cubic"),
    "phase.g_spacing": st.just("cubic"),
    "output.stem": st.sampled_from(["sub/run", "run\0x"]),
}


@st.composite
def configs(draw):
    """An in-range config with up to two keys set out of range."""
    values = draw(st.fixed_dictionaries(GOOD))
    for key in draw(st.lists(st.sampled_from(sorted(BAD)), max_size=2)):
        values[key] = draw(BAD[key])
    return values


def _check_csv(path: Path) -> None:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    for line in lines[1:]:
        for field in line.split(","):
            if field in LABELS:
                continue
            assert math.isfinite(float(field)), f"{path.name}: {line}"


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(values=configs(), profiles=st.booleans())
def test_cli_exits_cleanly_on_random_configs(values, profiles):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        for command in COMMANDS:
            out = Path(tmp) / command
            argv = [command, "--config", str(cfg), "--out", str(out),
                    "--threads", "1"] + (["--profiles"] if profiles else [])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                for path in sorted(out.glob("*.csv")):
                    _check_csv(path)
            else:
                assert code in (2, 3), (command, code)
                message = err.getvalue()
                assert message.startswith("metaline: ") and message[10:].strip()
                if code == 2:
                    assert any(key in message for key in _SCHEMA), message
