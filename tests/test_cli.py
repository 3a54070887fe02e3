import ast
import dataclasses
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metaline import build_matrices, cli, config, modes
from metaline.cli import _write_csv, main
from metaline.config import GHZ, ConfigError, parse_config
from conftest import SMALL


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _parse(tmp_path, text):
    """``parse_config`` of ``text``, written to a file in ``tmp_path``."""
    return parse_config(_write(tmp_path, text))


def _read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _float_rows(block):
    """The lines of ``cli._float_fields(block)`` as text; None if one is not finite."""
    return cli._float_fields(block).tobytes().replace(b"\0", b"").decode(
        "ascii").split("\n")[:-1] if np.isfinite(block).all() else None


def _stops_every_command(tmp_path, capsys, monkeypatch, text, key):
    """Every command exits 2 on the config ``text`` before any network is
    built, naming the config file and ``key``, and writes no CSV."""
    def no_work(*args, **kwargs):
        raise AssertionError("a network was built for a bad config")

    for name in ("build_matrices", "network_bands", "band_edges"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = _write(tmp_path, text)
    for command in cli._COMMANDS:
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:" in err and key in err, err
    assert not list(tmp_path.glob("*.csv"))


def _small_with(key, value):
    """SMALL with ``key = value`` in place of the line that sets the key; a
    tune key comes with its partner, in place of qubit.g_ghz."""
    partner = {"qubit.tune_g_ghz": "qubit.tune_mode_ghz = 4.579",
               "qubit.tune_mode_ghz": "qubit.tune_g_ghz = 0.46"}
    drop = (key, "qubit.g_ghz") if key in partner else (key,)
    lines = [l for l in SMALL.splitlines() if not l.startswith(drop)]
    return "\n".join(lines + [partner.get(key, ""), f"{key} = {value}\n"])


def _rad_bound() -> float:
    """The largest GHz value that stays finite in rad/s."""
    x = sys.float_info.max / GHZ
    while math.isinf(x * GHZ):
        x = math.nextafter(x, 0.0)
    while not math.isinf(math.nextafter(x, math.inf) * GHZ):
        x = math.nextafter(x, math.inf)
    return x


def _squared_bound() -> float:
    """The largest GHz value whose square stays finite in (rad/s)^2."""
    x = math.sqrt(sys.float_info.max) / GHZ
    while math.isinf((x * GHZ) * (x * GHZ)):
        x = math.nextafter(x, 0.0)
    while not math.isinf((y := math.nextafter(x, math.inf) * GHZ) * y):
        x = math.nextafter(x, math.inf)
    return x


RAD_MAX = _rad_bound()
PAST_RAD_MAX = math.nextafter(RAD_MAX, math.inf)
SQUARED_MAX = _squared_bound()
PAST_SQUARED_MAX = math.nextafter(SQUARED_MAX, math.inf)
# the window and band ends, which are squared into (rad/s)^2
SQUARED_KEYS = ("modes.window_ghz_lo", "modes.window_ghz_hi",
                "disorder.band_ghz_lo", "disorder.band_ghz_hi")
# (key, its inclusive bound or None where the bound is no valid value, the
# first value past the bound) for every _SCHEMA row whose rule bounds a number
SCHEMA_BOUNDS = [
    ("circuit.n_left", "1", "0"),
    ("circuit.n_left", str(config.MAX_CELLS), str(config.MAX_CELLS + 1)),
    ("circuit.n_right", "2", "1"),
    ("circuit.n_right", str(config.MAX_CELLS), str(config.MAX_CELLS + 1)),
    ("disorder.seeds", "1", "0"),
    ("disorder.seeds", str(config.MAX_SEEDS), str(config.MAX_SEEDS + 1)),
    ("disorder.seed0", "0", "-1"),
    ("disorder.sigma", "0.0", "-5e-324"),
    ("disorder.sigma", None, repr(1 / 3)),
    *[(key, None, "0") for key in (
        "circuit.cell_pitch_m", "circuit.z0_ohm", "circuit.f_ir_ghz",
        "circuit.c_left_f", "circuit.l_left_h", "circuit.rhtl_length_m",
        "circuit.rhtl_z0_ohm", "circuit.c_right_f_per_m", "circuit.l_right_h_per_m",
        "circuit.c_end_left_f", "circuit.c_end_right_f", "qubit.freq_ghz",
        "qubit.extent_m", "qubit.g_ghz", "qubit.tune_mode_ghz", "qubit.tune_g_ghz")],
    # the cutoff at the rad/s bound makes its grids overflow in rad/s
    ("circuit.f_ir_ghz", None, repr(PAST_RAD_MAX)),
    *[(key, repr(RAD_MAX), repr(PAST_RAD_MAX)) for key in (
        "qubit.freq_ghz", "qubit.g_ghz", "qubit.tune_mode_ghz", "qubit.tune_g_ghz",
        "qubit.target_mode_ghz")],
    # the window and band ends stop at the squared bound, far below the
    # rad/s bound
    *[(key, None, repr(PAST_RAD_MAX)) for key in ("modes.window_ghz_hi",
                                                   "disorder.band_ghz_hi")],
    *[(key, None, repr(-PAST_RAD_MAX)) for key in ("modes.window_ghz_lo",
                                                    "disorder.band_ghz_lo")],
    *[(key, repr(SQUARED_MAX), repr(PAST_SQUARED_MAX)) for key in SQUARED_KEYS[1::2]],
    *[(key, repr(-SQUARED_MAX), repr(-PAST_SQUARED_MAX)) for key in SQUARED_KEYS[::2]],
    ("dynamics.tg_grid", "0, 1, 1", "0, 1, 0"),
    ("dynamics.tg_grid", "0, 1, 10000", "0, 1, 10001"),
    ("dynamics.tg_grid", "1, 1, 3", "1.0000000000000002, 1, 3"),
    *[case for key in ("renorm.g_grid", "phase.g_grid") for case in (
        (key, "0.1, 1, 2", "0.1, 1, 1"),
        (key, "0.1, 1, 10000", "0.1, 1, 10001"),
        (key, None, "1, 1, 3"))],
    ("phase.delta0_grid", "1.1, 1.4, 1", "1.1, 1.4, 0"),
    ("phase.delta0_grid", "1.1, 1.4, 10000", "1.1, 1.4, 10001"),
    ("phase.delta0_grid", "1.4, 1.4, 3", "1.4000000000000001, 1.4, 3"),
    ("phase.delta0_grid", None, "0, 1.4, 3"),
]


class TestConfigParsing:
    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = _parse(tmp_path, SMALL)
        assert cfg["circuit.n_right"] == 60
        assert cfg["coupling.normalization"] == "dom"
        assert cfg["renorm.variant"] == "standard"
        assert cfg["qubit.position_m"] is None

    def test_ghz_conversion_happens_once(self, tmp_path):
        cfg = _parse(tmp_path, SMALL)
        lo, hi = cfg.freq_window()
        assert lo == 3.8 * GHZ and hi == 13.0 * GHZ
        np.testing.assert_allclose(cfg.circuit_spec().omega_ir, 4.0 * GHZ,
                                   rtol=1e-12)

    def test_unknown_key_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match=":2"):
            _parse(tmp_path, "circuit.n_left = 4\nbogus.key = 1\n")

    def test_duplicate_key_rejected(self, tmp_path):
        text = SMALL + "\ncircuit.n_left = 50\n"
        with pytest.raises(ConfigError, match="duplicate"):
            _parse(tmp_path, text)

    def test_malformed_value_addressed(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            _parse(tmp_path, "circuit.n_left = forty\nqubit.g_ghz = 0.2")

    def test_nonpositive_physical_value(self, tmp_path):
        with pytest.raises(ConfigError, match="must be positive"):
            _parse(tmp_path, "circuit.cell_pitch_m = -1e-4\nqubit.g_ghz = 0.2")

    # (key, bad value, what the message says); keys are checked when the
    # config is parsed, so every command stops on them
    BAD_VALUES = [
        ("modes.window_ghz_lo", "nan", "not finite"),
        ("qubit.freq_ghz", "inf", "not finite"),
        ("circuit.rhtl_length_m", "-inf", "not finite"),
        ("renorm.g_grid", "0.1, nan, 5", "not finite"),
        ("phase.delta0_grid", "0.0, 1.0, 3", "must be positive"),
        ("phase.delta0_grid", "-1.0, 1.2, 3", "must be positive"),
        ("renorm.g_grid", "0.5, 2.0, 1", "lo < hi and n >= 2"),
        ("renorm.g_grid", "0.5, 0.5, 3", "lo < hi and n >= 2"),
        ("phase.g_grid", "0.5, 2.0, 1", "lo < hi and n >= 2"),
        ("phase.g_grid", "0.5, 0.5, 3", "lo < hi and n >= 2"),
        ("modes.dom_bin_ghz", "1e-15", "unknown key 'modes.dom_bin_ghz'"),
        ("qubit.freq_ghz", "1e300", "overflows in rad/s"),
        ("phase.delta0_grid", "1.0, 1e300, 3", "overflows in rad/s"),
        ("circuit.n_right", "1", "n_right >= 2"),
        ("qubit.position_m", "0.0299", "outside the strip [0, 0.03] m"),
        ("qubit.position_m", "-1e-4", "outside the strip [0, 0.03] m"),
        ("qubit.extent_m", "0.031", "circuit.rhtl_length_m = 0.03"),
        ("circuit.z0_ohm", "1e-320", "must be positive and finite"),
        ("disorder.seed0", "-5", "disorder.seed0 must be >= 0"),
        ("disorder.band_ghz_lo", "6.0", "disorder.band_ghz_hi = 5.039"),
        ("modes.window_ghz_lo", "14.0", "modes.window_ghz_hi = 13.0"),
        ("qubit.tune_g_ghz", "0.46", "set qubit.g_ghz or"),
        ("qubit.tune_mode_ghz", "4.579", "set qubit.g_ghz or"),
        ("output.stem", "sub/run", "may hold no path separator"),
        ("output.stem", "run\0x", "may hold no path separator"),
    ]

    @pytest.mark.parametrize("key,value,message", BAD_VALUES,
                             ids=[f"{k}-{v}" for k, v, _ in BAD_VALUES])
    def test_nonfinite_value_names_key(self, tmp_path, capsys, key, value,
                                       message):
        text = "\n".join(l for l in SMALL.splitlines() if not l.startswith(key))
        cfg = _write(tmp_path, text + f"\n{key} = {value}\n")
        command = {"renorm": "renorm", "phase": "phase",
                   "disorder": "disorder"}.get(key.split(".")[0], "modes")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and message in err
        assert not list(tmp_path.glob("*.csv"))

    # (line, key) of configs that are wrong only for some commands; every
    # command stops on each when it is parsed, before any network is built
    BEFORE_ANY_WORK = [
        ("dynamics.tg_spacing = cubic", "dynamics.tg_spacing"),
        ("renorm.g_spacing = cubic", "renorm.g_spacing"),
        ("phase.delta0_spacing = cubic", "phase.delta0_spacing"),
        ("phase.g_spacing = cubic", "phase.g_spacing"),
        ("dynamics.tg_grid = 5, 1, 3", "dynamics.tg_grid"),
        ("dynamics.tg_grid = 0, 1, 0", "dynamics.tg_grid"),
        ("renorm.g_grid = 0, 1, 4", "renorm.g_grid"),      # log spacing
        ("dynamics.tg_grid = 0.0, 10.0, 10000000000000000000", "dynamics.tg_grid"),
        ("phase.delta0_grid = 1.1, 1.4, 10001", "phase.delta0_grid"),
    ]

    @pytest.mark.parametrize("line,key", BEFORE_ANY_WORK,
                             ids=[line for line, _ in BEFORE_ANY_WORK])
    def test_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, line, key):
        _stops_every_command(tmp_path, capsys, monkeypatch, SMALL + line + "\n", key)

    @pytest.mark.parametrize("key,bound,past", SCHEMA_BOUNDS,
                             ids=[f"{k}={p}" for k, _, p in SCHEMA_BOUNDS])
    def test_schema_bounds(self, tmp_path, capsys, monkeypatch, key, bound, past):
        # an inclusive bound parses; the first value past it stops every command
        if bound is not None:
            _parse(tmp_path, _small_with(key, bound))
        _stops_every_command(tmp_path, capsys, monkeypatch, _small_with(key, past), key)

    def test_schema_bounds_cover_every_numeric_rule(self):
        assert {key for key, _, _ in SCHEMA_BOUNDS} == {
            key for key, (kind, _, rule) in config._SCHEMA.items() if rule and kind != "str"}

    def test_grid_point_bound(self, tmp_path, capsys):
        # the bundled figure 3 config with a time grid numpy cannot allocate
        text = resources.files("metaline").joinpath("configs/fig3.cfg").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("dynamics.tg_grid")]
        cfg = _write(tmp_path, "\n".join(lines + [
            "dynamics.tg_grid = 0.0, 10.0, 10000000000000000000"]))
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{len(lines) + 1}: dynamics.tg_grid: grid needs n <= 10000, got " in err
        # a grid of exactly the bound still parses
        grid = _parse(tmp_path, SMALL + "renorm.g_grid = 0.1, 1.0, 10000\n").grid("renorm.g")
        assert len(grid) == config.MAX_GRID_POINTS == 10000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", SQUARED_KEYS)
    def test_squares_that_overflow_exit_2(self, tmp_path, capsys, key):
        # the bundled fig2 config with the key at 1e150 GHz (its square is
        # 3.9e319 (rad/s)^2), the upper end at 2e150 GHz where the key is
        # the lower: disorder and modes both stop naming the key
        text = resources.files("metaline").joinpath("configs/fig2.cfg").read_text()
        ends = {key: "1e150"}
        if key.endswith("_lo"):
            ends[key.replace("_lo", "_hi")] = "2e150"
        lines = [l for l in text.splitlines() if not l.startswith(tuple(ends))]
        cfg = _write(tmp_path, "\n".join(lines + [f"{k} = {v}" for k, v in ends.items()]))
        for command in ("disorder", "modes"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"{key} overflows when squared" in err, err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lo,codes", [(None, (0, 0)), ("1e143", (0, 2))],
                             ids=["window-from-3.8GHz", "window-from-1e143GHz"])
    def test_window_squares_just_below_the_bound(self, tmp_path, capsys, lo, codes):
        # the bundled fig2 config with its window's upper end at 2e144 GHz
        # (its square is 1.6e308 (rad/s)^2, just below the bound), and its
        # lower end at 1e143 GHz too: no count overflows, not dstebz's pivmin
        # guard at the top shift nor a shift above the lower end.  The window
        # from 1e143 GHz holds no mode: modes writes an empty table, and
        # disorder stops naming the window
        text = resources.files("metaline").joinpath("configs/fig2.cfg").read_text()
        ends = {"modes.window_ghz_hi": "2e144", **({"modes.window_ghz_lo": lo} if lo else {})}
        lines = [l for l in text.splitlines() if not l.startswith(tuple(ends))]
        cfg = _write(tmp_path, "\n".join(lines + [f"{k} = {v}" for k, v in ends.items()]))
        for command, code in zip(("modes", "disorder"), codes):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
        assert ("enclose no mode" in capsys.readouterr().err) == bool(lo)

    def test_disorder_band_order(self, tmp_path, capsys):
        band = "\ndisorder.band_ghz_lo = {}\ndisorder.band_ghz_hi = {}\n"
        cfg = _write(tmp_path, SMALL + band.format(6.0, 5.0))
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "disorder.band_ghz_lo = 6.0" in err
        assert "disorder.band_ghz_hi = 5.0" in err
        assert not list(tmp_path.glob("*.csv"))
        # an empty band is allowed: every seed counts no mode in it
        cfg = _write(tmp_path, SMALL + band.format(5.0, 5.0) + "disorder.seeds = 2\n")
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "disorder.csv").read_text().splitlines()[-2:]
        assert [row.split(",")[-1] for row in rows] == ["0", "0"]

    @pytest.mark.parametrize("sigma", ["0.3333333333333333", "0.34", "0.49"])
    def test_sigma_tied_to_truncation(self, tmp_path, capsys, sigma):
        cfg = _write(tmp_path, SMALL + f"\ndisorder.sigma = {sigma}\n")
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "disorder.sigma" in capsys.readouterr().err

    def test_needs_some_coupling_scale(self, tmp_path):
        text = SMALL.replace("qubit.g_ghz = 0.2", "")
        with pytest.raises(ConfigError, match="g_ghz"):
            _parse(tmp_path, text)

    def test_tune_keys_go_together(self, tmp_path):
        text = SMALL.replace("qubit.g_ghz = 0.2", "qubit.tune_g_ghz = 0.46")
        with pytest.raises(ConfigError, match="go together"):
            _parse(tmp_path, text)

    @pytest.mark.parametrize("key, other", [
        ("circuit.c_left_f", "circuit.l_left_h"),
        ("circuit.l_left_h", "circuit.c_left_f"),
        ("circuit.c_right_f_per_m", "circuit.l_right_h_per_m"),
        ("circuit.l_right_h_per_m", "circuit.c_right_f_per_m")])
    def test_element_keys_go_together(self, tmp_path, capsys, key, other):
        # one element of a pair alone would be ignored for the design values
        cfg = _write(tmp_path, SMALL + f"{key} = 5e-12\n")
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and other in err and "go together" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_seed_count_capped(self, tmp_path, capsys):
        # the cap parses; one seed more stops at parse time, before any device
        text = SMALL + f"disorder.seeds = {config.MAX_SEEDS}\n"
        assert _parse(tmp_path, text)["disorder.seeds"] == config.MAX_SEEDS
        cfg = _write(tmp_path, SMALL + f"disorder.seeds = {config.MAX_SEEDS + 1}\n")
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert (f"disorder.seeds must be <= {config.MAX_SEEDS}, got "
                f"{config.MAX_SEEDS + 1}") in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key, line", [("circuit.n_left", "circuit.n_left = 40"),
                                           ("circuit.n_right", "circuit.n_right = 60")])
    def test_cell_count_capped(self, tmp_path, capsys, monkeypatch, key, line):
        # the cap parses, with the size ladder's top rung below it; one cell
        # more stops at parse time, before any device is built
        assert config.MAX_CELLS >= 30_000
        text = SMALL.replace(line, f"{key} = {config.MAX_CELLS}")
        assert _parse(tmp_path, text)[key] == config.MAX_CELLS

        def no_device(*args):
            raise AssertionError("device built for a count over the cap")

        monkeypatch.setattr(config, "_circuit_spec", no_device)
        cfg = _write(tmp_path, SMALL.replace(line, f"{key} = {config.MAX_CELLS + 1}"))
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert (f"{key} must be <= {config.MAX_CELLS}, got "
                f"{config.MAX_CELLS + 1}") in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_grid_parsing(self, tmp_path):
        cfg = _parse(tmp_path, SMALL + "\nrenorm.g_grid = 0.1, 1.0, 5\n"
                     "renorm.g_spacing = log")
        grid = cfg.grid("renorm.g")
        assert len(grid) == 5
        np.testing.assert_allclose(grid[0], 0.1)
        np.testing.assert_allclose(grid[-1], 1.0)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("key", ["renorm.g_grid", "phase.g_grid"])
    def test_grid_that_repeats_a_point_names_key(self, tmp_path, capsys, key, spacing):
        # lo < hi by one unit in the last place: three points repeat one
        cfg = _write(tmp_path, SMALL + f"{key} = 1.0, 1.0000000000000002, 3\n"
                     f"{key.replace('_grid', '_spacing')} = {spacing}\n")
        assert main([key.split(".")[0], "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: {key} = 1.0, 1.0000000000000002, 3 repeats a point" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_literal_element_values_loadable(self, tmp_path):
        # the printed strip parameters (1667 fF/um, 4167 pH/um) stay
        # loadable even though the default derives consistent ones
        text = SMALL + ("\ncircuit.c_right_f_per_m = 1.667e-6\n"
                        "circuit.l_right_h_per_m = 4.167e-3\n")
        spec = _parse(tmp_path, text).circuit_spec()
        assert spec.c_right_per_len == 1.667e-6
        assert spec.l_right_per_len == 4.167e-3


class TestCmdModes:
    def test_writes_files_and_is_deterministic(self, tmp_path):
        cfg = _write(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["modes", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["modes", "--config", cfg, "--out", str(out2)]) == 0
        files1, files2 = _read_all(out1), _read_all(out2)
        assert set(files1) == {"modes.csv", "dom.csv", "couplings.csv"}
        assert files1 == files2

    def test_profiles_flag_adds_columns(self, tmp_path):
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "o"
        assert main(["modes", "--config", cfg, "--out", str(out),
                     "--profiles"]) == 0
        header = [l for l in (out / "modes.csv").read_text().splitlines()
                  if not l.startswith("#")][0]
        assert "phi_0" in header and "phi_100" in header

    def test_empty_window_header_only(self, tmp_path):
        text = SMALL.replace("modes.window_ghz_lo = 3.8",
                             "modes.window_ghz_lo = 1000.0")
        text = text.replace("modes.window_ghz_hi = 13.0",
                            "modes.window_ghz_hi = 1001.0")
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        for name in ("modes.csv", "dom.csv", "couplings.csv"):
            rows = [l for l in (out / name).read_text().splitlines()
                    if l and not l.startswith("#")]
            assert len(rows) == 1      # header only

    def test_provenance_comments(self, tmp_path):
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "o"
        main(["modes", "--config", cfg, "--out", str(out)])
        head = (out / "modes.csv").read_text().splitlines()[:2]
        assert head[0].startswith("# metaline")
        assert "sha256=" in head[1]


class TestCmdDynamics:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_phases_exit_3(self, tmp_path, capsys):
        # at tg = 1e300 the phases E t keep no digit, and their squares overflow
        cfg = _write(tmp_path, SMALL + "dynamics.tg_grid = 0.0, 1e300, 3\n")
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phases_without_precision_exit_3(self, tmp_path, capsys):
        # at tg = 5e15 the phases E t (about 2e17 rad) are finite, but their
        # rounding error is radians: every entropy would read 0
        cfg = _write(tmp_path, SMALL + "dynamics.tg_grid = 0.0, 1e16, 3\n")
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "lost their precision" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_tg_zero_block_is_zero(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\ndynamics.tg_grid = 0.0, 2.0, 2\n")
        out = tmp_path / "o"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
        rows = [l.split(",") for l in (out / "entropy.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("tg")]
        tg0 = [r for r in rows if float(r[0]) == 0.0]
        assert tg0 and all(float(r[3]) == 0.0 for r in tg0)

    def test_single_mode_window_no_crash(self, tmp_path):
        from metaline import build_matrices, solve_modes
        spec = _parse(tmp_path, SMALL).circuit_spec()
        ms = solve_modes(build_matrices(spec), (3.8 * GHZ, 13.0 * GHZ))
        f0 = ms.frequencies[0] / GHZ
        text = SMALL.replace("modes.window_ghz_lo = 3.8",
                             f"modes.window_ghz_lo = {f0 - 1e-4}")
        text = text.replace("modes.window_ghz_hi = 13.0",
                            f"modes.window_ghz_hi = {f0 + 1e-4}")
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
        rows = [l for l in (out / "entropy.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 11     # header + one mode per tg


    def test_thread_independence(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\ndynamics.tg_grid = 0.0, 4.0, 9\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["dynamics", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["dynamics", "--config", cfg, "--out", str(out2),
                     "--threads", "3"]) == 0
        assert _read_all(out1) == _read_all(out2)

    def test_bath_size_thread_independence(self, tmp_path, monkeypatch):
        # the bath workload's 201 tg over the fig2 device's 164 modes: 7
        # chunks of at most cli._TIME_CHUNK times, the same bytes for any pool
        text = resources.files("metaline").joinpath("configs/fig3.cfg").read_text()
        cfg = _write(tmp_path, text.replace("dynamics.tg_grid = 0.0, 10.0, 11",
                                            "dynamics.tg_grid = 0.0, 20.0, 201"))
        chunks, scan = [], cli.entropy_scan
        monkeypatch.setattr(cli, "entropy_scan",
                            lambda eig, t: chunks.append(len(t)) or scan(eig, t))
        outs = []
        for threads in (1, 2, 3):
            out = tmp_path / str(threads)
            assert main(["dynamics", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
            outs.append(_read_all(out))
        assert outs[0] == outs[1] == outs[2]
        assert cli._TIME_CHUNK == 32
        assert sorted(chunks) == 3 * [9] + 18 * [32]
        lines = outs[0]["entropy.csv"].decode().splitlines()
        assert sum(not line.startswith("#") for line in lines) == 1 + 201 * 164

    def test_one_eigendecomposition(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cfg = _write(tmp_path, SMALL + "\ndynamics.tg_grid = 0.0, 4.0, 9\n")
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", "3"]) == 0
        (h,) = calls
        modes = h[1:, 1:]       # the arrowhead's mode block is diagonal
        assert np.count_nonzero(modes - np.diag(np.diag(modes))) == 0

    @pytest.mark.parametrize("threads, n_tg, workers", [
        (1000, 5, [5]), (2, 9, [2]), (4, 1, []), (1, 9, [])])
    def test_pool_sized_by_time_grid(self, tmp_path, monkeypatch, threads,
                                     n_tg, workers):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        cfg = _write(tmp_path, SMALL + f"\ndynamics.tg_grid = 0.0, 4.0, {n_tg}\n")
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", str(threads)]) == 0
        assert sizes == workers


class TestWriteCsv:
    """The columnar writer against the one-value-at-a-time oracle."""

    COLUMNS = ["a", "b", "c", "d"]
    COMMENTS = ["metaline test", "two comment lines"]
    # "%" formats these: a subnormal, three-digit exponents, half-way ties
    PERCENT = [5e-324, 1e-300, 1e100, -9.999999999995e99, 9.999999999995,
               123456789012.5, 2.5e-7, 0.0, -0.0]

    def _both(self, tmp_path, rows, block_comments=None, columns=COLUMNS):
        _write_csv(tmp_path / "new.csv", columns, rows, self.COMMENTS,
                   block_comments)
        oracles.write_csv(tmp_path / "ref.csv", columns, rows, self.COMMENTS,
                          block_comments)
        return (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()

    def test_mixed_rows(self, tmp_path):
        # every int and float dtype, labels, and "%" values beside numpy ones
        table = cli._Table(
            np.array([0, -3, 2 ** 63 - 1, -2 ** 63]),
            np.array([1.5, -0.0, 1e300, -1e-300]),
            np.array(["delocalized", "localized", "", "z"]),
            np.array([7, 2, -128, 127], dtype=np.int8),
            np.array([2 ** 63, 0, 1, 2 ** 64 - 1], dtype=np.uint64),
            np.array([0.1, -2.5, 3e38, 1e-38], dtype=np.float32),
            np.array([5e-324, 123456789.123456789, 9.999999999995, 1.0]),
            np.array(["x", "y", "étoile", "z"]),
            np.array([99999999, 0, 10, 10000]),
            # narrow dtypes through the digit table
            np.array([0, 9, 200, 255], dtype=np.uint8),
            np.array([127, 1, 100, 0], dtype=np.int8))
        new, ref = self._both(tmp_path, table, columns=list("abcdefghijk"))
        assert new == ref
        assert (b"\n0,1.50000000000e+00,delocalized,7,9223372036854775808,"
                b"1.00000001490e-01,4.94065645841e-324,x,99999999,0,127\n") in new
        assert b",10000,255,0\n" in new

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_refused(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        block = np.ones((3, 2))
        block[2, 1] = bad
        with pytest.raises(ArithmeticError, match=rf"out.csv: column d holds {bad} at row 2"):
            _write_csv(path, self.COLUMNS, cli._Table(np.arange(3), np.ones(3), block),
                       self.COMMENTS)
        with pytest.raises(ArithmeticError, match=r"out.csv: column b holds"):
            _write_csv(path, self.COLUMNS, cli._Table(np.arange(1), np.array([bad]),
                                                      np.array(["x"]), np.ones(1)),
                       self.COMMENTS)
        assert not path.exists()

    def test_nonfinite_exits_3(self, tmp_path, capsys, monkeypatch):
        def nan_dom(omega, spec):
            return np.full(len(omega), np.nan)

        monkeypatch.setattr(cli, "dom_approx", nan_dom)
        cfg = _write(tmp_path, SMALL)
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "dom.csv: column d_approx holds nan" in capsys.readouterr().err
        # modes.csv comes before dom.csv, and is not written either
        assert not list(tmp_path.glob("*.csv"))

    def test_block_comments_and_zero_rows(self, tmp_path):
        n = np.arange(5)
        table = cli._Table(n, n / 3, np.full(5, "x"), -n)
        new, ref = self._both(tmp_path, table, {0: "first block", 3: "tg=1"})
        assert new == ref and b"# tg=1\n3," in new
        new, ref = self._both(tmp_path, cli._Table(), {0: "never written"})
        assert new == ref and new.endswith(b"a,b,c,d\n")
        table = cli._Table(np.arange(0), np.zeros((0, 2)), np.array([], dtype=str))
        new, ref = self._both(tmp_path, table, {0: "never written"})
        assert new == ref and new.endswith(b"a,b,c,d\n")

    def test_indexed_rows(self, tmp_path):
        # a row-number column beside a 2-D float block, the modes.csv layout
        block = np.array([[1.5, -2.0, 0.25], [7.0, 1e300, -1e-7], [0.0, 3.0, 1e-5],
                          [-1e-7, 4.25, 2.0]])
        for values in (block, block[[0, 2, 3], :2], block.T[:2], block[:, :0]):
            table = cli._Table(np.arange(len(values)), values)
            assert len(table) == len(values)
            assert list(table) == [(n, *row) for n, row in enumerate(values.tolist())]
            new, ref = self._both(tmp_path, table, {1: "second row"})
            assert new == ref
        # a zero-wide block is no column, wherever it stands
        table = cli._Table(block[:, :0], np.arange(4), block[:, :0], block[:, 0])
        assert list(table)[3] == (3, -1e-7)
        new, ref = self._both(tmp_path, table, {1: "second row"})
        assert new == ref and new.endswith(b"\n3,-1.00000000000e-07\n")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries(self, tmp_path, offset):
        step = cli._CHUNK_VALUES // 6
        rows = 2 * step + offset
        rng = np.random.default_rng(offset + 1)
        table = cli._Table(rng.standard_normal(rows), np.arange(rows),
                           rng.uniform(-1e3, 1e3, (rows, 3)),
                           np.where(rng.random(rows) < 0.5, "localized", "delocalized"))
        comments = {0: "row 0", step // 2: "mid chunk", step - 1: "last of chunk",
                    step: "chunk start", 2 * step: "third chunk", rows: "never"}
        new, ref = self._both(tmp_path, table, comments, columns=list("abcdef"))
        assert new == ref
        assert b"# chunk start\n" in new and b"# never" not in new

    def test_percent_fallback(self, tmp_path):
        values = np.array(self.PERCENT)
        rows = 3 * cli._CHUNK_VALUES // 4
        spread = np.resize(values, rows)
        block = np.column_stack([spread, np.roll(spread, 1), -spread])
        table = cli._Table(spread, np.arange(rows), block,
                           np.resize(np.array(["a", "b"]), rows))
        new, ref = self._both(tmp_path, table, {5: "tie"}, columns=list("abcdef"))
        assert new == ref
        assert b"\n4.94065645841e-324,0,4.94065645841e-324," in new

    def test_table_columns(self):
        with pytest.raises(TypeError):
            cli._Table(np.array([1, "x"], dtype=object))
        with pytest.raises(TypeError):
            cli._Table(np.ones((2, 2), dtype=int))
        with pytest.raises(TypeError, match="all of one length"):
            cli._Table(np.arange(3), np.ones(2))
        with pytest.raises(TypeError, match="a row holds a value"):
            cli._Table(np.ones((3, 0)))
        for bad in (np.ones((3, 2, 1)), np.array(1.0), np.array([True, False, True])):
            with pytest.raises(TypeError, match="CSV columns are"):
                cli._Table(np.arange(3), bad)
        assert len(cli._Table(np.ones((0, 0)))) == 0

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_bundled_config_outputs(self, tmp_path, monkeypatch, name):
        written = []

        def both(path, columns, rows, comments, block_comments=None):
            _write_csv(path, columns, rows, comments, block_comments)
            ref = path.with_suffix(".ref")
            oracles.write_csv(ref, columns, rows, comments, block_comments)
            written.append((path, ref))

        monkeypatch.setattr(cli, "_write_csv", both)
        ref = resources.files("metaline") / "configs" / f"{name}.cfg"
        with resources.as_file(ref) as cfg:
            for argv in (["modes", "--profiles"], ["dynamics"], ["renorm"],
                         ["phase"]):
                assert main(argv + ["--config", str(cfg), "--out",
                                    str(tmp_path)]) == 0
        assert len(written) == 7
        for path, ref in written:
            assert path.read_bytes() == ref.read_bytes(), path.name


class TestFloatRows:
    """The numpy "%.11e" formatter against the one-value-at-a-time oracle."""

    # next to powers of ten, half-way between 12-digit decimals, zeros,
    # subnormals and the two-digit exponent limit
    EDGES = [0.0, -0.0, 5e-324, 1e-300, 9.99999999999e-100, 1e-99, 1e-5, 0.5,
             9.9999999999949, 9.99999999999951, 9.999999999995, 123456789012.5,
             2.5e-7, 1e22, 1e23, 9.99999999999e99, 9.999999999995e99, 1e100]

    def test_float_edge_values(self, tmp_path):
        edges = np.array(self.EDGES)
        near = np.nextafter(edges[:, None], [-np.inf, np.inf]).ravel()
        # without the subnormal and three-digit values numpy formats the row
        assert _float_rows(np.delete(edges, [2, 3, 4, 16, 17])[None]) is not None
        for values in (edges, -edges, near, np.delete(edges, [2, 3, 4, 16, 17])):
            table = cli._Table(np.zeros(3, dtype=int), np.tile(values, (3, 1)))
            _write_csv(tmp_path / "new.csv", ["n"], table, [])
            oracles.write_csv(tmp_path / "ref.csv", ["n"], table, [])
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_float_rows_match_percent(self):
        rng = np.random.default_rng(3)
        digits = rng.integers(10 ** 11, 10 ** 12, (60, 250)).astype(float)
        blocks = [rng.standard_normal((60, 250)) * 10.0 ** rng.integers(-95, 95, (60, 250)),
                  (digits + 0.5) * 10.0 ** rng.integers(-90, 80, (60, 250)),
                  rng.uniform(-1.0, 1.0, (60, 250)).round(6)]
        for block in blocks:
            assert _float_rows(block) == [
                ",".join(oracles.csv_value(v) for v in row) for row in block.tolist()]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=30))
    def test_float_rows_any_double(self, values):
        lines = _float_rows(np.array([values, values[::-1]]))
        if lines is None:       # left to "%": non-finite or beyond 1e+-99
            big = [abs(v) for v in values if v != 0]
            assert not all(map(np.isfinite, values)) or max(big) >= 9.9e98 \
                or min(big) < 1.1e-99
        else:
            assert lines[0] == ",".join(oracles.csv_value(v) for v in values)


class TestCmdRenorm:
    def test_zero_coupling_first_row(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\nrenorm.g_grid = 0.0, 1.0, 8\n"
                     "renorm.g_spacing = linear\n")
        out = tmp_path / "o"
        assert main(["renorm", "--config", cfg, "--out", str(out)]) == 0
        first = [l for l in (out / "renorm.csv").read_text().splitlines()
                 if l and not l.startswith("#")][1].split(",")
        assert float(first[2]) == 1.0 and float(first[3]) == 1.0


class TestCmdPhase:
    def test_outputs_and_thread_independence(self, tmp_path):
        extra = ("\nphase.delta0_grid = 1.1, 1.2, 2\n"
                 "phase.g_grid = 0.05, 1.5, 10\n")
        cfg = _write(tmp_path, SMALL + extra)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["phase", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["phase", "--config", cfg, "--out", str(out2),
                     "--threads", "3"]) == 0
        assert _read_all(out1) == _read_all(out2)
        body = (out1 / "phase.csv").read_text()
        assert "delocalized" in body


@pytest.mark.parametrize("command,solves", [("modes", 1), ("dynamics", 1), ("renorm", 1),
                                            ("phase", 1), ("disorder", 0)])
def test_band_solves_per_command(tmp_path, monkeypatch, command, solves):
    # disorder counts modes on the bands (band_edges) and solves none
    calls = []
    for name in ("_closed_modes", "_dense_modes"):
        def counted(*args, solver=getattr(modes, name)):
            calls.append(solver.__name__)
            return solver(*args)
        monkeypatch.setattr(modes, name, counted)
    cfg = _write(tmp_path, SMALL + "dynamics.tg_grid = 0.0, 2.0, 3\ndisorder.seeds = 2\n"
                 "phase.delta0_grid = 1.1, 1.2, 2\nphase.g_grid = 0.05, 1.5, 10\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == solves, calls


class TestCmdDisorder:
    def test_zero_sigma_zero_spread(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\ndisorder.sigma = 0.0\n"
                     "disorder.seeds = 3\n")
        out = tmp_path / "o"
        assert main(["disorder", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "disorder.csv").read_text()
        for line in text.splitlines():
            if "summary" in line:
                assert float(line.split("std=")[1].split()[0]) == 0.0

    def test_single_seed_summary_equals_sample(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\ndisorder.sigma = 0.02\n"
                     "disorder.seeds = 1\n")
        out = tmp_path / "o"
        assert main(["disorder", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "disorder.csv").read_text().splitlines()
        edge_summary = [l for l in lines if "summary edge_ghz" in l][0]
        mean = float(edge_summary.split("mean=")[1].split()[0])
        row = [l for l in lines if l and not l.startswith("#")][1]
        assert abs(float(row.split(",")[1]) - mean) < 1e-15


    def test_thread_independence(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "\ndisorder.seeds = 4\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["disorder", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["disorder", "--config", cfg, "--out", str(out2),
                     "--threads", "3"]) == 0
        assert _read_all(out1) == _read_all(out2)

    def test_empty_window_for_some_seeds_exits_2(self, tmp_path, capsys):
        from metaline import apply_disorder, build_matrices, solve_modes
        spec = _parse(tmp_path, SMALL).circuit_spec()
        edges = {seed: solve_modes(build_matrices(apply_disorder(spec, 0.02, seed)),
                                   (3.8 * GHZ, 13.0 * GHZ)).frequencies[0] / GHZ
                 for seed in (1, 2, 3)}
        lowest = min(edges, key=edges.get)
        # only the seed with the lowest edge keeps a mode in the window
        text = SMALL.replace("modes.window_ghz_hi = 13.0",
                             f"modes.window_ghz_hi = {float(edges[lowest]) * (1 + 1e-9)!r}")
        cfg = _write(tmp_path, text + "\ndisorder.sigma = 0.02\n"
                     "disorder.seeds = 3\ndisorder.seed0 = 1\n")
        out = tmp_path / "o"
        assert main(["disorder", "--config", cfg, "--out", str(out)]) == 2
        others = ", ".join(str(s) for s in sorted(edges) if s != lowest)
        err = capsys.readouterr().err
        assert f"seeds {others}\n" in err
        assert "modes.window_ghz_lo = 3.8" in err and "modes.window_ghz_hi" in err
        assert not (out / "disorder.csv").exists()


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "nonsense.key = 1\n")
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["modes", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        # a Latin-1 byte in a comment of an otherwise valid config
        path = tmp_path / "latin1.cfg"
        path.write_bytes(SMALL.encode() + b"# r\xe9sonateur\n")
        assert main(["modes", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"metaline: config error: cannot read config {path}: ")
        assert "can't decode byte 0xe9" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_errors_raised_only_when_parsing(self):
        # a ConfigError is built only in config.py, outside RunConfig, and in
        # cli._no_mode, the one check that needs the spectrum
        places = []

        def visit(node, name, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call) and "ConfigError" in (
                        getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                    places.append((name, scope))
                named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
                visit(child, name, scope + (child.name,) if named else scope)

        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path.name, ())
        assert ("cli.py", ("_no_mode",)) in places
        for name, scope in places:
            assert (name == "config.py" and "RunConfig" not in scope
                    or (name, scope) == ("cli.py", ("_no_mode",))), (name, scope)

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        # a capacitance matrix that is not positive definite fails the solve
        def negated(spec):
            mat = build_matrices(spec)
            return dataclasses.replace(mat, bands=dataclasses.replace(
                mat.bands, c_diag=-mat.bands.c_diag, c_off=-mat.bands.c_off))

        monkeypatch.setattr(cli, "build_matrices", negated)
        cfg = _write(tmp_path, SMALL)
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command", ["dynamics", "renorm", "phase", "disorder"])
    def test_empty_window_exits_2(self, tmp_path, capsys, command):
        text = SMALL.replace("modes.window_ghz_lo = 3.8", "modes.window_ghz_lo = 900")
        cfg = _write(tmp_path, text.replace("modes.window_ghz_hi = 13.0",
                                            "modes.window_ghz_hi = 901"))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: modes.window_ghz_lo = 900.0" in err
        assert "modes.window_ghz_hi = 901.0" in err

    def test_failed_command_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        # the coupling step fails after the modes and the DOM are computed
        def fail(*args):
            raise ValueError("coupling failed")

        monkeypatch.setattr(cli, "coupling_spectrum", fail)
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "o"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 3
        assert "numerical failure: coupling failed" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        # there is none: an explicit value wins, the default is the CPU count,
        # and METALINE_THREADS, even one that is no integer, is ignored
        monkeypatch.setenv("METALINE_THREADS", "abc")
        cfg = _write(tmp_path, SMALL)
        assert main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 0
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "dynamics", lambda config, threads: (
            seen.append(threads) or [(["tg"], cli._Table(), [], None)]))
        for cpus, flag in ((5, ["--threads", "2"]), (5, []), (None, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert main(["dynamics", "--config", cfg, "--out", str(tmp_path)] + flag) == 0
        assert seen == [2, 5, 1]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, SMALL)
        with pytest.raises(SystemExit) as exit_:
            main(["dynamics", "--config", cfg, "--out", str(tmp_path),
                  "--threads", value])
        assert exit_.value.code == 2
        assert f"--threads: expected an integer >= 1, got '{value}'" \
            in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_long_stem_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a network was built for a bad config")

        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        path = tmp_path / "run.cfg"
        # <stem>_couplings.csv at the limit is a file name the directory takes
        path.write_text(SMALL + f"output.stem = {'x' * (limit - len('_couplings.csv'))}\n")
        cfg = parse_config(path)
        config.check_output_names(cfg, tmp_path, ["couplings.csv"])
        (tmp_path / cfg.output_name("couplings.csv")).touch()
        for name in ("build_matrices", "network_bands", "band_edges"):
            monkeypatch.setattr(cli, name, no_work)
        # one byte over for each command's first file, also in two-byte
        # UTF-8 letters (fewer characters than the limit)
        for command, names in cli._OUTPUTS.items():
            room = limit - len(names[0])
            for stem in ("x" * room, "\u00e9" * (room // 2) + "x" * (room % 2)):
                path.write_text(SMALL + f"output.stem = {stem}\n", encoding="utf-8")
                assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
                assert (f"{path}: output.stem makes the file name of {names[0]} "
                        f"{limit + 1} bytes long") in capsys.readouterr().err
        assert [p.name for p in tmp_path.glob("*.csv")] == [cfg.output_name("couplings.csv")]

    def test_outputs_list_what_each_command_writes(self, tmp_path):
        cfg = _write(tmp_path, SMALL + "output.stem = run\ndisorder.seeds = 2\n")
        assert cli._OUTPUTS.keys() == cli._COMMANDS.keys()
        for command, names in cli._OUTPUTS.items():
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(f"run_{n}" for n in names)

    def test_bundled_configs_parse(self):
        from importlib import resources
        for name in ("fig2", "fig3", "fig4", "fig5"):
            ref = resources.files("metaline") / "configs" / f"{name}.cfg"
            with resources.as_file(ref) as path:
                cfg = parse_config(path)
            assert cfg.circuit_spec().n_left == 200
