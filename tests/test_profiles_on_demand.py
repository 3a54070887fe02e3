"""Closed-form mode sets that hold their modes as shots and form no n x m
array: their rows against the profiles formed in full, their sign rule,
order and antinodes against the rules applied to those profiles, the
formed profiles against modes refined in long double, the health gate
that takes the Loewdin step's place, and the memory of a ``phase`` run at
n_left = 5000.
"""

import tracemalloc
from importlib import resources

import numpy as np
import pytest

import metaline.modes as modes
from metaline import build_matrices, find_current_antinode, solve_modes
from metaline.cli import main
from metaline.config import parse_config
from conftest import WINDOW, _dense, _random_specs
from oracles import refined_pencil_modes

FIGURES = ["fig2", "fig3", "fig4", "fig5"]


def _config_path(name):
    return resources.files("metaline") / "configs" / f"{name}.cfg"


def _devices():
    """(spec, window) of the bundled figures and of 60 random two-segment
    devices (every third with no window)."""
    for name in FIGURES:
        cfg = parse_config(_config_path(name))
        yield cfg.circuit_spec(), cfg.freq_window()
    for i, spec in enumerate(_random_specs(np.random.default_rng(5), 60)):
        yield spec, WINDOW if i % 3 else None


@pytest.fixture(scope="module")
def solved():
    out = []
    for spec, window in _devices():
        mat = build_matrices(spec)
        out.append((window, mat, solve_modes(mat, window)))
    return out


def test_signs_and_order_match_eager(solved):
    """The rules the dense path applies to its formed profiles hold on the
    closed form's: the sign rule leaves every column as it is, the order
    is by frequency with ties by ``_column_sign_changes``, and the
    frequencies are dense eigh's."""
    for window, mat, ms in solved:
        assert ms._closed is not None
        vecs, iface = ms.profiles, mat.interface_index
        assert (modes._interface_signs(vecs[iface], vecs[iface:]) == 1.0).all()
        order = np.lexsort((modes._column_sign_changes(vecs), ms.frequencies))
        np.testing.assert_array_equal(order, np.arange(len(ms)))
        omega, _ = _dense(mat, window)
        assert len(omega) == len(ms)
        np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-10, atol=0)


def test_rows_match_profiles(solved):
    for _, mat, ms in solved:
        if not len(ms):
            continue
        rows = ms.rows(np.arange(mat.dim))
        scale = np.abs(ms.profiles).max(axis=0)
        assert (np.abs(rows - ms.profiles).max(axis=0) <= 1e-12 * scale).all()
        # a subset of rows and columns, and a slice, are those entries
        cols = np.arange(0, len(ms), 3)
        np.testing.assert_array_equal(ms.rows([0, mat.interface_index, mat.dim - 1], cols),
                                      rows[[0, mat.interface_index, mat.dim - 1]][:, cols])
        np.testing.assert_array_equal(ms.rows(slice(mat.interface_index, None)),
                                      rows[mat.interface_index:])
        # nodes of their own per mode, on either segment, as the health gate
        # takes them
        nodes = np.random.default_rng(0).integers(0, mat.dim, (5, len(ms)))
        np.testing.assert_array_equal(ms._closed.rows(nodes),
                                      rows[nodes, np.arange(len(ms))])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the refinement needs an extended-precision long double")
def test_profiles_match_refined_modes():
    """The formed profiles of the bundled devices lie within 2.5e-13 of
    each column's largest entry of the modes refined from them in long
    double (1.6e-13 on fig2)."""
    for name in FIGURES:
        cfg = parse_config(_config_path(name))
        mat = build_matrices(cfg.circuit_spec())
        vecs = solve_modes(mat, cfg.freq_window()).profiles
        _, refined = refined_pencil_modes(mat.bands, vecs)
        # inverse iteration may turn a column's sign
        refined = (refined * np.sign(np.sum(refined * vecs, axis=0))).astype(float)
        scale = np.abs(refined).max(axis=0)
        assert (np.abs(vecs - refined).max(axis=0) <= 2.5e-13 * scale).all(), name


def test_antinodes_match_eager():
    """The strip current antinode of every window mode of the bundled
    devices (the bath workload's device too, whatever mode its qubit
    targets) from the shots and from the formed profiles."""
    for name in FIGURES:
        cfg = parse_config(_config_path(name))
        spec = cfg.circuit_spec()
        ms = solve_modes(build_matrices(spec), cfg.freq_window())
        formed = modes.ModeSet(frequencies=ms.frequencies, profiles=ms.profiles,
                               node_positions=ms.node_positions,
                               interface_index=ms.interface_index)
        for n in range(len(ms)):
            assert find_current_antinode(ms, spec, n) == find_current_antinode(formed, spec, n)


def test_pushed_eigenvalue_exits_3(tmp_path, monkeypatch):
    """An eigenvalue 1e6 ulps off its root (1.1e-10 relative) leaves the
    band-edge mode's profile further from its eigenvector than the health
    gate allows, though one Loewdin step would still make the window
    C-orthonormal."""
    solve = modes._closed_eigenvalues

    def pushed(*args):
        lam = solve(*args).copy()
        lam[0] += 1e6 * np.spacing(lam[0])
        return lam

    monkeypatch.setattr(modes, "_closed_eigenvalues", pushed)
    assert main(["dynamics", "--config", str(_config_path("fig2")), "--out",
                 str(tmp_path)]) == 3
    assert not list(tmp_path.glob("*.csv"))


def test_phase_at_scale_forms_no_profiles(tmp_path):
    """``phase`` on the fig5 device at n_left = 5000, n_right = 7500 (dim
    12 501, 4009 window modes) traces less memory at its peak than one n
    x m float64 array holds."""
    text = _config_path("fig5").read_text()
    text = text.replace("circuit.n_left = 200", "circuit.n_left = 5000")
    text = text.replace("circuit.n_right = 300", "circuit.n_right = 7500")
    cfg = tmp_path / "fig5_5000.cfg"
    cfg.write_text(text)
    config = parse_config(cfg)
    window_modes = len(solve_modes(build_matrices(config.circuit_spec()), config.freq_window()))
    assert window_modes == 4009
    tracemalloc.start()
    try:
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_501 * window_modes * 8
