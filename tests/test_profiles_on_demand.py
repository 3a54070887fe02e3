"""Closed-form mode sets that hold their modes as shots and form no n x m
array: their rows against the profiles formed in full, their sign rule,
order and antinodes against the rules applied to those profiles, the
health gate that takes the Loewdin step's place, and the memory of a
``phase`` run at n_left = 5000.
"""

import tracemalloc
from importlib import resources

import numpy as np
import pytest

import metaline.closedform as closedform
import metaline.modes as modes
from metaline import build_matrices, find_current_antinode, solve_modes
from metaline.cli import main
from metaline.config import parse_config
from conftest import WINDOW, _random_specs

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


def _eager(mat, ms):
    """(frequencies, profiles) by the rules the dense path applies to
    formed profiles: ``closedform._closed_vectors`` at the eigenvalues in
    count order, the sign rule on them, and the order by frequency with
    ties broken by ``_column_sign_changes``."""
    closed = ms._closed
    lam = closed.lam[np.argsort(closed.index)]
    vecs = closedform._closed_vectors(
        mat.bands, modes._two_segments(mat.bands, mat.interface_index), lam)
    vecs = vecs * modes._interface_signs(vecs[mat.interface_index], vecs[mat.interface_index:])
    order = np.lexsort((modes._column_sign_changes(vecs), np.sqrt(lam)))
    return np.sqrt(lam)[order], vecs[:, order]


@pytest.fixture(scope="module")
def solved():
    out = []
    for spec, window in _devices():
        mat = build_matrices(spec)
        out.append((spec, mat, solve_modes(mat, window)))
    return out


def test_signs_and_order_match_eager(solved):
    for _, mat, ms in solved:
        assert ms.closed_form
        omega, vecs = _eager(mat, ms)
        np.testing.assert_array_equal(ms.frequencies, omega)
        np.testing.assert_array_equal(ms.profiles, vecs)


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
