"""Shared devices, solver-path fixtures, the dense-eigh comparison and the
checks that more than one test module runs.

``solve_modes`` has two paths: the closed form, which two-segment devices
(a uniform ladder joined to a uniform strip) outside ``_DENSE_DIMS``
take, and dense ``eigh``, which every other network takes.  The
``closed_path`` fixture empties ``_DENSE_DIMS``, so a two-segment device
of the spectrum size takes the closed form too; ``dense_path`` sends
every network to dense ``eigh``.  The devices that more than one test
reads (the size ladder's dim-5001 rung, a fresh process's scipy imports)
are built once per session.
"""
import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import metaline.modes
from metaline import (CircuitSpec, NetworkBands, NetworkMatrices, QubitSpec,
                      build_matrices, coupling_spectrum, design_from_impedance,
                      footprint_at_antinode, rhtl_from_impedance, solve_modes)
from oracles import mp_pencil_eigenvalue, refined_pencil_modes

TWO_PI = 2.0 * np.pi
OMEGA_IR = TWO_PI * 4e9
WINDOW = (TWO_PI * 3.8e9, TWO_PI * 13e9)
ULTRASTRONG_BAND = (TWO_PI * 4.119e9, TWO_PI * 5.039e9)
# a dim-101 command-line device: every command runs on it in well under a second
SMALL = """
circuit.n_left = 40
circuit.cell_pitch_m = 100e-6
circuit.z0_ohm = 50
circuit.f_ir_ghz = 4.0
circuit.rhtl_length_m = 0.03
circuit.rhtl_z0_ohm = 50
circuit.n_right = 60
modes.window_ghz_lo = 3.8
modes.window_ghz_hi = 13.0
qubit.freq_ghz = 4.2
qubit.extent_m = 0.5e-3
qubit.g_ghz = 0.2
"""
# a closed-form residual is at most this many times the largest residual
# of the solve's modes refined in long double and rounded to double (the
# rounding floor); the largest ratio seen is 23, at the top mode of the
# reference device solved with no window
RESIDUAL_FACTOR = 32
EPS = np.finfo(float).eps


def make_band_edge_spec(n_left=200, n_right=300) -> CircuitSpec:
    """The reference device: 50 ohm cells, 4 GHz cutoff, 3 cm full-wave strip."""
    c_l, l_l = design_from_impedance(50.0, OMEGA_IR)
    c_r, l_r = rhtl_from_impedance(50.0, 0.03 * 4e9)
    return CircuitSpec(n_left=n_left, c_left=c_l, l_left=l_l,
                       cell_pitch=100e-6, rhtl_length=0.03,
                       c_right_per_len=c_r, l_right_per_len=l_r,
                       n_right=n_right)


def _random_specs(rng, devices):
    """Devices of 1-60 ladder cells and 2-90 strip cells, every second
    one with end caps."""
    for device in range(devices):
        spec = make_band_edge_spec(int(rng.integers(1, 61)), int(rng.integers(2, 91)))
        if device % 2:
            spec = dataclasses.replace(
                spec, c_end_left=spec.c_left * rng.uniform(0.1, 3.0),
                c_end_right=spec.c_left * rng.uniform(0.1, 3.0))
        yield spec


def wrap_dense(cap, inv_ind, node_positions, interface_index=0) -> NetworkMatrices:
    """The network of dense tridiagonal (cap, inv_ind), kept as their bands."""
    return NetworkMatrices(
        bands=NetworkBands(k_diag=np.diag(inv_ind), k_off=np.diag(inv_ind, 1),
                           c_diag=np.diag(cap), c_off=np.diag(cap, 1)),
        node_positions=node_positions, interface_index=interface_index)


def _wrap(bands):
    return NetworkMatrices(bands=bands,
                           node_positions=np.linspace(0.0, 1.0, len(bands.k_diag)),
                           interface_index=0)


def _dense(mat, window):
    """(frequencies, profiles) from scipy's eigh, the window applied and the
    gauge modes dropped by their own threshold, omega <= 1e-6 omega_max
    (on every ``CircuitSpec`` the one mode at 0, as the library's rule
    from K's structure drops)."""
    w2, vecs = sla.eigh(mat.inv_ind, mat.cap)
    omega = np.sqrt(np.clip(w2, 0.0, None))
    keep = omega > 1e-6 * omega.max()
    if window is not None:
        keep &= (omega >= window[0]) & (omega <= window[1])
    return omega[keep], vecs[:, keep]


def _residuals(mat, omega, vecs):
    kv = mat.inv_ind @ vecs
    return np.linalg.norm(kv - (mat.cap @ vecs) * omega ** 2, axis=0) \
        / np.linalg.norm(kv, axis=0)


def _check(mat, window):
    """The default solution against dense eigh at the stated gates.  A
    closed-form solve's residuals are also bounded by RESIDUAL_FACTOR times
    the largest residual of its modes refined in long double and rounded
    to double: the rounding floor of a double vector.  A dense solve is
    scipy's eigh itself, so it has no residual gate here."""
    ms = solve_modes(mat, window)
    omega, vecs = _dense(mat, window)
    assert len(ms) == len(omega)
    if not len(omega):
        return ms
    np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-10, atol=0)
    overlap = np.abs(np.einsum("ij,ij->j", ms.profiles, mat.cap @ vecs))
    assert overlap.min() >= 1 - 1e-12
    gram = ms.profiles.T @ mat.cap @ ms.profiles
    assert np.abs(gram - np.eye(len(ms))).max() <= 1e-12
    closed = (mat.dim not in metaline.modes._DENSE_DIMS and
              metaline.modes._two_segments(mat.bands, mat.interface_index) is not None)
    if closed:      # one long-double step from vectors this close is converged
        lam, refined = refined_pencil_modes(mat.bands, ms.profiles, steps=1)
        floor = _residuals(mat, np.sqrt(lam.astype(float)), refined.astype(float))
        assert _residuals(mat, ms.frequencies, ms.profiles).max() \
            <= RESIDUAL_FACTOR * floor.max()
    return ms


def _sample(count):
    """The lowest five, a middle and the top window mode."""
    return [0, 1, 2, 3, 4, count // 2, count - 1]


def _assert_no_farther_from_exact_than_dense(mat, window, ms):
    """The sampled window modes ``ms`` of ``mat`` are no farther from the
    40-digit Sturm bisection than dense eigh's, or a few units in the last
    place from it."""
    w2 = sla.eigh(mat.inv_ind, mat.cap, eigvals_only=True)
    first = int(np.sum(w2 < window[0] ** 2))
    dense = np.sqrt(w2[first:first + len(ms)])
    for k in _sample(len(ms)):
        lam = ms.frequencies[k] ** 2
        exact = float(mp_pencil_eigenvalue(mat.bands, first + k,
                                           bracket=(lam * (1 - 1e-10), lam * (1 + 1e-10))))
        err_solved = abs(ms.frequencies[k] / exact ** 0.5 - 1)
        err_dense = abs(dense[k] / exact ** 0.5 - 1)
        # a few units in the last place are the floor of both
        assert err_solved <= max(err_dense, 4 * EPS), k


def _refined_footprints(mat, weights, start):
    """(frequencies, |w^T v|) of the modes refined in long double from the
    columns of ``start``."""
    lam, refined = refined_pencil_modes(mat.bands, start)
    strip = slice(mat.interface_index, None)
    expected = np.abs(weights.astype(np.longdouble) @ refined[strip]).astype(float)
    return np.sqrt(lam.astype(float)), expected


def _assert_footprints_match_refined(mat, window, ms, weights):
    """The window modes ``ms`` of ``mat`` against dense eigh's refined in
    long double.  Dense eigh's own footprint averages are up to 4.6e-9
    off on the fig2 device, so a return of this size to dense fails here."""
    _, start = _dense(mat, window)
    omega, expected = _refined_footprints(mat, weights, start)
    np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-12, atol=0)
    got = np.abs(weights @ ms.profiles[mat.interface_index:])
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)
    assert np.abs(got - expected).max() <= 1e-12 * expected.max()


@pytest.fixture(scope="session")
def band_spec():
    return make_band_edge_spec()


@pytest.fixture(scope="session")
def band_matrices(band_spec):
    return build_matrices(band_spec)


@pytest.fixture(scope="session")
def band_modes(band_spec, band_matrices):
    """The closed form's window modes, even when the test that first asks
    for them has pinned the dense path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metaline.modes, "_DENSE_DIMS", range(0))
        return solve_modes(band_matrices, WINDOW)


@pytest.fixture(scope="session")
def band_qubit(band_spec, band_modes):
    """0.5 mm footprint at the current antinode of the mode nearest 4.579 GHz,
    tuned so that mode couples at 460 MHz."""
    x0 = footprint_at_antinode(band_modes, band_spec, TWO_PI * 4.579e9, 0.5e-3)
    probe = QubitSpec(delta0=TWO_PI * 4.2e9, position=x0, extent=0.5e-3,
                      g_global=1.0)
    shape = coupling_spectrum(band_modes, band_spec, probe)
    n_t = int(np.argmin(np.abs(shape.frequencies - TWO_PI * 4.579e9)))
    g_global = TWO_PI * 0.46e9 / shape.relative_profile[n_t]
    return QubitSpec(delta0=TWO_PI * 4.2e9, position=x0, extent=0.5e-3,
                     g_global=g_global)


@pytest.fixture(scope="session")
def band_couplings(band_spec, band_modes, band_qubit):
    return coupling_spectrum(band_modes, band_spec, band_qubit)


@pytest.fixture
def closed_path(monkeypatch):
    """Two-segment devices take the closed form, whatever the size."""
    monkeypatch.setattr(metaline.modes, "_DENSE_DIMS", range(0))


@pytest.fixture
def dense_path(monkeypatch):
    """Every ``solve_modes`` call takes dense eigh, whatever the size."""
    monkeypatch.setattr(metaline.modes, "_DENSE_DIMS", range(sys.maxsize))


@pytest.fixture(scope="session")
def ladder_top_rung():
    """The size ladder's dim-5001 rung, built and solved once, with no
    dense network matrix formed."""
    def refuse(mat):
        raise AssertionError("a dense network matrix was formed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetworkMatrices, "cap", property(refuse))
        mp.setattr(NetworkMatrices, "inv_ind", property(refuse))
        spec = make_band_edge_spec(2000, 3000)
        mat = build_matrices(spec)
        return spec, mat, solve_modes(mat, WINDOW)


SCIPY_FREE_STEPS = ["import", "disorder", "modes", "dynamics", "renorm", "phase",
                    "pattern-1-bare", "pattern-1-caps", "pattern-40-bare",
                    "pattern-40-caps"]


@pytest.fixture(scope="session")
def scipy_free_run(tmp_path_factory):
    """({step: "<exit code> <scipy modules loaded so far>"}, output folder)
    of one fresh process: ``import metaline.cli``, each command on SMALL,
    then the closed-form solves of the pattern devices (n_left 1 and 40,
    with and without end caps)."""
    out = tmp_path_factory.mktemp("scipy_free")
    cfg = out / "run.cfg"
    cfg.write_text(SMALL + "dynamics.tg_grid = 0.0, 2.0, 5\ndisorder.seeds = 3\n"
                   "phase.delta0_grid = 1.1, 1.2, 2\nphase.g_grid = 0.05, 1.5, 10\n")
    code = f"""
import dataclasses, sys
from importlib import resources

def report(step, rc=0):
    print(step, rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))

import metaline.cli
report('import')
for command in ('disorder', 'modes', 'dynamics', 'renorm', 'phase'):
    report(command, metaline.cli.main([command, '--config', {str(cfg)!r},
                                       '--out', {str(out)!r}]))
from metaline import build_matrices, solve_modes
from metaline.config import parse_config
spec = parse_config(resources.files('metaline') / 'configs' / 'fig2.cfg').circuit_spec()
for n in (1, 40):
    for cap in (None, spec.c_left):
        solve_modes(build_matrices(dataclasses.replace(
            spec, n_left=n, c_end_left=cap, c_end_right=cap)))
        report(f'pattern-{{n}}-{{"caps" if cap else "bare"}}')
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    steps = dict(line.split(" ", 1) for line in run.stdout.splitlines())
    assert list(steps) == SCIPY_FREE_STEPS
    return steps, out
