"""The band eigensolver of ``solve_modes`` against independent oracles.

scipy's dense ``eigh`` is called directly here, not through the library;
single eigenvalues also come from a 40-digit Sturm bisection.  The
acceptance criteria and the CLI tests that solve modes are rerun with the
``band_path`` fixture, which sends every network to the band solver.
"""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import metaline.modes as modes
import test_acceptance
import test_cli
from metaline import (IllConditionedCircuitError, NetworkBands, NetworkMatrices,
                      apply_disorder, build_matrices, network_bands, solve_modes)
from conftest import TWO_PI, WINDOW, make_band_edge_spec
from oracles import mp_pencil_eigenvalue


def _dense(mat, window):
    """(frequencies, profiles) from scipy's eigh, gauge rule and window applied."""
    w2, vecs = sla.eigh(mat.inv_ind, mat.cap)
    omega = np.sqrt(np.clip(w2, 0.0, None))
    keep = omega > modes.GAUGE * omega.max()
    if window is not None:
        keep &= (omega >= window[0]) & (omega <= window[1])
    return omega[keep], vecs[:, keep]


def _residuals(mat, omega, vecs):
    kv = mat.inv_ind @ vecs
    return np.linalg.norm(kv - (mat.cap @ vecs) * omega ** 2, axis=0) \
        / np.linalg.norm(kv, axis=0)


def _check(mat, window):
    """The band solution against dense eigh at the stated gates."""
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
    # no worse than dense, or below 1e-13 where dense is exact (toy pencils)
    assert _residuals(mat, ms.frequencies, ms.profiles).max() \
        <= max(_residuals(mat, omega, vecs).max(), 1e-13)
    return ms


def _wrap(bands):
    cap, inv_ind = bands.dense()
    n = len(bands.k_diag)
    return NetworkMatrices(cap=cap, inv_ind=inv_ind,
                           node_positions=np.linspace(0.0, 1.0, n),
                           interface_index=0)


@pytest.mark.usefixtures("band_path")
class TestAgainstDenseEigh:
    def test_spectrum_device(self):
        # the device of the benchmark's spectrum workload, dim 2001
        ms = _check(build_matrices(make_band_edge_spec(n_left=800, n_right=1200)),
                    WINDOW)
        assert len(ms) == 645

    def test_band_edge_cluster(self, band_matrices):
        ms = _check(band_matrices, WINDOW)
        gaps = np.diff(ms.frequencies ** 2) / ms.frequencies[1:] ** 2
        assert np.sum(gaps < modes._CLUSTER_GAP) >= 5     # a cluster was solved

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_disordered_devices(self, seed):
        spec = apply_disorder(make_band_edge_spec(n_left=80, n_right=120), 0.05, seed)
        _check(build_matrices(spec), WINDOW)

    def test_no_window(self, band_matrices):
        ms = _check(band_matrices, None)
        assert len(ms) == band_matrices.dim - 1       # one gauge mode

    def test_empty_window(self, band_matrices):
        ms = _check(band_matrices, (TWO_PI * 1000e9, TWO_PI * 1001e9))
        assert ms.profiles.shape == (band_matrices.dim, 0)

    def test_window_ends_on_modes(self, band_matrices):
        dense, _ = _dense(band_matrices, WINDOW)
        window = (dense[3], dense[40])
        ms = solve_modes(band_matrices, window)
        got = ms.frequencies
        assert np.all((got >= window[0]) & (got <= window[1]))
        # a mode on an end is kept or dropped by its own last bits; the
        # modes between the ends all come back
        inner = got[(got > window[0] * (1 + 1e-12)) & (got < window[1] * (1 - 1e-12))]
        np.testing.assert_allclose(inner, dense[4:40], rtol=1e-10, atol=0)
        assert len(got) - len(inner) <= 2

    @pytest.mark.parametrize("factor", [1 - 1e-4, 1 + 1e-4])
    def test_gauge_threshold(self, factor):
        # one mode on either side of 1e-6 of the largest frequency
        bands = NetworkBands(k_diag=np.array([0.0, 1e-12 * factor, 1.0]),
                             k_off=np.zeros(2), c_diag=np.ones(3), c_off=np.zeros(2))
        ms = _check(_wrap(bands), (0.0, 10.0))
        assert len(ms) == (2 if factor > 1 else 1)

    def test_window_from_zero(self, band_matrices):
        _check(band_matrices, (0.0, TWO_PI * 6e9))

    @pytest.mark.parametrize("window", [None, (0.5, 1.5)])
    def test_degenerate_pairs(self, window):
        # two identical uncoupled chains: every eigenvalue is double, and
        # Sturm counts cannot split a pair, so only the eigenspaces are fixed
        k_diag = np.r_[1.0, np.full(198, 2.0), 1.0]
        chain = NetworkBands(k_diag=k_diag, k_off=-np.ones(199),
                             c_diag=np.ones(200), c_off=np.zeros(199))
        twin = NetworkBands(*(np.r_[a, [0.0] if off else [], a] for a, off in
                              ((chain.k_diag, False), (chain.k_off, True),
                               (chain.c_diag, False), (chain.c_off, True))))
        mat = _wrap(twin)
        ms = solve_modes(mat, window)
        omega, vecs = _dense(mat, window)
        np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-10, atol=0)
        gram = ms.profiles.T @ mat.cap @ ms.profiles
        assert np.abs(gram - np.eye(len(ms))).max() <= 1e-12
        assert _residuals(mat, ms.frequencies, ms.profiles).max() <= 1e-11
        # each band vector lies in the dense eigenspace of its frequency
        same = np.abs(omega[:, None] / ms.frequencies[None, :] - 1) < 1e-8
        inside = np.linalg.norm(np.where(same, vecs.T @ mat.cap @ ms.profiles, 0.0),
                                axis=0)
        assert inside.min() >= 1 - 1e-12


@pytest.mark.usefixtures("band_path")
def test_no_farther_from_exact_than_dense():
    spec = make_band_edge_spec(n_left=40, n_right=60)
    mat = build_matrices(spec)
    band = solve_modes(mat, WINDOW).frequencies
    dense, _ = _dense(mat, WINDOW)
    first = int(np.sum(_dense(mat, None)[0] < WINDOW[0])) + 1   # + the gauge mode
    bands = network_bands(spec)
    for k in (0, 1, 2, len(band) // 2, len(band) - 1):
        exact = float(mp_pencil_eigenvalue(bands, first + k)) ** 0.5
        err_band = abs(band[k] / exact - 1)
        err_dense = abs(dense[k] / exact - 1)
        # a few units in the last place are the floor of both
        assert err_band <= max(err_dense, 4 * np.finfo(float).eps), k


@pytest.mark.usefixtures("band_path")
class TestInputChecks:
    def test_rejects_non_tridiagonal(self, band_matrices):
        cap = band_matrices.cap.copy()
        cap[0, 2] = cap[2, 0] = 1e-16
        with pytest.raises(ValueError, match="tridiagonal"):
            solve_modes(dataclasses.replace(band_matrices, cap=cap), WINDOW)

    def test_rejects_asymmetric(self, band_matrices):
        cap = band_matrices.cap.copy()
        cap[5, 6] *= 1.5
        with pytest.raises(ValueError, match="symmetric"):
            solve_modes(dataclasses.replace(band_matrices, cap=cap), WINDOW)

    def test_nonpositive_capacitance_pivot(self):
        bands = NetworkBands(k_diag=np.ones(3) * 1e9, k_off=np.zeros(2),
                             c_diag=np.array([1e-13, 1e-13, 1e-13]),
                             c_off=np.array([2e-13, 0.0]))
        with pytest.raises(IllConditionedCircuitError, match="pivot"):
            solve_modes(_wrap(bands))


def test_default_size_selection(band_matrices):
    """The bath device (dim 501) and the spectrum device (dim 2001) take
    dense eigh, the size ladder's dim-5001 rung the band solver."""
    assert band_matrices.dim < 2001 < modes._BAND_MIN_DIM <= 5001


def test_cli_import_leaves_scipy_linalg_out():
    code = ("import sys, metaline.cli; "
            "print(any(m == 'scipy.linalg' or m.startswith('scipy.linalg.') "
            "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_disorder_run_loads_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(test_cli.SMALL + "disorder.seeds = 3\n")
    argv = ["disorder", "--config", str(cfg), "--out", str(tmp_path)]
    code = ("import sys; from metaline.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "disorder.csv").exists()


ACCEPTANCE = [getattr(test_acceptance, name) for name in dir(test_acceptance)
              if name.startswith("test_criterion_")]


@pytest.mark.usefixtures("band_path")
@pytest.mark.parametrize("criterion", ACCEPTANCE, ids=lambda f: f.__name__[5:])
def test_acceptance_on_band_path(criterion, band_spec):
    fixtures = {"band_spec": band_spec,
                "band_modes": solve_modes(build_matrices(band_spec), WINDOW)}
    names = criterion.__code__.co_varnames[:criterion.__code__.co_argcount]
    criterion(*(fixtures[name] for name in names))


def _on_band_path(cls):
    """A subclass of a CLI test class whose tests run on the band path."""
    return type(f"{cls.__name__}OnBandPath", (cls,), {
        "pytestmark": [pytest.mark.usefixtures("band_path")]})


TestCmdModesOnBandPath = _on_band_path(test_cli.TestCmdModes)
TestCmdDynamicsOnBandPath = _on_band_path(test_cli.TestCmdDynamics)
TestWriteCsvOnBandPath = _on_band_path(test_cli.TestWriteCsv)
TestCmdRenormOnBandPath = _on_band_path(test_cli.TestCmdRenorm)
TestCmdPhaseOnBandPath = _on_band_path(test_cli.TestCmdPhase)
TestExitCodesOnBandPath = _on_band_path(test_cli.TestExitCodes)
