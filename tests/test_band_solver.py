"""The band eigensolver of ``solve_modes`` against independent oracles.

scipy's dense ``eigh`` is called directly here, not through the library;
single eigenvalues also come from a 40-digit Sturm bisection, and the
fig2 window modes from a long-double refinement of the dense ones.  The
acceptance criteria and the CLI tests that solve modes run on the default
path (the band solver, for their devices) and are rerun with the
``band_path`` fixture, which pins the band solver whatever the size, and
the ``dense_path`` fixture, which sends every network to dense ``eigh``.
"""

import dataclasses
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import metaline.modes as modes
import test_acceptance
import test_cli
from metaline import (IllConditionedCircuitError, NetworkBands, NetworkMatrices,
                      apply_disorder, build_matrices, footprint_weights,
                      network_bands, solve_modes)
from conftest import TWO_PI, WINDOW, make_band_edge_spec
from oracles import mp_pencil_eigenvalue, refined_pencil_modes


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
    return NetworkMatrices(bands=bands,
                           node_positions=np.linspace(0.0, 1.0, len(bands.k_diag)),
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
        assert np.sum(gaps < 1e-3) >= 5     # close modes were solved

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
        # only the eigenspaces of the double eigenvalues are fixed
        mat = _wrap(_twin_chains())
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


def _twin_chains():
    """Two identical uncoupled chains: every eigenvalue is double, and
    Sturm counts cannot split a pair."""
    k_diag = np.r_[1.0, np.full(198, 2.0), 1.0]
    chain = NetworkBands(k_diag=k_diag, k_off=-np.ones(199),
                         c_diag=np.ones(200), c_off=np.zeros(199))
    return NetworkBands(*(np.r_[a, [0.0] if off else [], a] for a, off in
                          ((chain.k_diag, False), (chain.k_off, True),
                           (chain.c_diag, False), (chain.c_off, True))))


@pytest.mark.usefixtures("band_path")
def test_loewdin_step_refuses_far_from_orthonormal(monkeypatch):
    # without the QR of each pair that shares a Sturm cell, the twin chains'
    # vectors are further from C-orthonormal than one Loewdin step can mend
    monkeypatch.setattr(modes, "_clusters", lambda cell: [])
    with pytest.raises(ArithmeticError, match="Loewdin"):
        solve_modes(_wrap(_twin_chains()), None)


def test_ladder_top_rung_on_bands(monkeypatch):
    """The size ladder's dim-5001 rung, checked on the bands alone."""
    def refuse(mat):
        raise AssertionError("a dense network matrix was formed")

    monkeypatch.setattr(NetworkMatrices, "cap", property(refuse))
    monkeypatch.setattr(NetworkMatrices, "inv_ind", property(refuse))
    mat = build_matrices(make_band_edge_spec(2000, 3000))
    bands = mat.bands
    ms = solve_modes(mat, WINDOW)
    assert len(ms) == 1606
    v = ms.profiles
    kv = modes._tri_mul(bands.k_diag, bands.k_off, v)
    cv = modes._tri_mul(bands.c_diag, bands.c_off, v)
    gram = v.T @ cv
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.abs(gram).max() <= 1e-12
    residual = np.linalg.norm(kv - cv * ms.frequencies ** 2, axis=0) \
        / np.linalg.norm(kv, axis=0)
    assert residual.max() <= 1e-12


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


def _bad_bands(mat, name, kind):
    """The bands of ``mat`` with band ``name`` spoiled in one way."""
    band = getattr(mat.bands, name)
    spoiled = {"nan": np.where(np.arange(len(band)) == 3, np.nan, band),
               "inf": np.where(np.arange(len(band)) == 3, -np.inf, band),
               "short": band[:-1],
               "long": np.append(band, band[-1])}[kind]
    return dataclasses.replace(mat.bands, **{name: spoiled})


@pytest.fixture(params=["dense", "band"])
def solver_path(request):
    """Run a test once on dense eigh and once on the band solver."""
    request.getfixturevalue(f"{request.param}_path")
    return request.param


class TestInputChecks:
    """The same bad networks through both solver paths."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "short", "long"])
    @pytest.mark.parametrize("name", ["k_diag", "k_off", "c_diag", "c_off"])
    def test_rejects_bad_bands(self, solver_path, band_matrices, name, kind):
        # refused at construction, before either path could see them
        with pytest.raises(ValueError, match=f"bands.{name}"):
            solve_modes(dataclasses.replace(
                band_matrices, bands=_bad_bands(band_matrices, name, kind)), WINDOW)

    @pytest.mark.parametrize("c_diag, c_off", [
        ([1e-13, 1e-13, 1e-13], [2e-13, 0.0]),
        ([1e-13, 1e-13, 1e-13], [0.0, 1e-13]),
        ([-1e-13, 1e-13, 1e-13], [0.0, 0.0])],
        ids=["second-negative", "last-zero", "first-negative"])
    def test_nonpositive_capacitance_pivot(self, solver_path, c_diag, c_off):
        bands = NetworkBands(k_diag=np.ones(3) * 1e9, k_off=np.zeros(2),
                             c_diag=np.array(c_diag), c_off=np.array(c_off))
        with pytest.raises(IllConditionedCircuitError, match="pivot"):
            solve_modes(_wrap(bands))


def test_band_path_forms_no_dense_matrix(request, monkeypatch, band_matrices,
                                        band_modes):
    def refuse(mat):
        raise AssertionError("a dense network matrix was formed")

    monkeypatch.setattr(NetworkMatrices, "cap", property(refuse))
    monkeypatch.setattr(NetworkMatrices, "inv_ind", property(refuse))
    np.testing.assert_allclose(solve_modes(band_matrices, WINDOW).frequencies,
                               band_modes.frequencies, rtol=1e-10, atol=0)
    request.getfixturevalue("dense_path")
    with pytest.raises(AssertionError, match="dense"):      # dense eigh needs them
        solve_modes(band_matrices, WINDOW)


def test_default_size_selection(monkeypatch):
    """The bath device (dim 501) and the size ladder's dim-5001 rung take
    the band solver, the spectrum device (dim 2001) dense eigh."""
    class Taken(Exception):
        pass

    def path(name):
        def take(*args):
            raise Taken(name)
        return take

    monkeypatch.setattr(modes, "_dense_modes", path("dense"))
    monkeypatch.setattr(modes, "_band_modes", path("band"))
    taken = {}
    for n_left in (200, 800, 2000):
        mat = build_matrices(make_band_edge_spec(n_left, 3 * n_left // 2))
        with pytest.raises(Taken) as info:
            solve_modes(mat, WINDOW)
        taken[mat.dim] = info.value.args[0]
    assert taken == {501: "band", 2001: "dense", 5001: "band"}


@pytest.fixture(scope="module")
def dense_matrices():
    """A dim-1001 ladder device, in the default dense size range."""
    mat = build_matrices(make_band_edge_spec(n_left=400, n_right=600))
    assert mat.dim == 1001 and mat.dim in modes._DENSE_DIMS
    return mat


def test_dense_path_matches_copying_eigh(dense_matrices):
    """The in-place solve returns the eigenpairs of the copying ``eigh``
    call bit for bit, up to column sign and the order within ties."""
    ms = solve_modes(dense_matrices, WINDOW)
    omega, vecs = _dense(dense_matrices, WINDOW)
    np.testing.assert_array_equal(ms.frequencies, omega)
    matched = []
    for w, v in zip(ms.frequencies, ms.profiles.T):
        matched += [k for k in np.flatnonzero(omega == w)
                    if np.array_equal(v, vecs[:, k]) or np.array_equal(v, -vecs[:, k])][:1]
    assert sorted(matched) == list(range(len(omega)))


def test_dense_path_peak_memory(dense_matrices):
    """K and C reach LAPACK without copies: the solve peaks at K, C and
    sygvd's workspace, 4 n^2 doubles, where copies of both took it to 6."""
    solve_modes(dense_matrices, WINDOW)         # warm: imports and caches
    tracemalloc.start()
    try:
        solve_modes(dense_matrices, WINDOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * dense_matrices.dim ** 2


@pytest.mark.parametrize("ends", ["default", "on_modes"])
@pytest.mark.parametrize("path", ["dense_path", "band_path"])
def test_window_restricts_full_solve(request, monkeypatch, path, ends):
    """A windowed solve is the full solve restricted to the window, bit for
    bit: the window is chosen before the sign rule and the tie-break, which
    act column by column and by a stable sort.  The band solver's iteration
    depends on the window (start vectors, Sturm samples), so there its
    eigenpairs are pinned to one dense solve, indexed as the band solver
    indexes them."""
    request.getfixturevalue(path)
    mat = build_matrices(make_band_edge_spec(n_left=80, n_right=120))
    if path == "band_path":
        w2, vecs = sla.eigh(mat.inv_ind, mat.cap)
        monkeypatch.setattr(modes, "_inverse_iteration",
                            lambda bands, points, counts, index: (w2[index], vecs[:, index]))
    full = solve_modes(mat, None)
    f = full.frequencies
    window = WINDOW if ends == "default" else (f[30], f[100])
    part = solve_modes(mat, window)
    sel = (f >= window[0]) & (f <= window[1])
    assert 0 < sel.sum() < len(f)
    np.testing.assert_array_equal(part.frequencies, f[sel])
    np.testing.assert_array_equal(part.profiles, full.profiles[:, sel])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the refinement needs an extended-precision long double")
def test_footprint_averages_match_refined_modes(band_spec, band_matrices, band_qubit):
    """The default solve of the fig2 device against its window modes refined
    in long double from dense eigh's.  Dense eigh's own footprint averages
    are up to 4.6e-9 off, so a return of this size to dense fails here."""
    ms = solve_modes(band_matrices, WINDOW)
    _, start = _dense(band_matrices, WINDOW)
    lam, refined = refined_pencil_modes(band_matrices.bands, start)
    np.testing.assert_allclose(ms.frequencies, np.sqrt(lam.astype(float)),
                               rtol=1e-12, atol=0)
    weights = footprint_weights(band_spec, band_qubit.position, band_qubit.extent)
    strip = slice(band_matrices.interface_index, None)
    expected = np.abs(weights.astype(np.longdouble) @ refined[strip]).astype(float)
    np.testing.assert_allclose(np.abs(weights @ ms.profiles[strip]), expected,
                               rtol=1e-10, atol=0)


def test_cli_import_leaves_scipy_linalg_out():
    code = ("import sys, metaline.cli; "
            "print(any(m == 'scipy.linalg' or m.startswith('scipy.linalg.') "
            "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _scipy_modules_loaded(argv):
    """"<exit code> <scipy modules loaded>" of ``main(argv)`` in a fresh
    process."""
    code = ("import sys; from metaline.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_disorder_run_loads_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(test_cli.SMALL + "disorder.seeds = 3\n")
    argv = ["disorder", "--config", str(cfg), "--out", str(tmp_path)]
    assert _scipy_modules_loaded(argv) == "0 []"
    assert (tmp_path / "disorder.csv").exists()


@pytest.mark.parametrize("command, csv", [("modes", "dom.csv"),
                                          ("dynamics", "entropy.csv"),
                                          ("renorm", "renorm.csv"),
                                          ("phase", "phase.csv")])
def test_bath_run_loads_no_scipy(tmp_path, command, csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(test_cli.SMALL + "dynamics.tg_grid = 0.0, 2.0, 5\n"
                   "phase.delta0_grid = 1.1, 1.2, 2\nphase.g_grid = 0.05, 1.5, 10\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
    assert _scipy_modules_loaded(argv) == "0 []"
    assert (tmp_path / csv).exists()


ACCEPTANCE = [getattr(test_acceptance, name) for name in dir(test_acceptance)
              if name.startswith("test_criterion_")]


def _run_criterion(criterion, band_spec):
    """An acceptance criterion with its modes solved on the patched path."""
    fixtures = {"band_spec": band_spec,
                "band_modes": solve_modes(build_matrices(band_spec), WINDOW)}
    names = criterion.__code__.co_varnames[:criterion.__code__.co_argcount]
    criterion(*(fixtures[name] for name in names))


@pytest.mark.usefixtures("band_path")
@pytest.mark.parametrize("criterion", ACCEPTANCE, ids=lambda f: f.__name__[5:])
def test_acceptance_on_band_path(criterion, band_spec):
    _run_criterion(criterion, band_spec)


@pytest.mark.usefixtures("dense_path")
@pytest.mark.parametrize("criterion", ACCEPTANCE, ids=lambda f: f.__name__[5:])
def test_acceptance_on_dense_path(criterion, band_spec):
    _run_criterion(criterion, band_spec)


# each CLI test class that solves modes, once per pinned solver path
for _cls in (test_cli.TestCmdModes, test_cli.TestCmdDynamics, test_cli.TestWriteCsv,
             test_cli.TestCmdRenorm, test_cli.TestCmdPhase, test_cli.TestExitCodes):
    for _path, _suffix in (("band_path", "OnBandPath"), ("dense_path", "OnDensePath")):
        globals()[_cls.__name__ + _suffix] = type(_cls.__name__ + _suffix, (_cls,), {
            "pytestmark": [pytest.mark.usefixtures(_path)]})
