"""Both paths of ``solve_modes`` against dense ``eigh`` and the
closed form's oracles, and the dispatch between them.

Two-segment devices (a uniform ladder joined to a uniform strip, end caps
allowed) outside ``_DENSE_DIMS`` take the closed form; every other
network takes dense ``eigh``.  scipy's dense ``eigh`` is called directly
here, not through the library (``conftest._dense``).  The CLI tests that
solve modes run on the default path (the closed form, for their devices)
and again here, pinned by the ``dense_path`` fixture, which sends every
network to dense ``eigh``; the ``closed_path`` fixture empties
``_DENSE_DIMS``.  The acceptance criteria are rerun on the dense path.
The ids say ``band`` where the fixture is ``closed_path``: they date from
when the closed form's path was named the band path.
"""

import dataclasses
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import metaline.circuit as circuit
import metaline.closedform as closedform
import metaline.modes as modes
import test_acceptance
import test_cli
from metaline import (IllConditionedCircuitError, NetworkBands, NetworkMatrices,
                      apply_disorder, build_matrices, footprint_weights, network_bands,
                      solve_modes)
from metaline.config import parse_config
from conftest import (TWO_PI, WINDOW, _assert_footprints_match_refined,
                      _assert_no_farther_from_exact_than_dense, _check, _dense,
                      _residuals, _wrap, make_band_edge_spec)


class TestAgainstDenseEigh:
    @pytest.mark.usefixtures("closed_path")
    def test_spectrum_device(self):
        # the device of the benchmark's spectrum workload: dim 2001 lies in
        # _DENSE_DIMS, so it takes the closed form only when pinned
        ms = _check(build_matrices(make_band_edge_spec(n_left=800, n_right=1200)),
                    WINDOW)
        assert len(ms) == 645

    def test_band_edge_cluster(self, band_matrices):
        ms = _check(band_matrices, WINDOW)
        gaps = np.diff(ms.frequencies ** 2) / ms.frequencies[1:] ** 2
        assert np.sum(gaps < 1e-3) >= 5     # close modes were solved

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_disordered_devices(self, request, seed):
        # off the two-segment pattern: the dense path's modes, bit for bit
        spec = apply_disorder(make_band_edge_spec(n_left=80, n_right=120), 0.05, seed)
        _check(build_matrices(spec), WINDOW)
        _check_dense_taken(request, build_matrices(spec), WINDOW)

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
        # a mode on either side of 1e-6 of the largest frequency is kept:
        # only node 0's zero row of K makes a gauge mode (``_dense`` drops
        # modes by that threshold, so the toy's exact modes are the reference)
        k = np.array([0.0, 1e-12 * factor, 1.0])
        bands = NetworkBands(k_diag=k, k_off=np.zeros(2), c_diag=np.ones(3),
                             c_off=np.zeros(2))
        ms = solve_modes(_wrap(bands), (0.0, 10.0))
        np.testing.assert_allclose(ms.frequencies, np.sqrt(k[1:]), rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.abs(ms.profiles), np.eye(3)[:, 1:], rtol=0, atol=1e-12)

    def test_window_from_zero(self, band_matrices):
        _check(band_matrices, (0.0, TWO_PI * 6e9))

    @pytest.mark.parametrize("window", [None, (0.5, 1.5)])
    def test_degenerate_pairs(self, request, window):
        # every eigenvalue double: off the pattern, so the dense path's modes
        mat = _wrap(_twin_chains())
        ms = _check_dense_taken(request, mat, window)
        omega, vecs = _dense(mat, window)
        np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-10, atol=0)
        gram = ms.profiles.T @ mat.cap @ ms.profiles
        assert np.abs(gram - np.eye(len(ms))).max() <= 1e-12
        assert _residuals(mat, ms.frequencies, ms.profiles).max() <= 1e-11
        # only the eigenspaces of the double eigenvalues are fixed: each
        # vector lies in the eigh eigenspace of its frequency
        same = np.abs(omega[:, None] / ms.frequencies[None, :] - 1) < 1e-8
        inside = np.linalg.norm(np.where(same, vecs.T @ mat.cap @ ms.profiles, 0.0),
                                axis=0)
        assert inside.min() >= 1 - 1e-12

    @pytest.mark.parametrize("layout", ["strip", "ladder"])
    def test_bare_lines(self, request, layout):
        spec = make_band_edge_spec(n_left=80, n_right=120)
        if layout == "strip":
            bands = circuit._rhtl_bands(spec.c_right_per_len, spec.l_right_per_len,
                                        spec.rhtl_length, spec.n_right)
        else:       # the bare ladder's C is singular: a stray regularizer
            bands = circuit._lhtl_bands(*spec.cell_values())
            bands = dataclasses.replace(bands, c_diag=bands.c_diag + 1e-9 * spec.c_left)
        _check_dense_taken(request, _wrap(bands), None)


def _check_dense_taken(request, mat, window):
    """``mat`` is off the two-segment pattern: its default solve returns
    what the dense path returns, bit for bit."""
    assert modes._two_segments(mat.bands, mat.interface_index) is None
    ms = solve_modes(mat, window)
    request.getfixturevalue("dense_path")
    dense = solve_modes(mat, window)
    np.testing.assert_array_equal(ms.frequencies, dense.frequencies)
    np.testing.assert_array_equal(ms.profiles, dense.profiles)
    return ms


def _twin_chains():
    """Two identical uncoupled chains: every eigenvalue is double, and
    Sturm counts cannot split a pair."""
    k_diag = np.r_[1.0, np.full(198, 2.0), 1.0]
    chain = NetworkBands(k_diag=k_diag, k_off=-np.ones(199),
                         c_diag=np.ones(200), c_off=np.zeros(199))
    return NetworkBands(*(np.r_[a, [0.0] if off else [], a] for a, off in
                          ((chain.k_diag, False), (chain.k_off, True),
                           (chain.c_diag, False), (chain.c_off, True))))


class TestGaugeModes:
    """``_gauge_modes``, the one rule all three solve paths read: one mode
    at 0 per block of K whose rows all sum to exactly zero."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_one_on_each_disordered_device(self, name):
        # node 0's bare series capacitor, on every device of the stack the
        # bundled config's disorder command solves
        cfg = parse_config(resources.files("metaline") / "configs" / f"{name}.cfg")
        spec, seed0 = cfg.circuit_spec(), cfg["disorder.seed0"]
        stack = NetworkBands.stack([
            network_bands(apply_disorder(spec, cfg["disorder.sigma"], seed))
            for seed in range(seed0, seed0 + cfg["disorder.seeds"])])
        np.testing.assert_array_equal(modes._gauge_modes(stack),
                                      np.ones(cfg["disorder.seeds"]))
        assert modes._gauge_modes(network_bands(spec)) == 1

    def test_toy_inputs(self):
        # two Neumann chains (each a zero-sum block), the bare strip (one)
        # and the bare ladder (node 0 alone; every other row is its own
        # block with a shunt inductor)
        spec = make_band_edge_spec(n_left=80, n_right=120)
        strip = circuit._rhtl_bands(spec.c_right_per_len, spec.l_right_per_len,
                                    spec.rhtl_length, spec.n_right)
        ladder = circuit._lhtl_bands(*spec.cell_values())
        assert [int(modes._gauge_modes(b)) for b in (_twin_chains(), strip, ladder)] \
            == [2, 1, 1]


def test_loewdin_step_refuses_far_from_orthonormal(monkeypatch, band_matrices):
    # shots with a share of one common vector in each are further from
    # C-orthonormal than one Loewdin step can mend; the profiles are formed
    # from the shots when first read
    ms = solve_modes(band_matrices, WINDOW)

    def mixed(wave, m, j, values=closedform._wave_values):
        u = values(wave, m, j)
        return u + 1e-4 * u[:, :1]

    monkeypatch.setattr(closedform, "_wave_values", mixed)
    with pytest.raises(ArithmeticError, match="Loewdin"):
        ms.profiles


def test_ladder_top_rung_on_bands(ladder_top_rung):
    """The size ladder's dim-5001 rung, checked on the bands alone."""
    _, mat, ms = ladder_top_rung
    bands = mat.bands
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


def test_no_farther_from_exact_than_dense():
    mat = build_matrices(make_band_edge_spec(n_left=40, n_right=60))
    _assert_no_farther_from_exact_than_dense(mat, WINDOW, solve_modes(mat, WINDOW))


def _bad_bands(mat, name, kind):
    """The bands of ``mat`` with band ``name`` spoiled in one way."""
    band = getattr(mat.bands, name)
    spoiled = {"nan": np.where(np.arange(len(band)) == 3, np.nan, band),
               "inf": np.where(np.arange(len(band)) == 3, -np.inf, band),
               "short": band[:-1],
               "long": np.append(band, band[-1])}[kind]
    return dataclasses.replace(mat.bands, **{name: spoiled})


@pytest.fixture(params=["dense_path", "closed_path"], ids=["dense", "band"])
def solver_path(request):
    """Run a test once on dense eigh and once on the closed form."""
    request.getfixturevalue(request.param)


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
    the closed form, the spectrum device (dim 2001) dense eigh."""
    class Taken(Exception):
        pass

    def path(name):
        def take(*args):
            raise Taken(name)
        return take

    monkeypatch.setattr(modes, "_dense_modes", path("dense"))
    monkeypatch.setattr(modes, "_closed_modes", path("closed"))
    taken = {}
    for n_left in (200, 800, 2000):
        mat = build_matrices(make_band_edge_spec(n_left, 3 * n_left // 2))
        with pytest.raises(Taken) as info:
            solve_modes(mat, WINDOW)
        taken[mat.dim] = info.value.args[0]
    assert taken == {501: "closed", 2001: "dense", 5001: "closed"}


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
@pytest.mark.parametrize("path", ["dense_path", "closed_path"],
                         ids=["dense_path", "band_path"])
def test_window_restricts_full_solve(request, path, ends):
    """A windowed solve is the full solve restricted to the window: the
    window is chosen before the sign rule and the tie-break, which act
    column by column and by a stable sort.  On the dense path that holds
    bit for bit.  The closed form's multisection starts from the window's
    ends and its Loewdin step acts on the window's modes, so there the
    frequencies agree to rounding and the profiles to 1e-12, signs and
    order included."""
    request.getfixturevalue(path)
    mat = build_matrices(make_band_edge_spec(n_left=80, n_right=120))
    full = solve_modes(mat, None)
    f = full.frequencies
    window = WINDOW if ends == "default" else (f[30], f[100])
    if path == "closed_path" and ends == "on_modes":
        # a mode on an end is kept or dropped by its own last bits
        # (test_window_ends_on_modes); here the ends sit just inside
        window = (window[0] * (1 + 1e-12), window[1] * (1 - 1e-12))
    part = solve_modes(mat, window)
    sel = (f >= window[0]) & (f <= window[1])
    assert 0 < sel.sum() < len(f)
    if path == "dense_path":
        np.testing.assert_array_equal(part.frequencies, f[sel])
        np.testing.assert_array_equal(part.profiles, full.profiles[:, sel])
    else:
        np.testing.assert_allclose(part.frequencies, f[sel], rtol=1e-15, atol=0)
        np.testing.assert_allclose(part.profiles, full.profiles[:, sel], rtol=0,
                                   atol=1e-12 * np.abs(full.profiles).max())


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the refinement needs an extended-precision long double")
def test_footprint_averages_match_refined_modes(band_spec, band_matrices, band_modes,
                                                band_qubit):
    weights = footprint_weights(band_spec, band_qubit.position, band_qubit.extent)
    _assert_footprints_match_refined(band_matrices, WINDOW, band_modes, weights)


def test_cli_import_leaves_scipy_linalg_out(scipy_free_run):
    # no scipy module at all, scipy.linalg included, and no closed form
    steps, _ = scipy_free_run
    assert steps["import"] == "0 - []"


def test_disorder_run_loads_no_scipy(scipy_free_run):
    # no scipy module, nor the closed form: band_edges only counts
    steps, out = scipy_free_run
    assert steps["disorder"] == "0 - []"
    assert (out / "disorder.csv").exists()


@pytest.mark.parametrize("command, csv", [("modes", "dom.csv"),
                                          ("dynamics", "entropy.csv"),
                                          ("renorm", "renorm.csv"),
                                          ("phase", "phase.csv")])
def test_bath_run_loads_no_scipy(scipy_free_run, command, csv):
    # one process runs every command in turn: a module that an earlier
    # command loaded fails this one too, and the earliest failure names it
    steps, out = scipy_free_run
    assert steps[command] == "0 closedform []"
    assert (out / csv).exists()


ACCEPTANCE = [getattr(test_acceptance, name) for name in dir(test_acceptance)
              if name.startswith("test_criterion_")]


def _run_criterion(criterion, band_spec):
    """An acceptance criterion with its modes solved on the patched path."""
    fixtures = {"band_spec": band_spec,
                "band_modes": solve_modes(build_matrices(band_spec), WINDOW)}
    names = criterion.__code__.co_varnames[:criterion.__code__.co_argcount]
    criterion(*(fixtures[name] for name in names))


@pytest.mark.usefixtures("dense_path")
@pytest.mark.parametrize("criterion", ACCEPTANCE, ids=lambda f: f.__name__[5:])
def test_acceptance_on_dense_path(criterion, band_spec):
    _run_criterion(criterion, band_spec)


# each CLI test class that solves modes, on the dense path; SMALL (dim 101)
# takes the closed form unpinned, so test_cli's own ids cover that path
class TestCmdModesOnDensePath(test_cli.TestCmdModes):
    pytestmark = pytest.mark.usefixtures("dense_path")


class TestCmdDynamicsOnDensePath(test_cli.TestCmdDynamics):
    pytestmark = pytest.mark.usefixtures("dense_path")


class TestWriteCsvOnDensePath(test_cli.TestWriteCsv):
    pytestmark = pytest.mark.usefixtures("dense_path")


class TestCmdRenormOnDensePath(test_cli.TestCmdRenorm):
    pytestmark = pytest.mark.usefixtures("dense_path")


class TestCmdPhaseOnDensePath(test_cli.TestCmdPhase):
    pytestmark = pytest.mark.usefixtures("dense_path")


class TestExitCodesOnDensePath(test_cli.TestExitCodes):
    pytestmark = pytest.mark.usefixtures("dense_path")
