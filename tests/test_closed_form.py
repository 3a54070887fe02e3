"""The closed form of two-segment devices against independent oracles.

Its count against ``sturm_count`` (LDL^T pivots), its continuous phase
against its count, its eigenvalues against counts one ulp apart, a
multisection on the reference pivot loop and a 40-digit Sturm bisection,
the number of counts a solve takes, its footprint averages against
long-double refined eigenvectors, and its dispatch: which bands take it,
and that they load no scipy.
"""

import dataclasses
from importlib import resources

import numpy as np
import pytest

import metaline.modes as modes
from metaline import (build_matrices, footprint_at_antinode,
                      footprint_weights, solve_modes, sturm_count)
from metaline.config import parse_config
from oracles import multisection_eigenvalue, sturm_count_reference
from conftest import (SCIPY_FREE_STEPS, TWO_PI, WINDOW,
                      _assert_footprints_match_refined, _dense,
                      _assert_no_farther_from_exact_than_dense, _check,
                      _random_specs, _refined_footprints, _sample, make_band_edge_spec)

FIGURES = ["fig2", "fig3", "fig4", "fig5"]


def _config(name):
    return parse_config(resources.files("metaline") / "configs" / f"{name}.cfg")


def _segments(mat):
    segs = modes._two_segments(mat.bands, mat.interface_index)
    assert segs is not None
    return segs


def _test_shifts(spec, bands, window, rng, size):
    """Shifts uniform over the window, 1e-12 to 1e-2 above the ladder's
    cutoff, log-uniform from 1e-12 lam_max up to lam_max, and uniform
    over [0, 1.1 lam_max], with lam_max bounded from above, within a
    factor of 2, by doubling the largest K_ii / C_ii (a Rayleigh quotient,
    so at most lam_max) until the reference count holds every
    eigenvalue."""
    top = float(np.max(bands.k_diag / bands.c_diag))
    while sturm_count_reference(bands, [top])[0] < len(bands.k_diag):
        top *= 2.0
    return np.concatenate([
        rng.uniform(window[0] ** 2, window[1] ** 2, size),
        spec.omega_ir ** 2 * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0, size)),
        top * 10.0 ** rng.uniform(-12.0, 0.0, size),
        rng.uniform(0.0, 1.1 * top, size)])


def _assert_counts_match(spec, window, rng, size):
    mat = build_matrices(spec)
    lam = _test_shifts(spec, mat.bands, window, rng, size)
    closed = modes._shoot(*_segments(mat), lam)
    # within 1e-12 of an eigenvalue either count is right to rounding
    clear = (sturm_count(mat.bands, lam * (1 - 1e-12))
             == sturm_count(mat.bands, lam * (1 + 1e-12)))
    assert clear.mean() > 0.9
    np.testing.assert_array_equal(closed[clear], sturm_count(mat.bands, lam[clear]))


class TestCount:
    @pytest.mark.parametrize("name", FIGURES)
    def test_figures(self, name):
        cfg = _config(name)
        _assert_counts_match(cfg.circuit_spec(), cfg.freq_window(),
                             np.random.default_rng(1), 1000)

    def test_ladder_top_rung(self):
        _assert_counts_match(make_band_edge_spec(2000, 3000), WINDOW,
                             np.random.default_rng(2), 750)

    def test_random_devices(self):
        rng = np.random.default_rng(3)
        for spec in _random_specs(rng, 200):
            _assert_counts_match(spec, WINDOW, rng, 25)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_shifts(self):
        # below about 5e6 (rad/s)^2 the ladder's tau passes 1/(16 eps), and
        # the shot's W_0 = u_1 - tau u_0 no longer carries u_1: the count
        # there is sturm_count's (the gauge mode), and the phase is NaN
        mat = build_matrices(_config("fig2").circuit_spec())
        lam = 10.0 ** np.arange(-300, 9)
        np.testing.assert_array_equal(modes._shoot(*_segments(mat), lam),
                                      sturm_count(mat.bands, lam))
        count, whole, part = modes._shoot(*_segments(mat), lam, phase=True)
        np.testing.assert_array_equal(count, sturm_count(mat.bands, lam))
        assert np.isnan(part[lam < 1e6]).all() and np.isfinite(part[lam > 1e7]).all()


def _assert_phase_matches_count(spec, window, rng, size):
    """On the shifts of ``_test_shifts``: floor(Phi) + 1 is the count of the
    same shot wherever the phase Phi is defined (NaN where the strip is
    evanescent), and Phi rises with the shift.  Returns the share of the
    shifts with a phase."""
    mat = build_matrices(spec)
    lam = np.sort(_test_shifts(spec, mat.bands, window, rng, size))
    count, whole, part = modes._shoot(*_segments(mat), lam, phase=True)
    defined = np.isfinite(part)
    np.testing.assert_array_equal(whole[defined] + np.floor(part[defined]) + 1,
                                  count[defined])
    # to the rounding of the strip's phase m t
    assert np.diff(whole[defined] + part[defined]).min(initial=0.0) >= -1e-9
    return defined.mean()


class TestPhase:
    """The continuous Pruefer phase whose roots ``_closed_eigenvalues`` finds;
    most of the shifts above the window lie above the strip's band."""

    @pytest.mark.parametrize("name", FIGURES)
    def test_figures(self, name):
        cfg = _config(name)
        assert _assert_phase_matches_count(cfg.circuit_spec(), cfg.freq_window(),
                                           np.random.default_rng(1), 1000) > 0.5

    def test_ladder_top_rung(self):
        assert _assert_phase_matches_count(make_band_edge_spec(2000, 3000), WINDOW,
                                           np.random.default_rng(2), 750) > 0.5

    def test_random_devices(self):
        rng = np.random.default_rng(3)
        shares = [_assert_phase_matches_count(spec, WINDOW, rng, 25)
                  for spec in _random_specs(rng, 200)]
        assert np.mean(shares) > 0.5


def _passband(seg, lam):
    """Shifts in the passband of ``seg``, p > 0 and q > 0 as ``_advance`` forms them."""
    p = (2.0 * seg.k_o - seg.k_d) + lam * (2.0 * seg.c_o + seg.c_d)
    q = (2.0 * seg.k_o + seg.k_d) + lam * (2.0 * seg.c_o - seg.c_d)
    return (p > 0) & (q > 0)


class TestPassbandShortcut:
    """A count-only ``_advance`` whose shifts all lie in the segment's
    passband skips the evanescent formulas.  On the fig2 device the ladder
    is evanescent below its 4 GHz cutoff and the strip above about 900 GHz."""

    @pytest.fixture(scope="class")
    def device(self):
        mat = build_matrices(_config("fig2").circuit_spec())
        rng = np.random.default_rng(4)
        ghz = TWO_PI * 1e9
        lam = np.concatenate([rng.uniform(3.0, 3.99, 300), rng.uniform(4.01, 13.0, 300),
                              rng.uniform(1e3, 2e3, 100)]) ** 2 * ghz ** 2
        rng.shuffle(lam)
        segs = _segments(mat)
        passband = _passband(segs[0], lam) & _passband(segs[1], lam)
        assert 0 < passband.sum() < len(lam)
        return mat, segs, lam, passband

    @staticmethod
    def _evanescent_calls(monkeypatch, fn):
        # each evanescent branch takes one arctanh
        calls, arctanh = [], np.arctanh
        monkeypatch.setattr(np, "arctanh", lambda x: calls.append(1) or arctanh(x))
        result = fn()
        monkeypatch.setattr(np, "arctanh", arctanh)
        return result, len(calls)

    def test_subset_is_bit_identical(self, monkeypatch, device):
        _, segs, lam, passband = device
        ladder, _, rows = segs
        mixed, taken = self._evanescent_calls(monkeypatch, lambda: modes._shoot(*segs, lam))
        alone, skipped = self._evanescent_calls(
            monkeypatch, lambda: modes._shoot(*segs, lam[passband]))
        assert (taken, skipped) == (2, 0)
        np.testing.assert_array_equal(mixed[passband], alone)
        # the ladder's state at its last node too, bit for bit
        states = []
        for shifts in (lam, lam[passband]):
            u = np.ones_like(shifts)
            beta = ladder.k_o + shifts * ladder.c_o
            w = modes._junction(rows[0], shifts, u, 0.0, None, beta)
            states.append(modes._advance(ladder, shifts, beta, u, w))
        for full, sub in zip(*states):
            np.testing.assert_array_equal(full[passband].view(np.int64), sub.view(np.int64))

    @pytest.mark.parametrize("shifts", ["passband", "evanescent", "mixed"])
    def test_count_matches_sturm(self, device, shifts):
        mat, segs, lam, passband = device
        lam = {"passband": lam[passband], "evanescent": lam[~passband], "mixed": lam}[shifts]
        clear = (sturm_count(mat.bands, lam * (1 - 1e-12))
                 == sturm_count(mat.bands, lam * (1 + 1e-12)))
        assert clear.mean() > 0.9
        np.testing.assert_array_equal(modes._shoot(*segs, lam)[clear],
                                      sturm_count(mat.bands, lam[clear]))


def _returned_eigenvalues(mat, window):
    """The eigenvalues ``solve_modes`` returns, in count order, as the
    closed form holds them and takes its profiles at them (their
    frequencies squared would round)."""
    closed = solve_modes(mat, window)._closed
    return closed.lam[np.argsort(closed.index)]


def _assert_certified(mat, window):
    """Each returned eigenvalue, number k, where the strip is in its
    passband: certified by counts one ulp apart (k at it and k + 1 at the
    next double, or k at the double below it and k + 1 at it), or within
    one ulp of the multisection on the reference pivot loop.  Where the
    strip is evanescent the closed count is only good to about 1e-12 (it
    steps back and forth over several ulps, and 2400 ulps from the pivot
    count were seen), so there the reference counts 1e-11 to either side
    must hold the eigenvalue.  Returns the share certified by counts."""
    lam = _returned_eigenvalues(mat, window)
    segs = _segments(mat)
    first = (mat.dim - len(lam) if window is None
             else int(modes._shoot(*segs, np.array([window[0] ** 2]))[0]))
    k = first + np.arange(len(lam))
    counts = modes._shoot(*segs, np.stack([np.nextafter(lam, 0.0), lam,
                                           np.nextafter(lam, np.inf)], axis=1))
    certified = (((counts[:, 0] == k) & (counts[:, 1] == k + 1))
                 | ((counts[:, 1] == k) & (counts[:, 2] == k + 1)))
    passband = np.isfinite(modes._shoot(*segs, lam, phase=True)[2])
    for j in np.flatnonzero(~certified & passband):
        exact = multisection_eigenvalue(mat.bands, int(k[j]), lam[j] * (1 - 1e-9),
                                        lam[j] * (1 + 1e-9))
        assert abs(lam[j] - exact) <= np.spacing(lam[j]), (j, lam[j], exact)
    for j in np.flatnonzero(~passband):
        below, above = sturm_count_reference(mat.bands, lam[j] * np.array([1 - 1e-11, 1 + 1e-11]))
        assert below <= k[j] < above, j
    return certified.mean()


class TestCertified:
    @pytest.mark.parametrize("name", FIGURES)
    def test_figures(self, name):
        # every eigenvalue of the commands' devices by counts
        cfg = _config(name)
        assert _assert_certified(build_matrices(cfg.circuit_spec()),
                                 cfg.freq_window()) == 1.0

    @pytest.mark.parametrize("n_left, caps", [(1, False), (1, True), (40, True)])
    @pytest.mark.parametrize("window", [None, WINDOW])
    def test_pattern_devices(self, n_left, caps, window):
        _assert_certified(build_matrices(_pattern_spec(n_left, caps)), window)

    def test_random_devices(self):
        # every third with no window: its top modes lie where the strip is
        # evanescent, and multisection finds them
        rng = np.random.default_rng(5)
        shares = [_assert_certified(build_matrices(spec), WINDOW if i % 3 else None)
                  for i, spec in enumerate(_random_specs(rng, 60))]
        assert np.mean(shares) > 0.99


def test_fig2_solve_takes_few_counts(monkeypatch):
    """A fig2 solve brackets, steps to and certifies its 164 window modes in
    at most 8 count shots: multisection from the whole window, which took
    21, fails here, and so does a solve that also brackets the top of the
    spectrum.  A window that holds no mode takes the grid's shot alone."""
    cfg = _config("fig2")
    mat = build_matrices(cfg.circuit_spec())
    calls, shoot = [], modes._shoot

    def counted(*args, values=False, **kwargs):
        calls.append(values)
        return shoot(*args, values=values, **kwargs)

    monkeypatch.setattr(modes, "_shoot", counted)
    assert len(solve_modes(mat, cfg.freq_window())) == 164
    assert 0 < calls.count(False) <= 8
    calls.clear()
    gap = TWO_PI * 5e9         # between two modes of the fig2 device
    assert len(solve_modes(mat, (gap, gap * (1 + 1e-9)))) == 0
    assert calls.count(False) == 1


@pytest.mark.parametrize("window", [None, (0.0, WINDOW[1])], ids=["no-window", "window-from-0"])
def test_solve_from_0_steps_below_large_end_caps(monkeypatch, window):
    """A solve from 0 Hz starts its grid at a shift below every physical
    mode, stepping down by counts from the lowest ``_phase_points`` shift.
    End caps of 100 to 1e4 c_left put a physical mode below that shift,
    so the search steps: the grid's first count is the reference count
    (the gauge mode alone below it), and the count and frequencies are
    dense eigh's at ``_check``'s gates.  Its residual gate is left out:
    the end-cap mode's profile, within 1e-12 of its largest entry of the
    long-double one, leaves a residual far above that gate's floor (the
    same at every grid start)."""
    rng = np.random.default_rng(11)
    starts, grid = [], modes._phase_grid
    monkeypatch.setattr(modes, "_phase_grid",
                        lambda points, lo, hi: starts.append(lo) or grid(points, lo, hi))
    for _ in range(4):
        spec = make_band_edge_spec(n_left=40, n_right=60)
        spec = dataclasses.replace(spec, c_end_left=spec.c_left * 10 ** rng.uniform(2, 4),
                                   c_end_right=spec.c_left * 10 ** rng.uniform(2, 4))
        mat = build_matrices(spec)
        lowest = modes._phase_points(_segments(mat)[:2])[0]
        assert sturm_count_reference(mat.bands, [lowest])[0] > 1
        starts.clear()
        ms, (omega, _) = solve_modes(mat, window), _dense(mat, window)
        assert len(ms) == len(omega)
        np.testing.assert_allclose(ms.frequencies, omega, rtol=1e-10, atol=0)
        (start,) = starts
        assert start < lowest
        counted = modes._shoot(*_segments(mat), [start])
        np.testing.assert_array_equal(counted, sturm_count_reference(mat.bands, [start]))
        assert counted[0] == 1


@pytest.fixture(scope="module")
def fig5():
    cfg = _config("fig5")
    spec, window = cfg.circuit_spec(), cfg.freq_window()
    mat = build_matrices(spec)
    ms = solve_modes(mat, window)
    extent = cfg["qubit.extent_m"]
    x0 = footprint_at_antinode(ms, spec, TWO_PI * 1e9 * cfg["qubit.target_mode_ghz"],
                               extent)
    return spec, window, mat, ms, footprint_weights(spec, x0, extent)


def test_eigenvalues_no_farther_from_exact_than_dense(fig5):
    _, window, mat, ms, _ = fig5
    _assert_no_farther_from_exact_than_dense(mat, window, ms)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the refinement needs an extended-precision long double")
class TestFootprintAverages:
    """|w^T v| against the window modes refined in long double."""

    def test_fig5(self, fig5):
        # refined from dense eigh's window modes
        _, window, mat, ms, weights = fig5
        _assert_footprints_match_refined(mat, window, ms, weights)

    def test_ladder_top_rung(self, ladder_top_rung):
        # refined from the closed form's own vectors, at the sampled modes
        spec, mat, ms = ladder_top_rung
        x0 = footprint_at_antinode(ms, spec, TWO_PI * 4.579e9, 0.5e-3)
        weights = footprint_weights(spec, x0, 0.5e-3)
        cols = ms.profiles[:, _sample(len(ms))]
        _, expected = _refined_footprints(mat, weights, cols)
        got = np.abs(weights @ cols[mat.interface_index:])
        assert np.abs(got - expected).max() <= 1e-10 * expected.max()


def _pattern_spec(n_left, caps):
    # an odd strip: the top modes cross it as an alternating exponential of
    # odd length, whose sign the state at its end must carry
    spec = make_band_edge_spec(n_left=n_left, n_right=61)
    if caps:
        spec = dataclasses.replace(spec, c_end_left=2 * spec.c_left,
                                   c_end_right=0.5 * spec.c_left)
    return spec


class TestDispatch:
    @pytest.mark.parametrize("n_left, caps", [(1, False), (1, True), (40, True)])
    @pytest.mark.parametrize("window", [None, WINDOW])
    def test_pattern_devices_take_closed_form(self, monkeypatch, n_left, caps, window):
        mat = build_matrices(_pattern_spec(n_left, caps))
        _segments(mat)
        dense = modes._dense_modes
        monkeypatch.setattr(modes, "_dense_modes", None)    # unreachable here
        ms = solve_modes(mat, window)
        monkeypatch.setattr(modes, "_dense_modes", dense)
        assert len(ms)
        _check(mat, window)

    def test_pattern_devices_load_no_scipy(self, scipy_free_run):
        steps, _ = scipy_free_run
        assert [steps[step] for step in SCIPY_FREE_STEPS if step.startswith("pattern")] \
            == 4 * ["0 closedform []"]
