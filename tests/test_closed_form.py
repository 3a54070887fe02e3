"""The closed form of two-segment devices against independent oracles.

Its count against ``sturm_count`` (LDL^T pivots), its eigenvalues against
a 40-digit Sturm bisection, its footprint averages against long-double
refined eigenvectors, and its dispatch: which bands take it, and that
they load no scipy.
"""

import dataclasses
from functools import partial
from importlib import resources

import numpy as np
import pytest

import metaline.modes as modes
from metaline import (NetworkBands, build_matrices, footprint_at_antinode,
                      footprint_weights, solve_modes, sturm_count)
from metaline.config import parse_config
from conftest import (SCIPY_FREE_STEPS, TWO_PI, WINDOW,
                      _assert_footprints_match_refined,
                      _assert_no_farther_from_exact_than_dense, _check,
                      _refined_footprints, _sample, make_band_edge_spec)

FIGURES = ["fig2", "fig3", "fig4", "fig5"]


def _config(name):
    return parse_config(resources.files("metaline") / "configs" / f"{name}.cfg")


def _segments(mat):
    segs = modes._two_segments(mat.bands, mat.interface_index)
    assert segs is not None
    return segs


def _test_shifts(spec, bands, window, rng, size):
    """Shifts uniform over the window, 1e-12 to 1e-2 above the ladder's
    cutoff, log-uniform from GAUGE^2 lam_max up to lam_max, and uniform
    over [0, 1.1 lam_max], with lam_max bounded from above by the
    Sturm-count bracket."""
    stack = NetworkBands.stack([bands])
    top = float(modes._top_bracket(stack, partial(sturm_count, stack))[1][0])
    return np.concatenate([
        rng.uniform(window[0] ** 2, window[1] ** 2, size),
        spec.omega_ir ** 2 * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0, size)),
        top * modes.GAUGE ** 2 * 10.0 ** rng.uniform(0.0, -2 * np.log10(modes.GAUGE), size),
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
        for device in range(200):
            spec = make_band_edge_spec(int(rng.integers(1, 61)), int(rng.integers(2, 91)))
            if device % 2:
                spec = dataclasses.replace(
                    spec, c_end_left=spec.c_left * rng.uniform(0.1, 3.0),
                    c_end_right=spec.c_left * rng.uniform(0.1, 3.0))
            _assert_counts_match(spec, WINDOW, rng, 25)


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
            w = modes._junction(rows[0], None, ladder, shifts, u, 0.0)
            states.append(modes._advance(ladder, shifts, u, w))
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
            == 4 * ["0 []"]
