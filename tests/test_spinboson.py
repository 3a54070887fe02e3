import numpy as np
import numpy.testing as npt
import pytest

from metaline import (CouplingSpectrum, Phase, QubitSpec, phase_diagram,
                      renormalize, sweep_coupling)
from metaline.spinboson import _boundary_couplings, _cat_sizes
from conftest import TWO_PI, make_band_edge_spec
from oracles import (boundary_bracket, grid_search_fixed_point,
                     iterate_fixed_point)


def _couplings(freqs, gs):
    freqs = np.asarray(freqs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    peak = gs.max() if len(gs) and gs.max() > 0 else 1.0
    return CouplingSpectrum(frequencies=freqs, relative_profile=gs / peak,
                            g=gs, g_global=peak)


def _random_bath(rng, n_max=5):
    n = int(rng.integers(1, n_max + 1))
    freqs = np.sort(rng.uniform(0.5, 3.0, size=n))
    gs = rng.uniform(0.01, 0.8, size=n)
    delta0 = rng.uniform(0.2, 2.5)
    return freqs, gs, delta0


class TestRenormalize:
    def test_no_bath_no_dressing(self):
        res = renormalize(_couplings([1.0, 2.0], [0.0, 0.0]), delta0=1.5)
        assert res.delta_eff == 1.5
        npt.assert_allclose(res.lambdas, 0.0)
        assert res.phase is Phase.DELOCALIZED
        assert res.cat_size == 0.0

    def test_slow_mode_excluded_by_step(self):
        # omega_1 < delta0 and the iterate never drops below omega_1
        res = renormalize(_couplings([0.5], [0.05]), delta0=1.0)
        assert res.delta_eff == 1.0
        npt.assert_allclose(res.lambdas, 0.0)

    def test_two_mode_example_matches_grid_oracle(self):
        freqs = np.array([1.1, 1.2])
        gs = np.array([0.3, 0.25])
        delta0 = 1.05
        for variant in ("standard", "literal"):
            res = renormalize(_couplings(freqs, gs), delta0, variant)
            oracle = grid_search_fixed_point(freqs, gs, delta0, variant)
            npt.assert_allclose(res.delta_eff, oracle, rtol=1e-6)

    def test_self_consistency_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            freqs, gs, delta0 = _random_bath(rng)
            res = renormalize(_couplings(freqs, gs), delta0)
            lam2 = (gs / freqs) ** 2
            s = lam2[freqs > res.delta_eff].sum()
            assert abs(res.delta_eff - delta0 * np.exp(-2 * s)) <= 1e-9 * delta0

    def test_monotone_in_couplings(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            freqs, gs, delta0 = _random_bath(rng)
            base = renormalize(_couplings(freqs, gs), delta0).delta_eff
            bump = gs.copy()
            bump[rng.integers(0, len(gs))] *= 1 + rng.uniform(0.01, 0.5)
            bumped = renormalize(_couplings(freqs, bump), delta0).delta_eff
            assert bumped <= base + 1e-15

    def test_cat_size_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            freqs, gs, delta0 = _random_bath(rng)
            res = renormalize(_couplings(freqs, gs), delta0)
            npt.assert_allclose(res.cat_size,
                                -0.5 * np.log(res.delta_eff / delta0),
                                atol=1e-9)
            npt.assert_allclose(res.cat_size, np.sum(res.lambdas ** 2),
                                rtol=1e-12, atol=1e-15)

    def test_localized_label(self):
        # strong coupling to fast modes collapses the splitting
        res = renormalize(_couplings([1.1, 1.3, 1.6], [2.0, 2.0, 2.0]), 1.0)
        assert res.delta_eff / 1.0 < 1e-3
        assert res.phase is Phase.LOCALIZED

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            renormalize(_couplings([], []), 1.0)
        with pytest.raises(ValueError, match="variant"):
            renormalize(_couplings([1.0], [0.1]), 1.0, variant="quartic")
        with pytest.raises(ValueError):
            renormalize(_couplings([1.0], [0.1]), 0.0)

    def test_grid_oracle_batch(self):
        rng = np.random.default_rng(14)
        for k in range(100):
            freqs, gs, delta0 = _random_bath(rng)
            variant = "standard" if k % 2 == 0 else "literal"
            res = renormalize(_couplings(freqs, gs), delta0, variant)
            oracle = grid_search_fixed_point(freqs, gs, delta0, variant)
            npt.assert_allclose(res.delta_eff, oracle, rtol=1e-6)


def _edge_case_bath(rng, k):
    """Random bath in shuffled order with a tied pair of frequencies; every
    other bath puts a mode exactly at Delta_0, and every fifth has no
    coupling at all."""
    n = int(rng.integers(2, 7))
    freqs = rng.uniform(0.5, 3.0, size=n)
    freqs[1] = freqs[0]
    gs = rng.uniform(0.01, 0.5, size=n)
    delta0 = freqs[-1] if k % 2 else rng.uniform(0.2, 2.5)
    if k % 5 == 0:
        gs[:] = 0.0
    order = rng.permutation(n)
    return freqs[order], gs[order], float(delta0)


class TestClosedFormAgainstOracles:
    """The closed-form fixed point against the monotone iteration (to
    rounding) and the dense grid scan (criterion-8 tolerance)."""

    def test_renormalize(self):
        rng = np.random.default_rng(15)
        for k in range(100):
            freqs, gs, delta0 = _edge_case_bath(rng, k)
            for variant in ("standard", "literal"):
                res = renormalize(_couplings(freqs, gs), delta0, variant)
                npt.assert_allclose(
                    res.cat_size,
                    iterate_fixed_point(freqs, gs, delta0, variant),
                    rtol=1e-12, atol=0)
                npt.assert_allclose(
                    res.delta_eff,
                    grid_search_fixed_point(freqs, gs, delta0, variant),
                    rtol=1e-6)
                if k % 5 == 0:
                    assert res.delta_eff == delta0

    def test_sweep_coupling(self):
        rng = np.random.default_rng(16)
        g_grid = np.concatenate([[0.0], np.geomspace(0.05, 0.5, 5)])
        for k in range(12):
            freqs, gs, delta0 = _edge_case_bath(rng, k)
            cs = _couplings(freqs, gs)
            for variant in ("standard", "literal"):
                sweep = sweep_coupling(cs, delta0, g_grid, variant)
                assert sweep.delta_eff[0] == delta0
                assert sweep.delta_eff_flat[0] == delta0
                for profile, cats, deltas in (
                        (cs.relative_profile, sweep.cat_size, sweep.delta_eff),
                        (np.ones_like(freqs), sweep.cat_size_flat,
                         sweep.delta_eff_flat)):
                    for g, cat, delta in zip(g_grid, cats, deltas):
                        npt.assert_allclose(
                            cat,
                            iterate_fixed_point(freqs, g * profile, delta0,
                                                variant),
                            rtol=1e-12, atol=0)
                        npt.assert_allclose(
                            delta,
                            grid_search_fixed_point(freqs, g * profile,
                                                    delta0, variant),
                            rtol=1e-6)


def _boundary_bath(rng, k):
    """Shuffled random bath with a tied pair of frequencies.  Delta_0 sits
    exactly on a mode in every other bath (on the top mode in every sixth),
    above every mode in every fifth; every third zeroes some profile
    entries, the top mode's among them."""
    n = int(rng.integers(2, 8))
    freqs = rng.uniform(0.5, 3.0, size=n)
    freqs[1] = freqs[0]
    profile = rng.uniform(0.05, 1.0, size=n)
    if k % 3 == 0:
        profile[rng.random(n) < 0.4] = 0.0
        profile[np.argmax(freqs)] = 0.0
    if k % 6 == 3:
        delta0 = freqs.max()
    elif k % 2:
        delta0 = freqs[rng.integers(0, n)]
    elif k % 5 == 0:
        delta0 = freqs.max() * rng.uniform(1.0, 1.5)
    else:
        delta0 = rng.uniform(0.2, 2.5)
    order = rng.permutation(n)
    return freqs[order], profile[order], float(delta0)


BOUNDARY_CASES = [(variant, threshold) for variant in ("standard", "literal")
                  for threshold in (1e-3, 0.3)]


class TestBoundaryClosedForm:
    """The closed-form localization boundary against the fixed point itself
    and against the oracle bisection."""

    @pytest.mark.parametrize("variant,threshold", BOUNDARY_CASES)
    def test_label_flips_at_boundary(self, variant, threshold):
        rng = np.random.default_rng(21)
        log_thr = -0.5 * np.log(threshold)
        finite = 0
        for k in range(150):
            freqs, profile, delta0 = _boundary_bath(rng, k)
            g_b = float(_boundary_couplings(freqs, profile, delta0, variant,
                                            threshold))
            if np.isinf(g_b):
                # delocalized at any coupling
                assert _cat_sizes(freqs, profile, delta0, 1e30, variant) <= log_thr
                continue
            finite += 1
            below, above = _cat_sizes(freqs, profile, delta0,
                                      [g_b * (1 - 1e-9), g_b * (1 + 1e-9)],
                                      variant)
            assert below <= log_thr < above, (k, freqs, profile, delta0)
        assert 40 < finite < 150

    @pytest.mark.parametrize("variant,threshold", BOUNDARY_CASES)
    def test_inside_oracle_bracket(self, variant, threshold):
        rng = np.random.default_rng(22)
        g_grid = np.geomspace(0.05, 20.0, 12)
        for k in range(40):
            freqs, profile, delta0 = _boundary_bath(rng, k)
            g_b = float(_boundary_couplings(freqs, profile, delta0, variant,
                                            threshold))
            bracket = boundary_bracket(freqs, profile, delta0, g_grid,
                                       variant, threshold)
            if bracket is None:
                assert g_b > g_grid[-1]
            elif bracket[0] == bracket[1]:
                assert g_b <= g_grid[0]
            else:
                lo, hi = bracket
                assert lo * (1 - 1e-12) <= g_b <= hi * (1 + 1e-12)
                npt.assert_allclose(g_b, 0.5 * (lo + hi), rtol=1e-4)

    @pytest.mark.parametrize("variant,q", [("standard", 2), ("literal", 4)])
    def test_single_fast_mode(self, variant, q):
        # one mode above Delta_0: Delta_eff = Delta_0 exp(-2 g^q (p/w)^q)
        # reaches threshold * Delta_0 at g^q = ln(1/threshold) / (2 (p/w)^q)
        for threshold in (1e-3, 0.3):
            g_b = _boundary_couplings(np.array([2.0]), np.array([0.5]), 1.0,
                                      variant, threshold)
            npt.assert_allclose(g_b, 4.0 * (-np.log(threshold) / 2) ** (1 / q),
                                rtol=1e-14)

    @pytest.mark.parametrize("variant", ["standard", "literal"])
    def test_rows_that_never_localize(self, variant):
        freqs = np.array([1.0, 1.5, 1.5, 2.0])
        profile = np.array([0.3, 1.0, 0.7, 0.6])
        # above every mode, on the top mode, and with every faster mode
        # uncoupled (profile zero above Delta_0)
        assert np.all(np.isinf(_boundary_couplings(
            freqs, profile, np.array([2.5, 2.0]), variant, 1e-3)))
        assert np.isinf(_boundary_couplings(
            freqs, np.array([0.3, 1.0, 0.7, 0.0]), 1.5, variant, 1e-3))
        assert np.isinf(_boundary_couplings(freqs, np.zeros(4), 1.2, variant,
                                            1e-3))

    def test_rows_match_scalar_calls(self):
        freqs = np.array([1.1, 1.3, 1.3, 1.7, 2.4])
        profile = np.array([0.2, 0.9, 0.4, 1.0, 0.0])
        delta0 = np.array([0.5, 1.1, 1.25, 1.7, 3.0])
        rows = _boundary_couplings(freqs, profile, delta0, "literal", 0.3)
        assert rows.shape == (5,)
        for d0, g_b in zip(delta0, rows):
            assert g_b == _boundary_couplings(freqs, profile, d0, "literal", 0.3)


class TestSweepCoupling:
    def _band(self):
        freqs = 1.0 + 0.02 * np.arange(40)
        profile = np.exp(-0.5 * ((freqs - 1.2) / 0.3) ** 2)
        profile /= profile.max()
        return freqs, profile

    def _spectrum(self, g_global):
        freqs, profile = self._band()
        return CouplingSpectrum(frequencies=freqs, relative_profile=profile,
                                g=g_global * profile, g_global=g_global)

    def test_zero_coupling_endpoint(self):
        cs = self._spectrum(1.0)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 20)])
        sweep = sweep_coupling(cs, 1.05, grid)
        assert sweep.delta_eff[0] == 1.05
        assert sweep.delta_eff_flat[0] == 1.05

    def test_non_increasing_and_flat_below_weighted(self):
        cs = self._spectrum(1.0)
        grid = np.geomspace(1e-3, 2.0, 50)
        sweep = sweep_coupling(cs, 1.1, grid)
        assert np.all(np.diff(sweep.delta_eff) <= 1e-15)
        assert np.all(np.diff(sweep.delta_eff_flat) <= 1e-15)
        # profile <= 1 everywhere, so the flat curve is dressed at least as hard
        assert np.all(sweep.delta_eff_flat <= sweep.delta_eff + 1e-15)

    def test_smooth_steep_tail_is_not_a_jump(self):
        # strongly coupled bath whose collapse is smooth on a log grid:
        # grid-level drops can exceed 10x but must not survive refinement
        freqs = np.linspace(1.05, 3.0, 30)
        cs = CouplingSpectrum(frequencies=freqs,
                              relative_profile=np.ones(30),
                              g=np.ones(30), g_global=1.0)
        grid = np.geomspace(0.01, 3.0, 25)
        sweep = sweep_coupling(cs, 1.02, grid)
        raw_drops = sweep.delta_eff[:-1] / sweep.delta_eff[1:]
        assert raw_drops.max() > 10.0
        for jump in sweep.jumps:
            assert jump.drop_factor > 10.0
        # sanity: the curve loses many decades smoothly overall
        assert sweep.delta_eff[-1] / 1.02 < 1e-8

    def test_grid_validation(self):
        cs = self._spectrum(1.0)
        with pytest.raises(ValueError):
            sweep_coupling(cs, 1.0, [0.5])
        with pytest.raises(ValueError):
            sweep_coupling(cs, 1.0, [0.5, 0.4, 0.6])
        with pytest.raises(ValueError, match="empty"):
            sweep_coupling(_couplings([], []), 1.0, [0.5, 0.6])
        for delta0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="delta0"):
                sweep_coupling(cs, delta0, [0.5, 0.6])


@pytest.fixture(scope="module")
def small_spec():
    return make_band_edge_spec(n_left=40, n_right=60)


@pytest.fixture(scope="module")
def small_qubit():
    return QubitSpec(delta0=TWO_PI * 4.2e9, position=0.02, extent=0.5e-3,
                     g_global=1.0)


class TestPhaseDiagram:
    def test_row_matches_sweep(self, small_spec, small_qubit):
        from metaline import build_matrices, coupling_spectrum, solve_modes
        window = (TWO_PI * 3.8e9, TWO_PI * 13e9)
        omega_ir = small_spec.omega_ir
        g_grid = np.geomspace(0.02, 1.5, 15) * omega_ir
        delta0_grid = np.array([1.1, 1.3]) * omega_ir
        diagram = phase_diagram(small_spec, small_qubit, g_grid, delta0_grid,
                                freq_window=window)
        modes = solve_modes(build_matrices(small_spec), window)
        couplings = coupling_spectrum(modes, small_spec, small_qubit)
        sweep = sweep_coupling(couplings, delta0_grid[0], g_grid)
        npt.assert_array_equal(diagram.delta_eff_grid[0], sweep.delta_eff)

    def test_zero_coupling_column_delocalized(self, small_spec, small_qubit):
        omega_ir = small_spec.omega_ir
        g_grid = np.linspace(0.0, 1.5, 12) * omega_ir
        delta0_grid = np.array([1.1, 1.2]) * omega_ir
        diagram = phase_diagram(small_spec, small_qubit, g_grid, delta0_grid,
                                freq_window=(TWO_PI * 3.8e9, TWO_PI * 13e9))
        npt.assert_allclose(diagram.delta_eff_grid[:, 0],
                            delta0_grid, rtol=1e-12)

    @pytest.mark.parametrize("variant,threshold", BOUNDARY_CASES)
    def test_boundary_inside_oracle_bracket(self, small_spec, small_qubit,
                                            variant, threshold):
        from metaline import build_matrices, coupling_spectrum, solve_modes
        window = (TWO_PI * 3.8e9, TWO_PI * 13e9)
        omega_ir = small_spec.omega_ir
        g_grid = np.geomspace(0.02, 1.5, 15) * omega_ir
        delta0_grid = np.linspace(0.9, 1.6, 8) * omega_ir
        diagram = phase_diagram(small_spec, small_qubit, g_grid, delta0_grid,
                                freq_window=window, variant=variant,
                                localization_threshold=threshold)
        couplings = coupling_spectrum(
            solve_modes(build_matrices(small_spec), window), small_spec,
            small_qubit)
        brackets = [(boundary_bracket(couplings.frequencies,
                                      couplings.relative_profile, d0, g_grid,
                                      variant, threshold), d0)
                    for d0 in delta0_grid]
        brackets = [(b, d0) for b, d0 in brackets if b is not None]
        assert len(diagram.boundary) == len(brackets) > 0
        for (g_star, d0), ((lo, hi), d0_oracle) in zip(diagram.boundary,
                                                       brackets):
            assert d0 == d0_oracle
            assert lo <= g_star <= hi

    @pytest.mark.parametrize("delta0", [0.0, -1.0])
    def test_nonpositive_delta0_rejected(self, small_spec, small_qubit, delta0):
        g_grid = np.geomspace(0.02, 1.5, 5) * small_spec.omega_ir
        with pytest.raises(ValueError, match="positive"):
            phase_diagram(small_spec, small_qubit, g_grid,
                          np.array([delta0, 1.2 * small_spec.omega_ir]))
