import dataclasses
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

from metaline import (CouplingSpectrum, Phase, QubitSpec, cli, phase_diagram,
                      renormalize, sweep_coupling)
from metaline.config import parse_config
from metaline.spinboson import LOCALIZATION_THRESHOLD, _Breakpoints
from conftest import TWO_PI, make_band_edge_spec
from oracles import (bisect_jumps, boundary_bracket, grid_search_fixed_point,
                     iterate_fixed_point)


def _couplings(freqs, gs):
    freqs = np.asarray(freqs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    peak = gs.max() if len(gs) and gs.max() > 0 else 1.0
    return CouplingSpectrum(frequencies=freqs, relative_profile=gs / peak,
                            g=gs)


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


def _breakpoint_couplings(freqs, profile, delta0, q):
    """R_k^(1/q) (1 -+ 1e-12) for each left end x_k < Delta_0 with T_k > 0,
    R_k = ln(Delta_0 / x_k) / (2 T_k) summed mode by mode, ascending."""
    order = np.argsort(freqs)
    w, t = freqs[order], (profile[order] / freqs[order]) ** q
    points = []
    for k in range(1, len(w) + 1):
        tail = t[k:].sum()
        if tail > 0 and w[k - 1] < delta0:
            root = (np.log(delta0 / w[k - 1]) / (2 * tail)) ** (1 / q)
            points += [root * (1 - 1e-12), root * (1 + 1e-12)]
    return np.unique(points)


class TestBreakpointEdges:
    """Couplings one part in 1e12 either side of each breakpoint g^q = R_k,
    where the largest fixed point moves to another interval, against the
    monotone iteration."""

    @pytest.mark.parametrize("variant,q", [("standard", 2), ("literal", 4)])
    def test_sweep_coupling(self, variant, q):
        rng = np.random.default_rng(41)
        checked = moved = 0
        for k in range(30):
            freqs, profile, delta0 = _boundary_bath(rng, k)
            cs = _couplings(freqs, profile)
            profile, ones = cs.relative_profile, np.ones_like(profile)
            g_grid = np.unique(np.concatenate(
                [_breakpoint_couplings(freqs, p, delta0, q) for p in (profile, ones)]))
            if len(g_grid) < 2:
                continue
            sweep = sweep_coupling(cs, delta0, g_grid, variant)
            moved += np.sum(np.diff(sweep.cat_size) > 1e-9 * sweep.cat_size[1:])
            for p, cats in ((profile, sweep.cat_size), (ones, sweep.cat_size_flat)):
                for g, cat in zip(g_grid, cats):
                    npt.assert_allclose(
                        cat, iterate_fixed_point(freqs, g * p, delta0, variant),
                        rtol=1e-12, atol=0)
                    checked += 1
        assert checked > 300 and moved > 40

    @pytest.mark.parametrize("variant,q", [("standard", 2), ("literal", 4)])
    def test_phase_diagram(self, variant, q):
        rng = np.random.default_rng(42)
        checked = moved = 0
        for k in range(20):
            freqs, profile, _ = _boundary_bath(rng, k)
            cs = _couplings(freqs, profile)
            profile = cs.relative_profile
            delta0_grid = np.sort(np.append(rng.uniform(0.4, 3.2, size=3),
                                            freqs[rng.integers(0, len(freqs))]))
            g_grid = np.unique(np.concatenate(
                [_breakpoint_couplings(freqs, profile, d0, q) for d0 in delta0_grid]))
            if len(g_grid) < 2:
                continue
            diagram = phase_diagram(cs, g_grid, delta0_grid, variant)
            steps = -np.diff(diagram.delta_eff_grid, axis=1)
            moved += np.sum(steps > 1e-9 * diagram.delta_eff_grid[:, 1:])
            for d0, row in zip(delta0_grid, diagram.delta_eff_grid):
                for g, delta in zip(g_grid, row):
                    cat = iterate_fixed_point(freqs, g * profile, d0, variant)
                    npt.assert_allclose(delta, d0 * np.exp(-2.0 * cat),
                                        rtol=1e-12, atol=0)
                    checked += 1
        assert checked > 700 and moved > 200


def _planted_jump_bath(rng, q):
    """Shuffled bath whose fixed point falls through a dense cluster just
    below Delta_0 at one coupling g_c, by a planted factor of 30 to 1e6:
    the cluster's weight is set so that the drop (Delta_0 / top)^(T_cluster
    / T_fast) lands there.  Slow, weakly coupled modes sit below.  Returns
    the bath and a log grid around g_c."""
    top = rng.uniform(0.8, 1.5)
    delta0 = top * rng.uniform(1.05, 1.6)
    fast = rng.uniform(delta0, 2.0 * delta0, size=int(rng.integers(1, 6)))
    cluster = top - rng.uniform(0.0, 0.02, size=int(rng.integers(2, 9)))
    cluster[0] = top
    slow = rng.uniform(0.3, 0.7, size=int(rng.integers(0, 4)))
    p_fast = rng.uniform(0.1, 1.0, size=len(fast))
    t_fast = np.sum((p_fast / fast) ** q)
    p_cluster = rng.uniform(0.5, 1.0, size=len(cluster))
    drop = np.exp(rng.uniform(np.log(30.0), np.log(1e6)))
    weight = t_fast * np.log(drop) / np.log(delta0 / top)
    p_cluster *= (weight / np.sum((p_cluster / cluster) ** q)) ** (1 / q)
    freqs = np.concatenate([fast, cluster, slow])
    profile = np.concatenate([p_fast, p_cluster, rng.uniform(0.01, 0.1, len(slow))])
    order = rng.permutation(len(freqs))
    g_c = (np.log(delta0 / top) / (2.0 * t_fast)) ** (1 / q)
    g_grid = g_c * np.geomspace(0.3, 3.0, int(rng.integers(8, 40)))
    return freqs[order], profile[order], delta0, g_grid


class TestJumpsAgainstOracle:
    @pytest.mark.parametrize("variant,q", [("standard", 2), ("literal", 4)])
    def test_planted_jumps(self, variant, q):
        rng = np.random.default_rng(43)
        for _ in range(25):
            freqs, profile, delta0, g_grid = _planted_jump_bath(rng, q)
            cs = CouplingSpectrum(frequencies=freqs, relative_profile=profile,
                                  g=profile)
            sweep = sweep_coupling(cs, delta0, g_grid, variant)
            oracle = bisect_jumps(freqs, profile, delta0, g_grid, variant)
            assert len(sweep.jumps) == len(oracle) >= 1
            for jump, (g_star, drop) in zip(sweep.jumps, oracle):
                npt.assert_allclose(jump.g_star, g_star, rtol=1e-12, atol=0)
                npt.assert_allclose(jump.drop_factor, drop, rtol=1e-12, atol=0)


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
            table = _Breakpoints.of(freqs, profile, variant)
            (g_b,) = table.boundary([delta0], threshold)
            ceiling = table.ceiling(delta0)
            if np.isinf(g_b):
                # delocalized at any coupling
                assert table.cat_sizes(ceiling, [1e30])[0, 0] <= log_thr
                continue
            finite += 1
            below, above = table.cat_sizes(
                ceiling, [g_b * (1 - 1e-9), g_b * (1 + 1e-9)])[0]
            assert below <= log_thr < above, (k, freqs, profile, delta0)
        assert 40 < finite < 150

    @pytest.mark.parametrize("variant,threshold", BOUNDARY_CASES)
    def test_inside_oracle_bracket(self, variant, threshold):
        rng = np.random.default_rng(22)
        g_grid = np.geomspace(0.05, 20.0, 12)
        for k in range(40):
            freqs, profile, delta0 = _boundary_bath(rng, k)
            (g_b,) = _Breakpoints.of(freqs, profile, variant).boundary(
                [delta0], threshold)
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
            g_b = _Breakpoints.of(np.array([2.0]), np.array([0.5]),
                                  variant).boundary([1.0], threshold)
            npt.assert_allclose(g_b, 4.0 * (-np.log(threshold) / 2) ** (1 / q),
                                rtol=1e-14)

    @pytest.mark.parametrize("variant", ["standard", "literal"])
    def test_rows_that_never_localize(self, variant):
        freqs = np.array([1.0, 1.5, 1.5, 2.0])
        profile = np.array([0.3, 1.0, 0.7, 0.6])
        # above every mode, on the top mode, and with every faster mode
        # uncoupled (profile zero above Delta_0)
        for profile, delta0 in ((profile, [2.5, 2.0]),
                                (np.array([0.3, 1.0, 0.7, 0.0]), [1.5]),
                                (np.zeros(4), [1.2])):
            table = _Breakpoints.of(freqs, profile, variant)
            assert np.all(np.isinf(table.boundary(delta0, 1e-3)))

    def test_rows_match_scalar_calls(self):
        freqs = np.array([1.1, 1.3, 1.3, 1.7, 2.4])
        profile = np.array([0.2, 0.9, 0.4, 1.0, 0.0])
        delta0 = np.array([0.5, 1.1, 1.25, 1.7, 3.0])
        table = _Breakpoints.of(freqs, profile, "literal")
        rows = table.boundary(delta0, 0.3)
        assert rows.shape == (5,)
        for d0, g_b in zip(delta0, rows):
            assert table.boundary([d0], 0.3) == [g_b]


class TestSweepCoupling:
    def _band(self):
        freqs = 1.0 + 0.02 * np.arange(40)
        profile = np.exp(-0.5 * ((freqs - 1.2) / 0.3) ** 2)
        profile /= profile.max()
        return freqs, profile

    def _spectrum(self, g_global):
        freqs, profile = self._band()
        return CouplingSpectrum(frequencies=freqs, relative_profile=profile,
                                g=g_global * profile)

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
                              g=np.ones(30))
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
def small_bath():
    from metaline import build_matrices, coupling_spectrum, solve_modes
    spec = make_band_edge_spec(n_left=40, n_right=60)
    qubit = QubitSpec(delta0=TWO_PI * 4.2e9, position=0.02, extent=0.5e-3,
                      g_global=1.0)
    modes = solve_modes(build_matrices(spec), (TWO_PI * 3.8e9, TWO_PI * 13e9))
    return spec.omega_ir, coupling_spectrum(modes, spec, qubit)


class TestPhaseDiagram:
    def test_row_matches_sweep(self, small_bath):
        omega_ir, couplings = small_bath
        g_grid = np.geomspace(0.02, 1.5, 15) * omega_ir
        delta0_grid = np.array([1.1, 1.3]) * omega_ir
        diagram = phase_diagram(couplings, g_grid, delta0_grid)
        sweep = sweep_coupling(couplings, delta0_grid[0], g_grid)
        npt.assert_array_equal(diagram.delta_eff_grid[0], sweep.delta_eff)

    def test_zero_coupling_column_delocalized(self, small_bath):
        omega_ir, couplings = small_bath
        g_grid = np.linspace(0.0, 1.5, 12) * omega_ir
        delta0_grid = np.array([1.1, 1.2]) * omega_ir
        diagram = phase_diagram(couplings, g_grid, delta0_grid)
        npt.assert_allclose(diagram.delta_eff_grid[:, 0],
                            delta0_grid, rtol=1e-12)

    # the diagram uses LOCALIZATION_THRESHOLD; other thresholds are
    # covered by TestBoundaryClosedForm
    @pytest.mark.parametrize("variant,threshold",
                             [(v, t) for v, t in BOUNDARY_CASES
                              if t == LOCALIZATION_THRESHOLD])
    def test_boundary_inside_oracle_bracket(self, small_bath, variant,
                                            threshold):
        omega_ir, couplings = small_bath
        g_grid = np.geomspace(0.02, 1.5, 15) * omega_ir
        delta0_grid = np.linspace(0.9, 1.6, 8) * omega_ir
        diagram = phase_diagram(couplings, g_grid, delta0_grid, variant)
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
    def test_nonpositive_delta0_rejected(self, small_bath, delta0):
        omega_ir, couplings = small_bath
        g_grid = np.geomspace(0.02, 1.5, 5) * omega_ir
        with pytest.raises(ValueError, match="positive"):
            phase_diagram(couplings, g_grid, np.array([delta0, 1.2 * omega_ir]))

    def test_grid_validation(self, small_bath):
        omega_ir, couplings = small_bath
        delta0_grid = np.array([1.2 * omega_ir])
        with pytest.raises(ValueError, match="ascending"):
            phase_diagram(couplings, [0.5 * omega_ir], delta0_grid)
        with pytest.raises(ValueError, match="empty coupling spectrum"):
            phase_diagram(_couplings([], []), [0.5, 0.6], delta0_grid)


def _check_boundary_rows(g_axis, delta0_axis, labels, boundary) -> np.ndarray:
    """Each (g*, Delta_0) row of ``boundary`` lies in the grid step where its
    row of ``labels`` first turns localized, and a row that never does has
    none; returns the number of rows of each kind."""
    localized = labels == Phase.LOCALIZED.value
    assert np.all(localized | (labels == Phase.DELOCALIZED.value))
    some = localized.any(axis=1)
    first = np.argmax(localized, axis=1)[some]
    g_star, d0 = np.reshape(boundary, (-1, 2)).T
    npt.assert_array_equal(d0, delta0_axis[some])
    assert np.all(g_axis[np.maximum(first - 1, 0)] <= g_star)
    assert np.all(g_star <= g_axis[first])
    return np.array([some.sum(), (~some).sum()])


def _check_renormalize_labels(diagram, couplings, variant):
    """``renormalize`` at each point of ``diagram`` gives the point's label."""
    for d0, labels in zip(diagram.delta0_axis, diagram.phase):
        for g, label in zip(diagram.g_axis, labels):
            at_g = dataclasses.replace(couplings, g=g * couplings.relative_profile)
            assert renormalize(at_g, d0, variant).phase.value == label


class TestOneLocalizationPredicate:
    """The phase labels of ``phase_diagram`` are the ones ``renormalize``
    gives, the ones the boundary rows come from and the ones phase.csv holds."""

    @pytest.mark.parametrize("variant", ["standard", "literal"])
    def test_random_baths(self, variant):
        rng = np.random.default_rng(43)
        rows = np.zeros(2, dtype=int)
        for _ in range(20):
            freqs, gs, _ = _random_bath(rng, n_max=8)
            cs = _couplings(freqs, gs)
            g_grid = np.geomspace(0.01, rng.uniform(0.2, 3.0), 25)
            delta0_grid = np.sort(rng.uniform(0.2, 3.0, size=5))
            diagram = phase_diagram(cs, g_grid, delta0_grid, variant)
            _check_renormalize_labels(diagram, cs, variant)
            rows += _check_boundary_rows(g_grid, delta0_grid, diagram.phase,
                                         diagram.boundary)
        assert rows.min() >= 10     # rows that localize and rows that never do

    def test_fig5_csv(self, tmp_path):
        ref = resources.files("metaline") / "configs" / "fig5.cfg"
        with resources.as_file(ref) as path:
            assert cli.main(["phase", "--config", str(path), "--out", str(tmp_path)]) == 0
            config = parse_config(path)
        spec, modeset = cli._build_modes(config)
        _, couplings = cli._qubit_and_couplings(config, spec, modeset)
        variant = config["renorm.variant"]
        diagram = phase_diagram(couplings, config.grid("phase.g") * spec.omega_ir,
                                config.grid("phase.delta0") * spec.omega_ir, variant)
        _check_renormalize_labels(diagram, couplings, variant)

        def body(name):
            lines = (tmp_path / config.output_name(name)).read_text().splitlines()
            return np.array([line.split(",") for line in lines
                             if not line.startswith("#")][1:])

        phase = body("phase.csv").reshape(diagram.phase.shape + (4,))
        npt.assert_array_equal(phase[..., 3], diagram.phase)
        boundary = body("boundary.csv").astype(float)
        rows = _check_boundary_rows(phase[0, :, 1].astype(float),
                                    phase[:, 0, 0].astype(float), diagram.phase, boundary)
        assert rows[0] == len(boundary) > 0
