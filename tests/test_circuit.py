import statistics

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from metaline import (CircuitSpec, NetworkBands, apply_disorder,
                      build_matrices, design_from_impedance, network_bands,
                      rhtl_from_impedance)
from metaline.circuit import _PHI_HI, _PHI_LO, _normal_ppf
from conftest import OMEGA_IR, make_band_edge_spec
from oracles import stamped_lhtl, stamped_matrices, stamped_rhtl


class TestDesignFromImpedance:
    def test_paper_values_50_ohm_4_ghz(self):
        c_l, l_l = design_from_impedance(50.0, OMEGA_IR)
        assert abs(c_l * 1e15 - 398) < 0.5      # 398 fF
        assert abs(l_l * 1e12 - 995) < 0.5      # 995 pH

    def test_cutoff_round_trip(self):
        for z0, omega in [(50.0, OMEGA_IR), (17.3, 2.2e9), (120.0, 8.8e10)]:
            c_l, l_l = design_from_impedance(z0, omega)
            npt.assert_allclose(1.0 / (2 * np.sqrt(c_l * l_l)), omega, rtol=1e-12)

    def test_100_ohm_example(self):
        # direct evaluation: 1/(2 w z) = 198.94 fF, z/(2 w) = 1989.4 pH
        c_l, l_l = design_from_impedance(100.0, OMEGA_IR)
        assert abs(c_l * 1e15 - 199) < 0.5
        assert abs(l_l * 1e12 - 1990) < 1.0

    @pytest.mark.parametrize("z0,omega", [(0.0, 1.0), (-3.0, 1.0), (50.0, 0.0), (50.0, -1.0)])
    def test_rejects_nonpositive(self, z0, omega):
        with pytest.raises(ValueError):
            design_from_impedance(z0, omega)


class TestCircuitSpec:
    def test_derived_quantities(self, band_spec):
        npt.assert_allclose(band_spec.omega_ir, OMEGA_IR, rtol=1e-12)
        # strip impedance sqrt(l_r/c_r) and phase velocity 1/sqrt(l_r c_r)
        l_r, c_r = band_spec.l_right_per_len, band_spec.c_right_per_len
        npt.assert_allclose(np.sqrt(l_r / c_r), 50.0, rtol=1e-12)
        npt.assert_allclose(1.0 / np.sqrt(l_r * c_r), 1.2e8, rtol=1e-12)

    def test_validation_names_offending_fields(self):
        with pytest.raises(ValueError, match="c_left"):
            make_band_edge_spec().__class__(
                n_left=10, c_left=-1e-13, l_left=1e-9, cell_pitch=1e-4,
                rhtl_length=0.03, c_right_per_len=1e-10, l_right_per_len=4e-7)
        with pytest.raises(ValueError, match="n_right"):
            CircuitSpec(n_left=10, c_left=1e-13, l_left=1e-9, cell_pitch=1e-4,
                        rhtl_length=0.03, c_right_per_len=1e-10,
                        l_right_per_len=4e-7, n_right=1)

    def test_cell_arrays_must_match_n_left(self):
        with pytest.raises(ValueError, match="c_left_cells"):
            CircuitSpec(n_left=10, c_left=1e-13, l_left=1e-9, cell_pitch=1e-4,
                        rhtl_length=0.03, c_right_per_len=1e-10,
                        l_right_per_len=4e-7, c_left_cells=np.ones(3) * 1e-13)
        with pytest.raises(ValueError, match="l_left_cells"):    # one device axis at most
            CircuitSpec(n_left=10, c_left=1e-13, l_left=1e-9, cell_pitch=1e-4,
                        rhtl_length=0.03, c_right_per_len=1e-10,
                        l_right_per_len=4e-7, l_left_cells=np.ones((2, 3, 10)) * 1e-9)


class TestBuildMatrices:
    def test_dimensions_and_structure(self, band_spec, band_matrices):
        dim = band_spec.n_left + band_spec.n_right + 1
        assert band_matrices.cap.shape == (dim, dim)
        assert band_matrices.inv_ind.shape == (dim, dim)
        assert band_matrices.interface_index == band_spec.n_left
        assert len(band_matrices.node_positions) == dim
        npt.assert_allclose(band_matrices.node_positions[band_spec.n_left], 0.0)
        npt.assert_allclose(band_matrices.node_positions[-1], 0.03)

    def test_symmetry_and_definiteness(self, band_matrices):
        cap, ki = band_matrices.cap, band_matrices.inv_ind
        npt.assert_allclose(cap, cap.T, rtol=0, atol=0)
        npt.assert_allclose(ki, ki.T, rtol=0, atol=0)
        np.linalg.cholesky(cap)                      # positive definite
        evals = np.linalg.eigvalsh(ki)
        assert evals.min() > -1e-9 * evals.max()     # positive semidefinite

    def test_rhtl_stencil_rows_sum_to_zero(self):
        _, ki = stamped_rhtl(1.667e-10, 4.167e-7, 0.03, 50)
        npt.assert_allclose(ki.sum(axis=1), 0.0, atol=1e-12 * np.abs(ki).max())

    def test_total_strip_capacitance_discretization_invariant(self, band_spec):
        total = band_spec.c_right_per_len * band_spec.rhtl_length
        for n in (50, 300, 600):
            cap, _ = stamped_rhtl(band_spec.c_right_per_len,
                                  band_spec.l_right_per_len,
                                  band_spec.rhtl_length, n)
            npt.assert_allclose(np.trace(cap), total, rtol=1e-12)

    def test_terminating_capacitors_add_to_end_diagonals(self, band_spec):
        bare = build_matrices(band_spec)
        import dataclasses
        capped = build_matrices(dataclasses.replace(
            band_spec, c_end_left=5e-15, c_end_right=7e-15))
        diff = capped.cap - bare.cap
        npt.assert_allclose(diff[0, 0], 5e-15, rtol=1e-12)
        npt.assert_allclose(diff[-1, -1], 7e-15, rtol=1e-12)
        assert np.count_nonzero(diff) == 2
        npt.assert_allclose(capped.inv_ind, bare.inv_ind)

    def test_lhtl_ladder_element_placement(self):
        c = np.full(4, 2e-13)
        l = np.full(4, 1e-9)
        cap, ki = stamped_lhtl(c, l)
        # series caps: +C on both adjacent diagonals, -C off-diagonal
        npt.assert_allclose(np.diag(cap), [2e-13, 4e-13, 4e-13, 4e-13, 2e-13])
        npt.assert_allclose(np.diag(cap, 1), -c)
        # one shunt inductor per cell, none on the outermost node
        npt.assert_allclose(np.diag(ki), [0, 1e9, 1e9, 1e9, 1e9])
        assert np.count_nonzero(ki - np.diag(np.diag(ki))) == 0

    def test_equals_stamped_reference(self, band_spec):
        import dataclasses
        rng = np.random.default_rng(3)
        specs = [band_spec, apply_disorder(band_spec, 0.1, seed=2),
                 dataclasses.replace(band_spec, c_end_left=5e-15, c_end_right=7e-15),
                 make_band_edge_spec(n_left=1, n_right=2)]
        for k in range(6):
            spec = apply_disorder(make_band_edge_spec(int(rng.integers(1, 40)),
                                                      int(rng.integers(2, 60))), 0.2, k)
            if k % 2:
                spec = dataclasses.replace(spec, c_end_left=3e-15, c_end_right=2e-14)
            specs.append(spec)
        for spec in specs:
            mat = build_matrices(spec)
            cap, inv_ind = stamped_matrices(spec)
            npt.assert_array_equal(mat.cap, cap)
            npt.assert_array_equal(mat.inv_ind, inv_ind)

    def test_bands_stack_and_expand(self, band_spec):
        one = network_bands(band_spec)
        dim = band_spec.n_left + band_spec.n_right + 1
        assert one.k_diag.shape == one.c_diag.shape == (dim,)
        assert one.k_off.shape == one.c_off.shape == (dim - 1,)
        two = NetworkBands.stack([one, network_bands(apply_disorder(band_spec, 0.1, 1))])
        assert two.k_diag.shape == (2, dim) and two.c_off.shape == (2, dim - 1)
        mat = build_matrices(band_spec)
        npt.assert_array_equal(np.diag(mat.cap, 1), one.c_off)
        npt.assert_array_equal(np.diag(mat.inv_ind), one.k_diag)

    def test_random_specs_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = CircuitSpec(
                n_left=int(rng.integers(1, 40)),
                c_left=10 ** rng.uniform(-14, -12),
                l_left=10 ** rng.uniform(-10, -8),
                cell_pitch=10 ** rng.uniform(-5, -3),
                rhtl_length=10 ** rng.uniform(-3, -1),
                c_right_per_len=10 ** rng.uniform(-11, -9),
                l_right_per_len=10 ** rng.uniform(-8, -6),
                n_right=int(rng.integers(2, 80)),
            )
            mat = build_matrices(spec)
            dim = spec.n_left + spec.n_right + 1
            assert mat.cap.shape == (dim, dim)
            npt.assert_allclose(mat.cap, mat.cap.T)
            npt.assert_allclose(mat.inv_ind, mat.inv_ind.T)
            np.linalg.cholesky(mat.cap)


class TestApplyDisorder:
    def test_zero_sigma_identity(self, band_spec):
        noisy = apply_disorder(band_spec, 0.0, seed=3)
        npt.assert_allclose(noisy.c_left_cells, band_spec.c_left)
        npt.assert_allclose(noisy.l_left_cells, band_spec.l_left)

    def test_deterministic_for_fixed_seed(self, band_spec):
        a = apply_disorder(band_spec, 0.05, seed=11)
        b = apply_disorder(band_spec, 0.05, seed=11)
        npt.assert_array_equal(a.c_left_cells, b.c_left_cells)
        npt.assert_array_equal(a.l_left_cells, b.l_left_cells)
        c = apply_disorder(band_spec, 0.05, seed=12)
        assert not np.array_equal(a.c_left_cells, c.c_left_cells)

    def test_truncated_at_three_sigma(self, band_spec):
        for seed in range(5):
            noisy = apply_disorder(band_spec, 0.1, seed=seed)
            eps = noisy.c_left_cells / band_spec.c_left - 1
            assert np.all(np.abs(eps) <= 0.3 + 1e-12)

    def test_sample_mean_within_one_percent(self, band_spec):
        # pooled over cells and seeds the standard error is 0.05/sqrt(20000)
        samples = [apply_disorder(band_spec, 0.05, seed=s).c_left_cells
                   for s in range(100)]
        mean = np.mean(samples)
        assert abs(mean / band_spec.c_left - 1) < 0.01

    @pytest.mark.parametrize("n_left", [1, 200])
    @pytest.mark.parametrize("sigma", [0.001, 0.02, 0.3])
    def test_draws_match_scipy_truncnorm(self, sigma, n_left):
        # scipy maps the same uniforms through its log-space truncnorm ppf.
        # Near eps = 0 both draws sit ~1e-16 absolute from the exact one, so
        # a per-draw relative error is ill-conditioned there; the scattered
        # element values are compared instead, relative to themselves.
        spec = make_band_edge_spec(n_left=n_left, n_right=2)
        for seed in range(6):
            noisy = apply_disorder(spec, sigma, seed)
            eps = stats.truncnorm.rvs(-3.0, 3.0, scale=sigma, size=2 * n_left,
                                      random_state=np.random.default_rng(seed))
            npt.assert_allclose(noisy.c_left_cells, spec.c_left * (1 + eps[:n_left]),
                                rtol=1e-13, atol=0)
            npt.assert_allclose(noisy.l_left_cells, spec.l_left * (1 + eps[n_left:]),
                                rtol=1e-13, atol=0)

    def test_normal_ppf_matches_stdlib(self):
        # both ends of the truncation, both AS241 branch switches (|p - 1/2|
        # = 0.425) and a fine grid between them
        p = np.concatenate([np.linspace(_PHI_LO, _PHI_HI, 4001),
                            [0.075, np.nextafter(0.075, 1), 0.925, 0.5]])
        ref = np.array([statistics.NormalDist().inv_cdf(x) for x in p])
        npt.assert_allclose(_normal_ppf(p), ref, rtol=1e-14, atol=0)
        npt.assert_allclose(_normal_ppf(p[[0, 4000]]), [-3.0, 3.0], rtol=1e-14)

    @pytest.mark.parametrize("sigma", [0.0, 0.02, 0.3])
    def test_seed_sequence_matches_per_seed_stack(self, band_spec, sigma):
        # one spec with a leading device axis, whose bands are the per-seed
        # stack's bit for bit, the strip's rows repeated in every device
        seeds = range(1, 51)
        bulk = apply_disorder(band_spec, sigma, seeds)
        assert bulk.devices == (50,) and bulk.c_left_cells.shape == (50, band_spec.n_left)
        for seeds in (range(1, 51), [7]):
            stacked = network_bands(apply_disorder(band_spec, sigma, seeds))
            per_seed = NetworkBands.stack([network_bands(apply_disorder(band_spec, sigma, s))
                                           for s in seeds])
            for name in ("k_diag", "k_off", "c_diag", "c_off"):
                npt.assert_array_equal(getattr(stacked, name), getattr(per_seed, name))
                assert getattr(stacked, name).shape == getattr(per_seed, name).shape

    def test_scalar_seed_draws_one_device(self, band_spec):
        # a scalar seed gives one device: its draws map default_rng(seed)'s
        # uniforms through _normal_ppf, as they always have
        n = band_spec.n_left
        noisy = apply_disorder(band_spec, 0.05, 11)
        u = np.random.default_rng(11).uniform(size=2 * n)
        eps = 0.05 * _normal_ppf(_PHI_LO + u * (_PHI_HI - _PHI_LO))
        assert noisy.devices == ()
        npt.assert_array_equal(noisy.c_left_cells, band_spec.c_left * (1.0 + eps[:n]))
        npt.assert_array_equal(noisy.l_left_cells, band_spec.l_left * (1.0 + eps[n:]))
        npt.assert_array_equal(network_bands(noisy).c_diag,
                               network_bands(apply_disorder(band_spec, 0.05, [11])).c_diag[0])

    def test_build_matrices_refuses_a_stack(self, band_spec):
        with pytest.raises(ValueError, match="one device"):
            build_matrices(apply_disorder(band_spec, 0.02, range(3)))

    @pytest.mark.parametrize("sigma", [-0.01, 1 / 3, 0.4, 0.5, 0.9])
    def test_sigma_out_of_range(self, band_spec, sigma):
        # eps is truncated at 3 sigma, so sigma >= 1/3 could zero an element
        with pytest.raises(ValueError):
            apply_disorder(band_spec, sigma, seed=0)
        with pytest.raises(ValueError):
            apply_disorder(band_spec, sigma, seed=range(3))
