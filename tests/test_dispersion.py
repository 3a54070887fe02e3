import numpy as np
import numpy.testing as npt
import pytest

from metaline import design_from_impedance, dom_approx, rhtl_background_dom
from conftest import OMEGA_IR
from oracles import omega_lhtl, omega_rhtl, uncoupled_mode_density

C_L, L_L = design_from_impedance(50.0, OMEGA_IR)


class TestOmegaRhtl:
    def test_long_wavelength_limit(self):
        assert omega_rhtl(0.0, 1e-14, 1e-11, 1e-4) == 0.0

    def test_band_top(self):
        c, l, dx = 1e-14, 1e-11, 1e-4
        npt.assert_allclose(omega_rhtl(np.pi / dx, c, l, dx),
                            2.0 / np.sqrt(c * l), rtol=1e-12)

    def test_continuum_crossover_with_taylor_bound(self):
        c_r, l_r, dx = 1.6667e-10, 4.1667e-7, 1e-4
        for kdx in (0.3, 0.1, 0.03, 0.01):
            k = kdx / dx
            discrete = omega_rhtl(k, c_r * dx, l_r * dx, dx)
            continuum = k / np.sqrt(c_r * l_r)
            assert abs(discrete / continuum - 1) <= kdx ** 2 / 24 + 1e-12

    def test_outside_zone_rejected(self):
        with pytest.raises(ValueError):
            omega_rhtl(1.1 * np.pi / 1e-4, 1e-14, 1e-11, 1e-4)
        with pytest.raises(ValueError):
            omega_rhtl(-1.0, 1e-14, 1e-11, 1e-4)

    def test_monotone_increasing(self):
        dx = 1e-4
        k = np.linspace(0, np.pi / dx, 500)
        w = omega_rhtl(k, 1e-14, 1e-11, dx)
        assert np.all(np.diff(w) > 0)


class TestOmegaLhtl:
    def test_band_edge_is_cutoff(self):
        dx = 1e-4
        npt.assert_allclose(omega_lhtl(np.pi / dx, C_L, L_L, dx), OMEGA_IR,
                            rtol=1e-12)

    def test_half_sine_doubles_cutoff(self):
        dx = 1e-4
        k = (np.pi / 3) / dx            # sin(k dx / 2) = 1/2
        npt.assert_allclose(omega_lhtl(k, C_L, L_L, dx), 2 * OMEGA_IR, rtol=1e-12)

    def test_designed_cells_give_4_ghz_edge(self):
        dx = 1e-4
        assert abs(omega_lhtl(np.pi / dx, C_L, L_L, dx) / (2 * np.pi) - 4e9) < 1.0

    def test_zero_k_diverges(self):
        with pytest.raises(ValueError):
            omega_lhtl(0.0, C_L, L_L, 1e-4)

    def test_monotone_decreasing(self):
        dx = 1e-4
        k = np.linspace(0.01, np.pi, 500) / dx
        w = omega_lhtl(k, C_L, L_L, dx)
        assert np.all(np.diff(w) < 0)


def _ladder_dom(omega, spec):
    """The ladder's share of ``dom_approx``: the total less the strip's."""
    return dom_approx(omega, spec) - rhtl_background_dom(spec)


class TestDomApprox:
    def test_value_at_twice_cutoff(self, band_spec):
        # (4*200*1.99e-11/pi) * tan(pi/6) * sin(pi/6) = 1.462e-9 s/rad
        npt.assert_allclose(_ladder_dom(2 * OMEGA_IR, band_spec), 1.4624e-9,
                            rtol=1e-3)

    def test_matches_dispersion_derivative(self, band_spec):
        # density = -N_l dx / pi * dk/domega, with dk/domega from the
        # analytic inverse k(omega) = (2/dx) arcsin(omega_ir/omega)
        omega = OMEGA_IR * np.array([1.001, 1.01, 1.2, 2.0, 5.0, 20.0])
        s = OMEGA_IR / omega
        dk_domega = -(2.0 / band_spec.cell_pitch) * s / (omega * np.sqrt(1 - s ** 2))
        expected = -band_spec.n_left * band_spec.cell_pitch / np.pi * dk_domega
        npt.assert_allclose(_ladder_dom(omega, band_spec), expected, rtol=1e-9)

    def test_van_hove_edge_asymptotics(self, band_spec):
        # D(omega) sqrt(omega - omega_ir) -> 2 N_l / (pi sqrt(2 omega_ir))
        limit = 2 * band_spec.n_left / (np.pi * np.sqrt(2 * OMEGA_IR))
        for eps in (1e-4, 1e-6, 1e-8):
            omega = OMEGA_IR * (1 + eps)
            val = _ladder_dom(omega, band_spec) * np.sqrt(omega - OMEGA_IR)
            npt.assert_allclose(val, limit, rtol=2 * eps ** 0.5 + 1e-6)

    def test_background_term(self, band_spec):
        bg = rhtl_background_dom(band_spec)
        npt.assert_allclose(bg, 0.03 * np.sqrt(4.1667e-7 * 1.6667e-10) / np.pi,
                            rtol=1e-4)

    def test_matches_oracle_at_every_frequency(self, band_spec, band_modes):
        # the strip alone at and below the cutoff, exactly; above it the
        # ladder's slope density on top, at every mode and up to 50 omega_ir
        omega_ir = band_spec.omega_ir
        below = omega_ir * np.append(np.linspace(0.0, 1.0, 21), 1.0 - 1e-12)
        above = np.append(omega_ir * np.geomspace(1.001, 50.0, 40), band_modes.frequencies)
        assert below[-2] == omega_ir and np.all(above > omega_ir)
        background = rhtl_background_dom(band_spec)
        npt.assert_array_equal(dom_approx(below, band_spec), np.full(len(below), background))
        npt.assert_array_equal(dom_approx(below, band_spec),
                               uncoupled_mode_density(below, band_spec))
        npt.assert_allclose(dom_approx(above, band_spec),
                            uncoupled_mode_density(above, band_spec), rtol=1e-12, atol=0)
        value = dom_approx(omega_ir, band_spec)
        assert isinstance(value, float) and value == background
