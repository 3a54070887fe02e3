import sys

import numpy as np
import pytest

import metaline.modes
from metaline import (CircuitSpec, NetworkBands, NetworkMatrices, QubitSpec,
                      build_matrices, coupling_spectrum, design_from_impedance,
                      footprint_at_antinode, rhtl_from_impedance, solve_modes)

TWO_PI = 2.0 * np.pi
OMEGA_IR = TWO_PI * 4e9
WINDOW = (TWO_PI * 3.8e9, TWO_PI * 13e9)
ULTRASTRONG_BAND = (TWO_PI * 4.119e9, TWO_PI * 5.039e9)


def make_band_edge_spec(n_left=200, n_right=300) -> CircuitSpec:
    """The reference device: 50 ohm cells, 4 GHz cutoff, 3 cm full-wave strip."""
    c_l, l_l = design_from_impedance(50.0, OMEGA_IR)
    c_r, l_r = rhtl_from_impedance(50.0, 0.03 * 4e9)
    return CircuitSpec(n_left=n_left, c_left=c_l, l_left=l_l,
                       cell_pitch=100e-6, rhtl_length=0.03,
                       c_right_per_len=c_r, l_right_per_len=l_r,
                       n_right=n_right)


def wrap_dense(cap, inv_ind, node_positions, interface_index=0) -> NetworkMatrices:
    """The network of dense tridiagonal (cap, inv_ind), kept as their bands."""
    return NetworkMatrices(
        bands=NetworkBands(k_diag=np.diag(inv_ind), k_off=np.diag(inv_ind, 1),
                           c_diag=np.diag(cap), c_off=np.diag(cap, 1)),
        node_positions=node_positions, interface_index=interface_index)


@pytest.fixture(scope="session")
def band_spec():
    return make_band_edge_spec()


@pytest.fixture(scope="session")
def band_matrices(band_spec):
    return build_matrices(band_spec)


@pytest.fixture(scope="session")
def band_modes(band_spec, band_matrices):
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
def band_path(monkeypatch):
    """Two-segment devices take the closed form, whatever the size."""
    monkeypatch.setattr(metaline.modes, "_DENSE_DIMS", range(0))


@pytest.fixture
def dense_path(monkeypatch):
    """Every ``solve_modes`` call takes dense eigh, whatever the size."""
    monkeypatch.setattr(metaline.modes, "_DENSE_DIMS", range(sys.maxsize))
