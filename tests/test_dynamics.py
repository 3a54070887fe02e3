import numpy as np
import numpy.testing as npt
import pytest

from metaline import (CouplingSpectrum, Eigensystem, binary_entropy,
                      build_rwa_hamiltonian, diagonalize, dynamics, entropy_scan)
from oracles import (entropy_after_tracing, evolve, long_double_entropy,
                     long_double_populations)

LN2 = np.log(2.0)


def _couplings(freqs, gs, g_global=1.0):
    freqs = np.asarray(freqs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    rel = gs / g_global
    return CouplingSpectrum(frequencies=freqs, relative_profile=rel, g=gs)


def _random_state(rng, n):
    raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return raw / np.linalg.norm(raw)


def _scan(freqs, gs, delta0, t):
    """``entropy_scan`` of |1;0> at time ``t`` under the RWA Hamiltonian."""
    h = build_rwa_hamiltonian(_couplings(freqs, gs), delta0)
    return entropy_scan(diagonalize(h), t)


class TestBuildHamiltonian:
    def test_resonant_jaynes_cummings_block(self):
        omega, g = 2 * np.pi * 5e9, 2 * np.pi * 5e7
        h = build_rwa_hamiltonian(_couplings([omega], [g]), delta0=omega)
        npt.assert_allclose(h, [[omega, g], [g, omega]])

    def test_decoupled_is_diagonal(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0, 3.0], [0, 0, 0]), 1.5)
        npt.assert_allclose(h, np.diag([1.5, 1.0, 2.0, 3.0]))

    def test_arrowhead_structure(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]), 1.5)
        interior = h[1:, 1:]
        npt.assert_allclose(interior - np.diag(np.diag(interior)), 0.0)
        npt.assert_allclose(h[0, 1:], [0.1, 0.2, 0.3])
        npt.assert_allclose(h, h.T)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_rwa_hamiltonian(_couplings([], []), 1.0)


class TestEvolve:
    """The oracle propagator that the entropies are checked on."""

    def test_resonant_rabi_oscillation(self):
        omega, g = 2 * np.pi * 5e9, 2 * np.pi * 5e7
        h = build_rwa_hamiltonian(_couplings([omega], [g]), delta0=omega)
        times = np.linspace(0, 3 / (g / (2 * np.pi)), 40)
        for t, psi in zip(times, evolve(h, [1.0, 0.0], times)):
            # global phase exp(-i omega t) times cos(g t)
            assert abs(abs(psi[0]) - abs(np.cos(g * t))) < 1e-6

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(0)
        psi0 = _random_state(rng, 5)
        h = np.diag(np.arange(6.0))
        (psi,) = evolve(h, psi0, [0.0])
        npt.assert_allclose(psi, psi0, atol=1e-15)

    def test_decoupled_qubit_stays_put(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0], [0.0, 0.0]), 1.5)
        for psi in evolve(h, [1.0, 0.0, 0.0], [0.3, 1.7, 9.1]):
            assert abs(abs(psi[0]) - 1.0) < 1e-12

    def test_norm_conserved(self):
        rng = np.random.default_rng(1)
        n = 12
        h = rng.normal(size=(n + 1, n + 1))
        h = 0.5 * (h + h.T)
        psi0 = _random_state(rng, n)
        for psi in evolve(h, psi0, np.linspace(0, 50, 30)):
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-9

    def test_energy_conserved(self):
        rng = np.random.default_rng(2)
        n = 8
        h = rng.normal(size=(n + 1, n + 1))
        h = 0.5 * (h + h.T)
        psi0 = _random_state(rng, n)
        e0 = None
        for psi in evolve(h, psi0, np.linspace(0, 20, 15)):
            e = float(np.real(psi.conj() @ h @ psi))
            e0 = e if e0 is None else e0
            assert abs(e - e0) <= 1e-8 * abs(e0)

    def test_time_reversal(self):
        rng = np.random.default_rng(3)
        n = 6
        h = rng.normal(size=(n + 1, n + 1))
        h = 0.5 * (h + h.T)
        psi0 = _random_state(rng, n)
        (fwd,) = evolve(h, psi0, [2.3])
        (back,) = evolve(h, fwd, [-2.3])
        npt.assert_allclose(back, psi0, atol=1e-8)


class TestDiagonalize:
    def _h(self):
        return build_rwa_hamiltonian(
            _couplings([1.0, 1.3, 2.0, 2.2], [0.1, 0.3, 0.2, 0.05]), 1.5)

    def test_returns_eigensystem(self):
        h = self._h()
        eig = diagonalize(h)
        assert isinstance(eig, Eigensystem) and eig.dim == 5
        npt.assert_allclose(eig.evecs @ np.diag(eig.evals) @ eig.evecs.T, h,
                            atol=1e-14)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            diagonalize(np.array([[1.0, 0.5], [0.1, 2.0]]))


class TestEntropies:
    """The closed-form entropies of ``entropy_scan`` on states of known
    entanglement, reached by resonant exchange with some of the modes."""

    def test_product_state_zero(self):
        # a decoupled qubit stays excited: qubit and modes stay a product
        rep = _scan([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 1.5, 7.3)
        npt.assert_allclose([rep.e_qubit, *rep.e_per_mode], 0.0, rtol=0, atol=1e-12)

    def test_maximal_bipartite(self):
        # one resonant mode: |c0|^2 = cos^2(g t) = 1/2 at g t = pi/4
        rep = _scan([1.0, 2.0], [0.1, 0.0], 1.0, np.pi / 4 / 0.1)
        npt.assert_allclose(rep.e_qubit, LN2, rtol=1e-12)

    def test_all_amplitude_on_traced_mode(self):
        # the photon is all in mode 1 at g t = pi/2: tracing it leaves vacuum
        rep = _scan([0.5, 1.0, 2.0], [0.0, 0.1, 0.0], 1.0, np.pi / 2 / 0.1)
        assert abs(rep.e_per_mode[1]) <= 1e-12

    def test_two_mode_example(self):
        # |c0|^2 = |c_0|^2 = 1/2 and mode 1 empty: tracing mode 1 leaves a
        # maximally entangled qubit and mode 0
        rep = _scan([1.0, 2.0], [0.1, 0.0], 1.0, np.pi / 4 / 0.1)
        npt.assert_allclose(rep.e_per_mode[1], LN2, rtol=1e-12)

    def test_uniform_spread_exceeds_qubit_entropy(self):
        # n degenerate resonant modes: the qubit hands its excitation to their
        # symmetric combination at g sqrt(n) t = pi/2, so c0 = 0, c_m = 1/sqrt(n)
        n, g = 6, 0.05
        rep = _scan(np.ones(n), np.full(n, g), 1.0, np.pi / 2 / (g * np.sqrt(n)))
        assert abs(rep.e_qubit) <= 1e-12
        npt.assert_allclose(rep.e_per_mode, binary_entropy(1.0 / n), rtol=1e-12)
        assert np.all(rep.e_per_mode > 0)

    def test_against_partial_trace_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            h = build_rwa_hamiltonian(
                _couplings(np.sort(rng.uniform(1.0, 2.0, n)),
                           rng.uniform(0.0, 0.3, n)), rng.uniform(1.0, 2.0))
            t = rng.uniform(0.0, 50.0)
            (psi,) = evolve(h, np.eye(n + 1)[0], [t])
            rep = entropy_scan(diagonalize(h), t)
            npt.assert_allclose(rep.e_qubit,
                                entropy_after_tracing(psi[0], psi[1:], [0]),
                                atol=1e-9)
            npt.assert_allclose(
                rep.e_per_mode,
                [entropy_after_tracing(psi[0], psi[1:], [0, 1 + m]) for m in range(n)],
                atol=1e-9)


class TestEntropyScan:
    def test_matches_entropies_of_evolved_state(self):
        # real-product populations against the oracle's complex state
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            h = build_rwa_hamiltonian(
                _couplings(np.sort(rng.uniform(1.0, 2.0, n)),
                           rng.uniform(0.0, 0.1, n)), rng.uniform(1.0, 2.0))
            eig = diagonalize(h)
            for t in (0.0, *rng.uniform(0.0, 500.0, 3)):
                rep = entropy_scan(eig, t)
                (psi,) = evolve(h, np.eye(n + 1)[0], [t])
                p = abs(psi[0]) ** 2
                npt.assert_allclose(rep.e_qubit, binary_entropy(p), rtol=0, atol=1e-12)
                npt.assert_allclose(rep.e_per_mode,
                                    binary_entropy(p + np.abs(psi[1:]) ** 2),
                                    rtol=0, atol=1e-12)

    def test_time_zero_all_zero(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0], [0.1, 0.2]), 1.5)
        rep = entropy_scan(diagonalize(h), 0.0)
        assert rep.e_qubit == 0.0
        npt.assert_allclose(rep.e_per_mode, 0.0)

    def test_single_mode_leaves_nothing_entangled(self):
        omega, g = 2 * np.pi * 5e9, 2 * np.pi * 5e7
        rep = _scan([omega], [g], omega, 0.25 / (g / (2 * np.pi)))
        assert rep.e_per_mode[0] < 1e-12

    def test_spread_regime_witness(self):
        # dense near-resonant comb: E_n >= E_q for every populated mode
        freqs = 1.0 + 0.01 * np.arange(30)
        gs = np.full(30, 0.02)
        h = build_rwa_hamiltonian(_couplings(freqs, gs, g_global=0.02), 1.05)
        eig = diagonalize(h)
        for tg in (1.0, 3.0, 7.0):
            rep = entropy_scan(eig, tg / 0.02)
            assert rep.time == tg / 0.02
            assert rep.e_qubit > 0
            (psi,) = evolve(h, np.eye(31)[0], [tg / 0.02])
            populated = np.abs(psi[1:]) ** 2 > 1e-6
            assert np.all(rep.e_per_mode[populated] >= rep.e_qubit - 1e-12)


EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                              reason="the reference needs an extended-precision long double")


def _bath(seed):
    """A sector of the bath's size (164 modes from 4 to 13 GHz, couplings
    near 0.2 GHz, qubit at 4.2 GHz, in rad/s) and its tg = 1 time."""
    rng = np.random.default_rng(seed)
    ghz = 2 * np.pi * 1e9
    h = build_rwa_hamiltonian(_couplings(np.sort(rng.uniform(4.0, 13.0, 164)) * ghz,
                                         rng.uniform(0.05, 0.3, 164) * ghz), 4.2 * ghz)
    return diagonalize(h), 1.0 / (0.2 * ghz)


class TestBatchedScan:
    """``entropy_scan`` of a 1-D array of times against its scalar calls
    and against a long-double propagation of the same decomposition."""

    def test_array_matches_scalar_calls(self):
        eig, unit = _bath(0)
        times = np.concatenate([[0.0], np.random.default_rng(1).uniform(0, 20, 40)]) * unit
        rep = entropy_scan(eig, times)
        assert rep.time.shape == rep.e_qubit.shape == (41,)
        assert rep.e_per_mode.shape == (41, 164)
        for k, t in enumerate(times):
            one = entropy_scan(eig, t)
            assert rep.time[k] == one.time == t
            npt.assert_allclose(rep.e_qubit[k], one.e_qubit, rtol=1e-13, atol=0)
            npt.assert_allclose(rep.e_per_mode[k], one.e_per_mode, rtol=1e-13, atol=0)

    def test_time_zero_columns_exact(self):
        eig, unit = _bath(2)
        times = np.array([0.0, 3.0, 0.0, 7.5, 0.0]) * unit
        rep = entropy_scan(eig, times)
        zero = times == 0.0
        assert np.all(rep.e_qubit[zero] == 0.0)
        assert np.all(rep.e_per_mode[zero] == 0.0)
        assert np.all(rep.e_qubit[~zero] > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_phases_raise(self):
        eig, unit = _bath(0)
        with pytest.raises(ArithmeticError, match="not finite"):
            entropy_scan(eig, np.array([0.0, 1.0, 1e300]) * unit)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phases_without_precision_raise(self):
        # phases up to about 6.5e7 rad err by at most 4e-9 rad, which the
        # first-order correction takes; at about 6.5e10 rad they err by
        # microradians, and the entropies would carry that
        eig, unit = _bath(0)
        entropy_scan(eig, np.array([0.0, 1.0, 1e6]) * unit)
        with pytest.raises(ArithmeticError, match="lost their precision"):
            entropy_scan(eig, np.array([0.0, 1.0, 1e9]) * unit)

    @pytest.mark.parametrize("t", [0.0, 2.5, np.float64(2.5), np.array(2.5)])
    def test_scalar_keeps_return_types(self, t):
        eig, unit = _bath(3)
        rep = entropy_scan(eig, t * unit)
        assert type(rep.time) is float and type(rep.e_qubit) is float
        assert isinstance(rep.e_per_mode, np.ndarray) and rep.e_per_mode.shape == (164,)

    @EXTENDED
    def test_matches_long_double_propagation(self):
        # phases of up to 1300 rad: rounded to double, they alone put about
        # 2e-15 on an entropy here (1e-14 on the bath workload's)
        for seed in (4, 5):
            eig, unit = _bath(seed)
            times = np.linspace(0.5, 20.0, 40) * unit
            rep = entropy_scan(eig, times)
            pop = long_double_populations(eig.evals, eig.evecs, times)
            e_qubit = long_double_entropy(pop[0])
            e_per_mode = long_double_entropy(pop[0] + pop[1:]).T
            for got, want in ((rep.e_qubit, e_qubit), (rep.e_per_mode, e_per_mode)):
                assert float(np.max(np.abs(got - want) / np.maximum(want, 1e-300))) < 1e-15

    @EXTENDED
    @pytest.mark.parametrize("dim", [165, 512, 700, 1000])
    def test_leading_slices_multiply_exactly(self, dim):
        # same-sign entries next to the largest make the biggest sums the
        # slices can: above 512 terms, 22-bit slices would overflow 2^53
        rng = np.random.default_rng(dim)
        a, x = rng.uniform(0.95, 1.0, (dim, dim)), rng.uniform(0.95, 1.0, (dim, 8))
        bits = dynamics._slice_bits(dim)
        a_hi, _ = dynamics._leading(a, 1, bits)
        x_hi, _ = dynamics._leading(x, 0, bits)
        want = a_hi.astype(np.longdouble) @ x_hi.astype(np.longdouble)
        assert np.array_equal(a_hi @ x_hi, want)

    @EXTENDED
    @pytest.mark.parametrize("macs", [dynamics._PRODUCT_MACS, 50_000])
    def test_product_rounds_about_once(self, monkeypatch, macs):
        # the plain product of these factors is off by about 5 ulp on
        # average; 50 000 multiply-adds cut it into 19 row blocks, the last short
        monkeypatch.setattr(dynamics, "_PRODUCT_MACS", macs)
        eig, _ = _bath(6)
        x = np.random.default_rng(7).normal(size=(165, 32)) * eig.evecs[0][:, None]
        got = dynamics._product(eig, x)
        want = eig.evecs.astype(np.longdouble) @ x.astype(np.longdouble)
        ulps = np.abs(got - want) / np.spacing(np.abs(got))
        assert float(ulps.mean()) < 0.5
