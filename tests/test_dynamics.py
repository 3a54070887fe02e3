import numpy as np
import numpy.testing as npt
import pytest

from metaline import (CouplingSpectrum, Eigensystem, SingleExcitationState,
                      binary_entropy, build_rwa_hamiltonian, diagonalize,
                      entropy_minus_mode, entropy_qubit, entropy_scan, evolve)
from oracles import entropy_after_tracing

LN2 = np.log(2.0)


def _couplings(freqs, gs, g_global=1.0):
    freqs = np.asarray(freqs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    rel = gs / g_global
    return CouplingSpectrum(frequencies=freqs, relative_profile=rel, g=gs,
                            g_global=g_global)


def _random_state(rng, n):
    raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    raw /= np.linalg.norm(raw)
    return SingleExcitationState(c0=complex(raw[0]), c=raw[1:])


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
    def test_resonant_rabi_oscillation(self):
        omega, g = 2 * np.pi * 5e9, 2 * np.pi * 5e7
        h = build_rwa_hamiltonian(_couplings([omega], [g]), delta0=omega)
        psi0 = SingleExcitationState(c0=1.0, c=np.zeros(1))
        times = np.linspace(0, 3 / (g / (2 * np.pi)), 40)
        for t, psi in zip(times, evolve(h, psi0, times)):
            # global phase exp(-i omega t) times cos(g t)
            assert abs(abs(psi.c0) - abs(np.cos(g * t))) < 1e-6

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(0)
        psi0 = _random_state(rng, 5)
        h = np.diag(np.arange(6.0))
        (psi,) = evolve(h, psi0, [0.0])
        npt.assert_allclose(psi.as_vector(), psi0.as_vector(), atol=1e-15)

    def test_decoupled_qubit_stays_put(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0], [0.0, 0.0]), 1.5)
        psi0 = SingleExcitationState(c0=1.0, c=np.zeros(2))
        for psi in evolve(h, psi0, [0.3, 1.7, 9.1]):
            assert abs(abs(psi.c0) - 1.0) < 1e-12

    def test_norm_conserved(self):
        rng = np.random.default_rng(1)
        n = 12
        h = rng.normal(size=(n + 1, n + 1))
        h = 0.5 * (h + h.T)
        psi0 = _random_state(rng, n)
        for psi in evolve(h, psi0, np.linspace(0, 50, 30)):
            total = abs(psi.c0) ** 2 + np.sum(np.abs(psi.c) ** 2)
            assert abs(total - 1.0) < 1e-9

    def test_energy_conserved(self):
        rng = np.random.default_rng(2)
        n = 8
        h = rng.normal(size=(n + 1, n + 1))
        h = 0.5 * (h + h.T)
        psi0 = _random_state(rng, n)
        e0 = None
        for psi in evolve(h, psi0, np.linspace(0, 20, 15)):
            v = psi.as_vector()
            e = float(np.real(v.conj() @ h @ v))
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
        npt.assert_allclose(back.as_vector(), psi0.as_vector(), atol=1e-8)

    def test_rejects_nonsymmetric(self):
        h = np.array([[1.0, 0.5], [0.1, 2.0]])
        psi0 = SingleExcitationState(c0=1.0, c=np.zeros(1))
        with pytest.raises(ValueError, match="symmetric"):
            evolve(h, psi0, [1.0])

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            SingleExcitationState(c0=1.0, c=np.array([0.5]))


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

    def test_evolve_same_bytes_as_matrix(self):
        h = self._h()
        eig = diagonalize(h)
        psi0 = _random_state(np.random.default_rng(4), 4)
        times = [0.0, 0.7, 3.1, 40.0]
        for a, b in zip(evolve(h, psi0, times), evolve(eig, psi0, times)):
            assert a.as_vector().tobytes() == b.as_vector().tobytes()

    def test_entropy_scan_same_bytes_as_matrix(self):
        h = self._h()
        eig = diagonalize(h)
        for t in (0.0, 0.9, 12.5):
            a, b = entropy_scan(h, t, time_label=t), entropy_scan(eig, t, time_label=t)
            assert (a.time, a.e_qubit) == (b.time, b.e_qubit)
            assert a.e_per_mode.tobytes() == b.e_per_mode.tobytes()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            diagonalize(np.array([[1.0, 0.5], [0.1, 2.0]]))

    def test_dimension_mismatch(self):
        psi0 = SingleExcitationState(c0=1.0, c=np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            evolve(diagonalize(self._h()), psi0, [1.0])


class TestEntropies:
    def test_product_state_zero(self):
        psi = SingleExcitationState(c0=1.0, c=np.zeros(3))
        assert entropy_qubit(psi) == 0.0

    def test_maximal_bipartite(self):
        psi = SingleExcitationState(c0=1 / np.sqrt(2),
                                    c=np.array([1 / np.sqrt(2), 0.0]))
        npt.assert_allclose(entropy_qubit(psi), LN2, rtol=1e-12)

    def test_all_amplitude_on_traced_mode(self):
        psi = SingleExcitationState(c0=0.0, c=np.array([0.0, 1.0, 0.0]))
        assert entropy_minus_mode(psi, 1) == 0.0

    def test_two_mode_example(self):
        psi = SingleExcitationState(c0=1 / np.sqrt(2),
                                    c=np.array([1 / np.sqrt(2), 0.0]))
        npt.assert_allclose(entropy_minus_mode(psi, 1), LN2, rtol=1e-12)

    def test_uniform_spread_exceeds_qubit_entropy(self):
        n = 6
        psi = SingleExcitationState(c0=0.0, c=np.full(n, 1 / np.sqrt(n)))
        assert entropy_qubit(psi) == 0.0
        for m in range(n):
            npt.assert_allclose(entropy_minus_mode(psi, m),
                                binary_entropy(1.0 / n), rtol=1e-12)
            assert entropy_minus_mode(psi, m) > 0

    def test_against_partial_trace_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            psi = _random_state(rng, n)
            npt.assert_allclose(entropy_qubit(psi),
                                entropy_after_tracing(psi.c0, psi.c, [0]),
                                atol=1e-9)
            for m in range(n):
                npt.assert_allclose(
                    entropy_minus_mode(psi, m),
                    entropy_after_tracing(psi.c0, psi.c, [0, 1 + m]),
                    atol=1e-9)

    def test_mode_index_out_of_range(self):
        psi = SingleExcitationState(c0=1.0, c=np.zeros(2))
        with pytest.raises(IndexError):
            entropy_minus_mode(psi, 2)


class TestEntropyScan:
    def test_matches_entropies_of_evolved_state(self):
        # real-product populations against the complex state from evolve
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            h = build_rwa_hamiltonian(
                _couplings(np.sort(rng.uniform(1.0, 2.0, n)),
                           rng.uniform(0.0, 0.1, n)), rng.uniform(1.0, 2.0))
            psi0 = SingleExcitationState(c0=1.0, c=np.zeros(n))
            for t in (0.0, *rng.uniform(0.0, 500.0, 3)):
                rep = entropy_scan(h, t)
                (psi,) = evolve(h, psi0, [t])
                npt.assert_allclose(rep.e_qubit, entropy_qubit(psi),
                                    rtol=0, atol=1e-12)
                npt.assert_allclose(
                    rep.e_per_mode,
                    [entropy_minus_mode(psi, m) for m in range(n)],
                    rtol=0, atol=1e-12)

    def test_time_zero_all_zero(self):
        h = build_rwa_hamiltonian(_couplings([1.0, 2.0], [0.1, 0.2]), 1.5)
        rep = entropy_scan(h, 0.0)
        assert rep.e_qubit == 0.0
        npt.assert_allclose(rep.e_per_mode, 0.0)

    def test_single_mode_leaves_nothing_entangled(self):
        omega, g = 2 * np.pi * 5e9, 2 * np.pi * 5e7
        h = build_rwa_hamiltonian(_couplings([omega], [g]), delta0=omega)
        rep = entropy_scan(h, 0.25 / (g / (2 * np.pi)))
        assert rep.e_per_mode[0] < 1e-12

    def test_spread_regime_witness(self):
        # dense near-resonant comb: E_n >= E_q for every populated mode
        freqs = 1.0 + 0.01 * np.arange(30)
        gs = np.full(30, 0.02)
        h = build_rwa_hamiltonian(_couplings(freqs, gs, g_global=0.02), 1.05)
        for tg in (1.0, 3.0, 7.0):
            rep = entropy_scan(h, tg / 0.02, time_label=tg)
            assert rep.time == tg
            assert rep.e_qubit > 0
            psi = evolve(h, SingleExcitationState(c0=1.0, c=np.zeros(30)),
                         [tg / 0.02])[0]
            populated = np.abs(psi.c) ** 2 > 1e-6
            assert np.all(rep.e_per_mode[populated] >= rep.e_qubit - 1e-12)
