"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The bundled figure configs drive criteria that reference them.
"""

import time
from importlib import resources

import numpy as np
import pytest

from metaline import (CouplingSpectrum, QubitSpec, binary_entropy,
                      build_matrices, build_rwa_hamiltonian, coupling_spectrum,
                      diagonalize, dom_approx, dom_numeric, entropy_scan,
                      footprint_at_antinode, renormalize, solve_modes,
                      sweep_coupling, phase_diagram)
from metaline.config import GHZ, parse_config
from conftest import OMEGA_IR, TWO_PI, WINDOW, make_band_edge_spec, wrap_dense
from oracles import (entropy_after_tracing, evolve, grid_search_fixed_point,
                     omega_lhtl, omega_rhtl, sign_changes, stamped_lhtl,
                     stamped_rhtl)


def _config(name):
    ref = resources.files("metaline") / "configs" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return parse_config(path)


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_band_edge():
    cfg = _config("fig2")
    t0 = time.perf_counter()
    spec = cfg.circuit_spec()
    modes = solve_modes(build_matrices(spec), cfg.freq_window())
    elapsed = time.perf_counter() - t0
    lowest = modes.frequencies[0]
    assert 1.000 * TWO_PI * 4e9 <= lowest <= 1.005 * TWO_PI * 4e9
    assert elapsed <= 10.0
    _report(1, "band edge",
            f"lowest mode {lowest / GHZ:.6f} GHz in [4.000, 4.020], "
            f"{elapsed:.2f} s")


def test_criterion_2_dom_agreement(band_spec, band_modes):
    w = band_modes.frequencies
    nearest_edge = np.argsort(np.abs(w - OMEGA_IR))[:3]
    sel = (w > 1.05 * OMEGA_IR) & (w < 3.0 * OMEGA_IR)
    sel[nearest_edge] = False
    closed = dom_approx(w[sel], band_spec, include_rhtl_background=True)
    dev = np.abs(dom_numeric(band_modes)[sel] / closed - 1)
    assert dev.max() <= 0.05
    _report(2, "DoM agreement",
            f"{sel.sum()} modes, max deviation {dev.max():.3%} <= 5%")


def test_criterion_3_band_count(band_modes):
    w = band_modes.frequencies
    count = int(np.sum((w >= TWO_PI * 4.119e9) & (w <= TWO_PI * 5.039e9)))
    assert 45 <= count <= 55
    _report(3, "multimode band count",
            f"{count} modes in 4.579 +- 0.460 GHz (50 +- 5)")


def test_criterion_4_mode_profiles(band_modes):
    iface = band_modes.interface_index
    # voltages are omega_n times the flux profiles: the same cosines
    strip = [band_modes.profiles[iface:, n] for n in range(3)]
    sims = []
    for i in range(3):
        for j in range(i + 1, 3):
            sims.append(strip[i] @ strip[j]
                        / (np.linalg.norm(strip[i]) * np.linalg.norm(strip[j])))
    assert min(sims) >= 0.99
    counts = [sign_changes(band_modes.profiles[:iface, n]) for n in range(3)]
    steps = np.diff(counts)
    assert np.all(np.abs(steps) == 1) and len(set(np.sign(steps))) == 1
    _report(4, "mode-profile similarity",
            f"min cosine {min(sims):.6f} >= 0.99; ladder node counts {counts}")


def test_criterion_5_dispersion_oracles(band_spec):
    ell = band_spec.rhtl_length
    c_r, l_r = band_spec.c_right_per_len, band_spec.l_right_per_len
    worst = 0.0
    freqs = {}
    for n_right in (300, 600):
        cap, ki = stamped_rhtl(c_r, l_r, ell, n_right)
        ms = solve_modes(wrap_dense(cap, ki, np.linspace(0, ell, n_right + 1)))
        delta = ell / n_right
        k = np.arange(1, 11) * np.pi / ell
        exact = omega_rhtl(k, c_r * delta, l_r * delta, delta)
        worst = max(worst, np.abs(ms.frequencies[:10] / exact - 1).max())
        freqs[n_right] = ms.frequencies[:10]
    stability_r = np.abs(freqs[600] / freqs[300] - 1).max()

    n = band_spec.n_left
    cap, ki = stamped_lhtl(*band_spec.cell_values())
    cap = cap + np.eye(n + 1) * band_spec.c_left * 1e-9
    ms = solve_modes(wrap_dense(cap, ki, np.linspace(0, 1, n + 1)))
    k = np.arange(n - 1, n - 11, -1) * np.pi / (n * band_spec.cell_pitch)
    exact = np.sort(omega_lhtl(k, band_spec.c_left, band_spec.l_left,
                               band_spec.cell_pitch))
    worst_l = np.abs(ms.frequencies[:10] / exact - 1).max()

    ms300 = solve_modes(build_matrices(band_spec))
    ms600 = solve_modes(build_matrices(make_band_edge_spec(n_right=600)))
    stability_h = np.abs(ms300.frequencies[:50] / ms600.frequencies[:50] - 1).max()

    assert worst <= 1e-3 and worst_l <= 1e-3
    assert stability_r <= 1e-3 and stability_h <= 1e-3
    _report(5, "dispersion oracles",
            f"strip {worst:.2e}, ladder {worst_l:.2e} vs closed form; "
            f"doubling drift {max(stability_r, stability_h):.2e} <= 1e-3")


def test_criterion_6_dynamics_invariants(band_spec, band_modes):
    # conservation laws on the band-edge bath
    cfg = _config("fig3")
    x0 = footprint_at_antinode(band_modes, band_spec,
                               cfg["qubit.target_mode_ghz"] * GHZ, 0.5e-3)
    qubit = QubitSpec(delta0=cfg["qubit.freq_ghz"] * GHZ, position=x0,
                      extent=0.5e-3, g_global=cfg["qubit.g_ghz"] * GHZ)
    couplings = coupling_spectrum(band_modes, band_spec, qubit)
    h = build_rwa_hamiltonian(couplings, qubit.delta0)
    eig = diagonalize(h)
    psi0 = np.eye(len(couplings) + 1)[0]
    times = np.linspace(0.0, 10.0, 41) / qubit.g_global
    e0 = qubit.delta0
    for t, v in zip(times, evolve(h, psi0, times)):
        assert abs(np.vdot(v, v).real - 1.0) <= 1e-9
        assert abs(np.real(v.conj() @ h @ v) - e0) <= 1e-8 * e0
        # the library's real-product populations give the same entropies
        rep = entropy_scan(eig, t)
        assert abs(rep.e_qubit - binary_entropy(abs(v[0]) ** 2)) <= 1e-9

    # resonant single-mode Rabi oscillation
    omega, g = TWO_PI * 5e9, TWO_PI * 5e7
    h2 = build_rwa_hamiltonian(
        CouplingSpectrum(frequencies=np.array([omega]),
                         relative_profile=np.array([1.0]),
                         g=np.array([g]), g_global=g), delta0=omega)
    ts = np.linspace(0, 4 * np.pi / g, 60)
    for t, psi in zip(ts, evolve(h2, [1.0, 0.0], ts)):
        assert abs(abs(psi[0]) - abs(np.cos(g * t))) <= 1e-6

    # entropy_scan against the brute-force partial-trace oracle on the
    # propagated states of random baths
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        freqs = np.sort(rng.uniform(0.5, 3.0, size=n))
        gs = rng.uniform(0.0, 0.5, size=n)
        h = build_rwa_hamiltonian(
            CouplingSpectrum(frequencies=freqs, relative_profile=gs / gs.max(),
                             g=gs, g_global=gs.max()), rng.uniform(0.5, 3.0))
        t = rng.uniform(0.0, 30.0)
        (psi,) = evolve(h, np.eye(n + 1)[0], [t])
        rep = entropy_scan(diagonalize(h), t)
        worst = max(worst, abs(rep.e_qubit
                               - entropy_after_tracing(psi[0], psi[1:], [0])))
        m = int(rng.integers(0, n))
        worst = max(worst, abs(rep.e_per_mode[m]
                               - entropy_after_tracing(psi[0], psi[1:], [0, 1 + m])))
    assert worst <= 1e-9
    _report(6, "dynamics invariants",
            f"norm/energy conserved; Rabi 1e-6; oracle gap {worst:.1e} <= 1e-9")


def test_criterion_7_entanglement_witness(band_spec, band_modes):
    cfg = _config("fig3")
    assert cfg["qubit.freq_ghz"] * GHZ == pytest.approx(1.05 * OMEGA_IR)
    x0 = footprint_at_antinode(band_modes, band_spec,
                               cfg["qubit.target_mode_ghz"] * GHZ, 0.5e-3)
    qubit = QubitSpec(delta0=cfg["qubit.freq_ghz"] * GHZ, position=x0,
                      extent=0.5e-3, g_global=cfg["qubit.g_ghz"] * GHZ)
    couplings = coupling_spectrum(band_modes, band_spec, qubit)
    h = build_rwa_hamiltonian(couplings, qubit.delta0)
    eig = diagonalize(h)
    psi0 = np.eye(len(couplings) + 1)[0]
    margins = []
    for tg in range(1, 11):
        t = tg / qubit.g_global
        rep = entropy_scan(eig, t, time_label=float(tg))
        (psi,) = evolve(h, psi0, [t])
        populated = np.abs(psi[1:]) ** 2 > 1e-6
        assert rep.e_qubit > 0
        assert np.all(rep.e_per_mode[populated] >= rep.e_qubit - 1e-12)
        margins.append((rep.e_per_mode[populated] - rep.e_qubit).min())
    _report(7, "entanglement witness",
            f"E_n >= E_q for all populated modes at tg=1..10 "
            f"(worst margin {min(margins):.2e})")


def test_criterion_8_discontinuous_transition(band_spec, band_modes):
    cfg = _config("fig4")
    x0 = footprint_at_antinode(band_modes, band_spec,
                               cfg["qubit.target_mode_ghz"] * GHZ, 0.5e-3)
    qubit = QubitSpec(delta0=cfg["qubit.freq_ghz"] * GHZ, position=x0,
                      extent=0.5e-3, g_global=1.0)
    couplings = coupling_spectrum(band_modes, band_spec, qubit,
                                  cfg["coupling.normalization"])
    g_grid = cfg.grid("renorm.g") * band_spec.omega_ir
    sweep = sweep_coupling(couplings, qubit.delta0, g_grid,
                           cfg["renorm.variant"])
    assert np.all(np.diff(sweep.delta_eff) <= 1e-15)
    assert np.all(np.diff(sweep.delta_eff_flat) <= 1e-15)
    big = [j for j in sweep.jumps if j.drop_factor > 1e2]
    assert len(big) == 1
    jump = big[0]

    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 6))
        freqs = np.sort(rng.uniform(0.5, 3.0, size=n))
        gs = rng.uniform(0.01, 0.8, size=n)
        delta0 = rng.uniform(0.2, 2.5)
        variant = "standard" if k % 2 == 0 else "literal"
        cs = CouplingSpectrum(frequencies=freqs,
                              relative_profile=gs / gs.max(),
                              g=gs, g_global=gs.max())
        res = renormalize(cs, delta0, variant)
        oracle = grid_search_fixed_point(freqs, gs, delta0, variant)
        worst = max(worst, abs(res.delta_eff / oracle - 1))
    assert worst <= 1e-6
    _report(8, "discontinuous transition",
            f"one jump at g*/omega_ir={jump.g_star / band_spec.omega_ir:.4f} "
            f"(drop x{jump.drop_factor:.1e} > 1e2); oracle gap {worst:.1e}")


def test_criterion_9_phase_diagram(band_spec, band_modes):
    cfg = _config("fig5")
    x0 = footprint_at_antinode(band_modes, band_spec,
                               cfg["qubit.target_mode_ghz"] * GHZ, 0.5e-3)
    qubit = QubitSpec(delta0=cfg["qubit.freq_ghz"] * GHZ, position=x0,
                      extent=0.5e-3, g_global=1.0)
    omega_ir = band_spec.omega_ir
    g_grid = cfg.grid("phase.g") * omega_ir
    delta0_grid = cfg.grid("phase.delta0") * omega_ir
    diagram = phase_diagram(band_spec, qubit, g_grid, delta0_grid,
                            freq_window=cfg.freq_window(),
                            normalization=cfg["coupling.normalization"],
                            variant=cfg["renorm.variant"])
    ratios = diagram.delta_eff_grid / delta0_grid[:, None]
    assert np.any(ratios < diagram.localization_threshold)      # localized
    assert np.any(ratios > 0.5)                                 # delocalized
    assert np.all((delta0_grid > 1.05 * omega_ir)
                  & (delta0_grid < 1.5 * omega_ir))
    assert len(diagram.boundary) == len(delta0_grid)            # finite g* per row

    # finite-size trend: halving the ladder strictly raises the boundary
    d0 = 1.2 * omega_ir
    half_spec = make_band_edge_spec(n_left=100)
    half_modes = solve_modes(build_matrices(half_spec), WINDOW)
    x0h = footprint_at_antinode(half_modes, half_spec, TWO_PI * 4.579e9, 0.5e-3)
    qubit_h = QubitSpec(delta0=d0, position=x0h, extent=0.5e-3, g_global=1.0)
    full = phase_diagram(band_spec, qubit, g_grid, np.array([d0]),
                         freq_window=cfg.freq_window(),
                         variant=cfg["renorm.variant"])
    half = phase_diagram(half_spec, qubit_h, g_grid, np.array([d0]),
                         freq_window=cfg.freq_window(),
                         variant=cfg["renorm.variant"])
    g_full = full.boundary[0][0]
    g_half = half.boundary[0][0]
    assert g_half > g_full
    _report(9, "phase diagram",
            f"both phases present, {len(diagram.boundary)} boundary points; "
            f"halving N_l moves g*/omega_ir {g_full / omega_ir:.3f} -> "
            f"{g_half / omega_ir:.3f}")
