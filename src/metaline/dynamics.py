"""Single-excitation dynamics of the multimode Rabi model.

Within the rotating-wave approximation the Hamiltonian conserves the
excitation number, so an initially excited qubit over the mode vacuum
stays inside the (N+1)-dimensional sector spanned by |1;0> (qubit excited)
and |0;n> (one photon in mode n).  Entropies of the entangled state have
closed forms in this sector; the brute-force partial-trace oracle lives in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import CouplingSpectrum


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Entropies at one instant: qubit-traced E_q and qubit+mode-n-traced E_n."""

    time: float
    e_qubit: float
    e_per_mode: np.ndarray


def binary_entropy(p) -> np.ndarray | float:
    """H2(p) = -p ln p - (1-p) ln(1-p) in nats, with H2(0) = H2(1) = 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    pi = p[inner]
    out[inner] = -pi * np.log(pi) - (1 - pi) * np.log(1 - pi)
    return float(out) if out.ndim == 0 else out


def build_rwa_hamiltonian(couplings: CouplingSpectrum, delta0: float) -> np.ndarray:
    """Arrowhead Hamiltonian of the one-excitation sector (rad/s).

    Diagonal (delta0, omega_1..omega_N) with the qubit-mode exchange g_n on
    the first row and column; the global energy offset is removed so the
    sector is self-contained.
    """
    n = len(couplings)
    if n == 0:
        raise ValueError("need at least one mode")
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = delta0
    h[0, 1:] = couplings.g
    h[1:, 0] = couplings.g
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = couplings.frequencies
    return h


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigendecomposition h = evecs diag(evals) evecs^T of a sector Hamiltonian.

    One decomposition propagates the sector to any number of times, each
    for one matrix-vector product.
    """

    evals: np.ndarray
    evecs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.evals)


def diagonalize(h: np.ndarray) -> Eigensystem:
    """Check that ``h`` is symmetric and diagonalize it once."""
    h = np.asarray(h, dtype=float)
    if not np.allclose(h, h.T, rtol=1e-10, atol=0.0):
        raise ValueError("hamiltonian must be symmetric")
    evals, evecs = np.linalg.eigh(h)
    return Eigensystem(evals=evals, evecs=evecs)


def entropy_scan(eig: Eigensystem, t: float) -> EntropyReport:
    """Evolve |1;0> to time ``t`` under the ``diagonalize``d Hamiltonian
    ``eig`` and report the entropies E_q and E_n of every mode.

    E_q = H2(p) traces out the qubit (p the excited-qubit population);
    tracing the qubit and mode n leaves the other modes diagonal, with
    weight p + |c_n|^2 on the vacuum, so E_n = H2(p + |c_n|^2).
    """
    if t == 0.0:
        pop = np.zeros(eig.dim)         # identity propagator, exactly
        pop[0] = 1.0
    else:
        # |1;0> has eigen-coefficients evecs[0]; |psi|^2 = Re^2 + Im^2
        coeffs, et = eig.evecs[0], eig.evals * t
        pop = ((eig.evecs @ (np.cos(et) * coeffs)) ** 2
               + (eig.evecs @ (np.sin(et) * coeffs)) ** 2)
    p = pop[0]
    return EntropyReport(
        time=float(t),
        e_qubit=binary_entropy(p),
        e_per_mode=binary_entropy(p + pop[1:]),
    )
