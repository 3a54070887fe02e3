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

LN2 = float(np.log(2.0))


@dataclass(frozen=True, eq=False)
class SingleExcitationState:
    """Amplitudes (c0; c_1..c_N) over the one-excitation basis."""

    c0: complex
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=complex))
        norm = abs(self.c0) ** 2 + float(np.sum(np.abs(self.c) ** 2))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm:.9f}")

    @property
    def p_qubit(self) -> float:
        """Excited-qubit population |c0|^2."""
        return abs(self.c0) ** 2

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.c0], self.c])


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


def _eigensystem(h: np.ndarray | Eigensystem) -> Eigensystem:
    return h if isinstance(h, Eigensystem) else diagonalize(h)


def evolve(h: np.ndarray | Eigensystem, psi0: SingleExcitationState,
           times) -> list[SingleExcitationState]:
    """States exp(-i h t) psi0 at the requested times.

    ``h`` is the Hamiltonian or its ``diagonalize`` result; a matrix is
    diagonalized here, once for all the times.
    """
    eig = _eigensystem(h)
    vec = psi0.as_vector()
    if eig.dim != len(vec):
        raise ValueError(
            f"hamiltonian dimension {eig.dim} does not match state "
            f"dimension {len(vec)}")
    coeffs = eig.evecs.T @ vec
    out = []
    for t in np.atleast_1d(times):
        if t == 0.0:
            out.append(psi0)        # identity propagator, exactly
            continue
        psi = eig.evecs @ (np.exp(-1j * eig.evals * t) * coeffs)
        out.append(SingleExcitationState(c0=complex(psi[0]), c=psi[1:]))
    return out


def entropy_qubit(psi: SingleExcitationState) -> float:
    """Von Neumann entropy (nats) of the qubit/all-modes bipartition."""
    return binary_entropy(psi.p_qubit)


def entropy_minus_mode(psi: SingleExcitationState, n: int) -> float:
    """Entropy (nats) of the remaining modes after tracing qubit and mode n.

    The reduced state of the rest is diagonal with weights
    q = |c0|^2 + |c_n|^2 (vacuum) and 1-q (one shared photon), so the
    entropy is H2(q).
    """
    if not 0 <= n < len(psi.c):
        raise IndexError(f"mode index {n} out of range for {len(psi.c)} modes")
    q = psi.p_qubit + abs(psi.c[n]) ** 2
    return binary_entropy(q)


def entropy_scan(h: np.ndarray | Eigensystem, t: float,
                 time_label: float | None = None) -> EntropyReport:
    """Evolve |1;0> to time ``t`` and report E_q plus E_n for every mode.

    ``h`` is the Hamiltonian or, to scan many times from one
    decomposition, its ``diagonalize`` result.  ``time_label`` lets
    callers record the dimensionless time t*g instead of the raw seconds.
    """
    eig = _eigensystem(h)
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
        time=float(t if time_label is None else time_label),
        e_qubit=binary_entropy(p),
        e_per_mode=binary_entropy(p + pop[1:]),
    )
