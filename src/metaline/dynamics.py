"""Single-excitation dynamics of the multimode Rabi model.

Within the rotating-wave approximation the Hamiltonian conserves the
excitation number, so an initially excited qubit over the mode vacuum
stays inside the (N+1)-dimensional sector spanned by |1;0> (qubit excited)
and |0;n> (one photon in mode n).  Entropies of the entangled state have
closed forms in this sector; the brute-force partial-trace oracle lives in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modes import CouplingSpectrum


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Entropies at one instant or at T of them: qubit-traced E_q and
    qubit+mode-n-traced E_n.  At one instant ``time`` and ``e_qubit`` are
    floats and ``e_per_mode`` has shape (m,); at T instants they have
    shapes (T,), (T,) and (T, m)."""

    time: float | np.ndarray
    e_qubit: float | np.ndarray
    e_per_mode: np.ndarray


def binary_entropy(p) -> np.ndarray | float:
    """H2(p) = -p ln p - (1-p) ln(1-p) in nats, with H2(0) = H2(1) = 0."""
    out = np.array(p, dtype=float)
    np.clip(out, 0.0, 1.0, out=out)
    inner = (out > 0) & (out < 1)
    # -(p ln p + q ln q), the same bits as the two negated terms, in place
    h, q = out[inner], 1 - out[inner]
    h *= np.log(h)
    q *= np.log(q)
    h += q
    out[~inner] = 0.0
    out[inner] = -h
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

    One decomposition propagates the sector to any number of times T, all
    of them in (dim x dim) by (dim x T) matrix products.
    """

    evals: np.ndarray
    evecs: np.ndarray
    # _leading(evecs) by rows, the left factors of every _product, made with
    # the decomposition and not in the worker threads of a scan (each of
    # those would keep them in its own malloc arena)
    _slices: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_slices",
                           _leading(self.evecs, 1, _slice_bits(self.dim)))

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


# the largest rounding error (rad) of a phase E t that ``_coefficients``
# corrects to first order: the second-order term it drops, err^2 / 2, then
# stays below half an ulp of 1.  The bundled configs' phases err by at most
# 5.6e-14 rad (1.1e-13 on the bath benchmark's), 1e5 times less
_PHASE_ERR = float(np.sqrt(np.finfo(float).eps))


def _two_product(a, b):
    """(a b rounded, its rounding error), both exact: Dekker's TwoProduct,
    with Veltkamp's split of each factor into halves of 26 bits."""
    halves = []
    for x in (a, b):
        c = 134217729.0 * x                 # 2^27 + 1
        hi = c - (c - x)
        halves += [hi, x - hi]
    ah, al, bh, bl = halves
    p = a * b
    err = ah * bh - p       # ((ah bh - p) + ah bl + al bh) + al bl
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _slice_bits(dim: int) -> int:
    """Bits of the leading slices of a sum of ``dim`` products: each product
    of two slices is an integer of at most 2^(2 bits) units, and their sum,
    at most 2^53, is exact in any order (22 bits up to dim 512)."""
    return (53 - (dim - 1).bit_length()) // 2


def _leading(x: np.ndarray, axis: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, x - hi), both exact: hi holds the bits of x down to ``bits``
    below the largest |x| along ``axis`` (Ozaki's error-free split)."""
    top = np.frexp(np.maximum(x.max(axis, keepdims=True),
                              -x.min(axis, keepdims=True)))[1]
    sigma = np.ldexp(0.75, top + 53 - bits)
    hi = (x + sigma) - sigma
    return hi, x - hi


# multiply-adds per matrix product call of _product at most: OpenBLAS
# spreads larger products over its own threads, which then contend with
# the dynamics pool's (7 chunks of 32 times over 645 modes took about 44 ms
# in a pool of 2 as whole products, 13 ms in row blocks of this size)
_PRODUCT_MACS = 1 << 19


def _product(eig: Eigensystem, x: np.ndarray) -> np.ndarray:
    """evecs @ x to about one rounding, where a plain product of the dim
    terms rounds several times: the leading slices multiply exactly, in any
    summation order, and the rest, about 2^-22 of the product, adds its
    rounding error at that scale.  In blocks of rows of at most
    _PRODUCT_MACS multiply-adds."""
    a_hi, a_lo = eig._slices
    x_hi, x_lo = _leading(x, 0, _slice_bits(eig.dim))
    out = np.empty((eig.dim, x.shape[1]))
    step = max(1, _PRODUCT_MACS // max(1, x.size))
    for rows in (slice(i, i + step) for i in range(0, eig.dim, step)):
        block = a_hi[rows] @ x_lo
        block += a_lo[rows] @ x
        block += a_hi[rows] @ x_hi      # exact: the sum, rounded once
        out[rows] = block
    return out


def _coefficients(eig: Eigensystem, ts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """[Re, -Im] of the eigen-coefficients evecs[0] e^{-i E t} of |1;0>,
    a column per time, and the largest |err| of each time: E t = phase +
    err exactly, and the cosine and sine of it to first order in err.  In
    place where it can be, as each chunk's arrays set the malloc
    high-water mark of the worker thread it runs on."""
    phase, err = _two_product(eig.evals[:, None], ts)
    worst = np.abs(err).max(axis=0)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    coeffs = eig.evecs[0][:, None]
    re = cos - err * sin
    re *= coeffs
    err *= cos
    sin += err
    sin *= coeffs
    return [re, sin], worst


def entropy_scan(eig: Eigensystem, t) -> EntropyReport:
    """Evolve |1;0> to time ``t`` (a scalar, or a 1-D array of T times)
    under the ``diagonalize``d Hamiltonian ``eig`` and report the entropies
    E_q and E_n of every mode.

    E_q = H2(p) traces out the qubit (p the excited-qubit population);
    tracing the qubit and mode n leaves the other modes diagonal, with
    weight p + |c_n|^2 on the vacuum, so E_n = H2(p + |c_n|^2).  All times
    are propagated at once, a column each, to about one rounding of the
    exact propagation of ``eig``: the phases E t keep their rounding error
    and the products are ``_product``s.  t = 0 is the identity propagator
    exactly.  ArithmeticError if a population is not finite (a time whose
    phases overflow), or if the rounding error of a phase exceeds
    ``_PHASE_ERR`` (a time whose phases are finite but too large for the
    first-order correction of their cosine and sine).
    """
    times = np.asarray(t, dtype=float)
    ts = times.reshape(-1)
    # |psi|^2 = Re^2 + Im^2, one part at a time; phases that overflow leave
    # populations that are not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        parts, worst = _coefficients(eig, ts)
        pop = _product(eig, parts.pop()) ** 2
        pop += _product(eig, parts.pop()) ** 2
    pop[:, ts == 0.0] = np.eye(eig.dim, 1)
    finite = np.isfinite(pop).all(axis=0)
    if not finite.all():
        raise ArithmeticError(f"populations at t = {ts[~finite][0]:.6g} s are not finite: "
                              f"the phases E t overflow")
    if (lost := worst > _PHASE_ERR).any():
        raise ArithmeticError(
            f"phases E t at t = {ts[lost][0]:.6g} s have lost their precision: their "
            f"rounding error reaches {worst[lost][0]:.1e} rad, beyond the {_PHASE_ERR:.1e} "
            f"rad that a first-order correction of their cosine and sine takes")
    p = pop[0]
    e_qubit = binary_entropy(p)
    pop[1:] += p
    e_per_mode = binary_entropy(pop[1:]).T
    if times.ndim == 0:
        return EntropyReport(time=float(times), e_qubit=float(e_qubit[0]),
                             e_per_mode=e_per_mode[0])
    return EntropyReport(time=ts, e_qubit=e_qubit, e_per_mode=e_per_mode)
