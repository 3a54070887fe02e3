"""Adiabatic renormalization of the qubit splitting over the computed bath.

The ground and first excited states of the multimode model are
approximated by a multimode Schroedinger cat: the qubit dressed by
coherent displacements lambda_n of every mode fast enough to follow it
(omega_n > Delta_eff).  The renormalized splitting obeys

    Delta_eff = Delta_0 exp(-2 sum_n lambda_n^2),

a self-consistency condition solved in closed form.  With the modes
sorted by frequency, the dressing sum is constant on each interval
[omega_k, omega_k+1) of the splitting: for lambda_n = g p_n / omega_n it
is g^q T_k, where T_k is the suffix sum of (p_n / omega_n)^q over the
modes above omega_k (q = 2, or 4 for the printed variant).  The largest
fixed point is the largest candidate Delta_0 exp(-2 g^q T_k) that falls
inside its own interval, which one array expression finds for a whole
coupling grid.  The drop of Delta_eff with the global coupling becomes
discontinuous once the fixed point falls through the dense band-edge
cluster; at finite size it lands at a small but nonzero value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# build_matrices, coupling_spectrum, solve_modes: unused; perfbench/tracer.py patches them
from .circuit import build_matrices
from .modes import CouplingSpectrum, coupling_spectrum, solve_modes

LOCALIZATION_THRESHOLD = 1e-3
JUMP_FACTOR = 10.0


class Phase(str, Enum):
    DELOCALIZED = "delocalized"
    LOCALIZED = "localized"


@dataclass(frozen=True, eq=False)
class RenormResult:
    """Self-consistent splitting, per-mode displacements and the dressing sum."""

    delta_eff: float
    lambdas: np.ndarray
    phase: Phase
    cat_size: float


@dataclass(frozen=True)
class DetectedJump:
    """A confirmed discontinuity of Delta_eff(g) after bisection refinement."""

    g_star: float
    drop_factor: float


@dataclass(frozen=True, eq=False)
class CouplingSweep:
    """Delta_eff along a coupling grid, plus the flat-profile companion curve."""

    g_grid: np.ndarray
    delta_eff: np.ndarray
    cat_size: np.ndarray
    delta_eff_flat: np.ndarray
    cat_size_flat: np.ndarray
    jumps: list[DetectedJump]


@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """Delta_eff over a (coupling, bare-splitting) grid with the phase boundary."""

    g_axis: np.ndarray
    delta0_axis: np.ndarray
    delta_eff_grid: np.ndarray
    boundary: list[tuple[float, float]]


def _power(variant: str) -> int:
    """Exponent q of the dressing sum: lambda_n^2 = (g_n / omega_n)^q."""
    if variant == "standard":
        return 2
    if variant == "literal":
        return 4
    raise ValueError(f"unknown variant {variant!r}; use 'standard' or 'literal'")


def _suffix_sums(omega: np.ndarray, profile: np.ndarray,
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted frequencies w and T_k, the sum of (p_n / omega_n)^q over the
    modes above the k lowest (T_N = 0): the dressing sum is g^q T_k for a
    splitting in the k-th interval [w_k-1, w_k) (w_-1 = -inf, w_N = inf)."""
    order = np.argsort(omega, kind="stable")
    w = omega[order]
    t = (profile[order] / w) ** q
    return w, np.append(np.cumsum(t[::-1])[::-1], 0.0)


def _cat_sizes(omega: np.ndarray, profile: np.ndarray, delta0: float, g,
               variant: str) -> np.ndarray:
    """Dressing sum at the largest fixed point, for each coupling in ``g``.

    The candidates Delta_0 exp(-2 g^q T_k) grow with k, so the largest one
    that reaches its own interval's lower end also stays below the upper
    end; tied frequencies give empty intervals that never qualify.
    Returns an array of the shape of ``g``.
    """
    q = _power(variant)
    w, tail = _suffix_sums(omega, profile, q)
    lower = np.append(-np.inf, w)
    g = np.asarray(g, dtype=float)
    sums = g[..., None] ** q * tail
    inside = delta0 * np.exp(-2.0 * sums) >= lower
    k = tail.size - 1 - np.argmax(inside[..., ::-1], axis=-1)
    return np.take_along_axis(sums, k[..., None], axis=-1)[..., 0]


def _boundary_couplings(omega: np.ndarray, profile: np.ndarray, delta0,
                        variant: str, threshold: float) -> np.ndarray:
    """Coupling above which Delta_eff / Delta_0 < ``threshold``, per Delta_0.

    F(x) = Delta_0 exp(-2 g^q S(x)) is non-decreasing in x, so the largest
    fixed point stays at or above D = threshold Delta_0 exactly when
    g^q <= ln(Delta_0/x) / (2 S(x)) for some x in [D, Delta_0].  S = T_k
    on the k-th interval, so the ratio peaks at its left end, clipped up
    to D, and is +inf where T_k = 0.  The boundary is the q-th root of the
    largest ratio (+inf: never localizes), of the shape of ``delta0``.
    """
    q = _power(variant)
    w, tail = _suffix_sums(omega, profile, q)
    delta0 = np.asarray(delta0, dtype=float)[..., None]
    left = np.maximum(np.append(-np.inf, w), threshold * delta0)
    reached = (left <= delta0) & (left < np.append(w, np.inf))
    ratio = np.divide(np.log(delta0 / left), 2.0 * tail,
                      out=np.full(left.shape, np.inf), where=tail > 0)
    return np.where(reached, ratio, 0.0).max(axis=-1) ** (1.0 / q)


def _check_bath(couplings: CouplingSpectrum, g_grid) -> np.ndarray:
    """``g_grid`` as a float array, after the checks both sweeps share."""
    if len(couplings) == 0:
        raise ValueError("empty coupling spectrum")
    g_grid = np.asarray(g_grid, dtype=float)
    if len(g_grid) < 2 or np.any(np.diff(g_grid) <= 0):
        raise ValueError("g_grid must be ascending with at least two points")
    return g_grid


def renormalize(couplings: CouplingSpectrum, delta0: float,
                variant: str = "standard") -> RenormResult:
    """Largest self-consistent splitting of one bath, in closed form.

    The fixed point is the one the monotone iteration from Delta_0
    downward would reach: the largest Delta with Delta = Delta_0
    exp(-2 sum_{omega_n > Delta} lambda_n^2) (see ``_cat_sizes``).
    ``variant`` selects lambda_n = g_n/omega_n ("standard") or the
    printed g_n^2/omega_n^2 ("literal").
    """
    if len(couplings) == 0:
        raise ValueError("empty coupling spectrum")
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    omega = couplings.frequencies
    cat = float(_cat_sizes(omega, couplings.g, delta0, 1.0, variant))
    delta = delta0 * np.exp(-2.0 * cat)
    lam = np.abs(couplings.g / omega) ** (_power(variant) // 2) * (omega > delta)
    phase = Phase.LOCALIZED if delta / delta0 < LOCALIZATION_THRESHOLD \
        else Phase.DELOCALIZED
    return RenormResult(delta_eff=float(delta), lambdas=lam, phase=phase,
                        cat_size=cat)


def _refine_jump(omega, profile, delta0, variant, g_lo, g_hi, cat_lo, cat_hi,
                 rel_tol=1e-4):
    """Shrink a candidate bracket onto the largest drop inside it."""
    while (g_hi - g_lo) > rel_tol * g_hi:
        g_mid = 0.5 * (g_lo + g_hi)
        cat_mid = float(_cat_sizes(omega, profile, delta0, g_mid, variant))
        # keep the half with the larger drop of Delta_eff, i.e. rise of cat
        if (cat_mid - cat_lo) >= (cat_hi - cat_mid):
            g_hi, cat_hi = g_mid, cat_mid
        else:
            g_lo, cat_lo = g_mid, cat_mid
    return g_lo, g_hi, cat_lo, cat_hi


def sweep_coupling(couplings: CouplingSpectrum, delta0: float, g_grid,
                   variant: str = "standard") -> CouplingSweep:
    """Delta_eff(g) over an ascending coupling grid, with jump detection.

    Candidate discontinuities (adjacent grid points whose Delta_eff differ
    by more than a factor 10) are refined by bisection to 1e-4 relative in
    g; only brackets that keep a factor > 10 drop after refinement are
    reported as jumps.  Drop factors are computed from the dressing sums,
    so they stay finite in log-domain even when Delta_eff underflows.  The
    companion curve repeats the sweep with the spatial profile forced to 1.
    """
    g_grid = _check_bath(couplings, g_grid)
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    omega = couplings.frequencies
    profile = couplings.relative_profile
    cats = _cat_sizes(omega, profile, delta0, g_grid, variant)
    cats_flat = _cat_sizes(omega, np.ones_like(profile), delta0, g_grid, variant)

    jumps = []
    for i in np.flatnonzero(2.0 * np.diff(cats) > np.log(JUMP_FACTOR)):
        g_lo, g_hi, cat_lo, cat_hi = _refine_jump(
            omega, profile, delta0, variant,
            g_grid[i], g_grid[i + 1], cats[i], cats[i + 1])
        log_drop = 2.0 * (cat_hi - cat_lo)
        if log_drop > np.log(JUMP_FACTOR):
            jumps.append(DetectedJump(
                g_star=0.5 * (g_lo + g_hi),
                drop_factor=float(np.exp(min(log_drop, 700.0)))))
    return CouplingSweep(g_grid=g_grid, delta_eff=delta0 * np.exp(-2.0 * cats),
                         cat_size=cats, cat_size_flat=cats_flat,
                         delta_eff_flat=delta0 * np.exp(-2.0 * cats_flat),
                         jumps=jumps)


def phase_diagram(couplings: CouplingSpectrum, g_grid, delta0_grid,
                  variant: str = "standard") -> PhaseDiagram:
    """Delta_eff over a (g, Delta_0) grid of one bath.

    Every row takes the closed-form fixed point over the same bath.  The
    boundary lists, for each row that localizes on the grid, the exact
    coupling where Delta_eff / Delta_0 falls below
    ``LOCALIZATION_THRESHOLD`` (``_boundary_couplings``), kept inside the
    grid step where its phase label flips.
    """
    g_grid = _check_bath(couplings, g_grid)
    delta0_grid = np.asarray(delta0_grid, dtype=float)
    if len(delta0_grid) == 0 or np.any(np.diff(delta0_grid) < 0):
        raise ValueError("delta0_grid must be non-empty and ascending")
    if not delta0_grid[0] > 0:
        raise ValueError("delta0_grid must be positive")
    omega, profile = couplings.frequencies, couplings.relative_profile

    cats = np.vstack([_cat_sizes(omega, profile, delta0, g_grid, variant)
                      for delta0 in delta0_grid])
    # the step before each row's first localized point, or g_grid[0]
    localized = cats > -0.5 * np.log(LOCALIZATION_THRESHOLD)
    first = np.argmax(localized, axis=1)
    g_star = np.clip(_boundary_couplings(omega, profile, delta0_grid, variant,
                                         LOCALIZATION_THRESHOLD),
                     g_grid[np.maximum(first - 1, 0)], g_grid[first])
    some = localized.any(axis=1)
    boundary = list(zip(g_star[some].tolist(), delta0_grid[some].tolist()))
    return PhaseDiagram(g_axis=g_grid, delta0_axis=delta0_grid,
                        delta_eff_grid=delta0_grid[:, None] * np.exp(-2.0 * cats),
                        boundary=boundary)
