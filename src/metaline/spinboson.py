"""Adiabatic renormalization of the qubit splitting over the computed bath.

The ground and first excited states of the multimode model are
approximated by a multimode Schroedinger cat: the qubit dressed by
coherent displacements lambda_n of every mode fast enough to follow it
(omega_n > Delta_eff).  The renormalized splitting obeys

    Delta_eff = Delta_0 exp(-2 sum_n lambda_n^2),

a self-consistency condition solved in closed form on one breakpoint
table per bath (``_Breakpoints``).  With the modes sorted by frequency,
the dressing sum is g^q T_k on the k-th interval [x_k, x_k+1) of the
splitting (x_0 = 0, then the sorted frequencies), T_k the suffix sum of
(p_n / omega_n)^q over the modes above x_k, for lambda_n = g p_n / omega_n
(q = 2, or 4 for the printed variant).  Its candidate Delta_0 exp(-2 g^q
T_k) reaches x_k exactly when g^q <= R_k = ln(Delta_0 / x_k) / (2 T_k)
(R_0 = +inf, and +inf where T_k = 0 and x_k <= Delta_0).  The candidates
grow with k, so the last one to qualify is the largest fixed point; the
localization boundary and the jump brackets come from the same table.
Delta_eff(g) drops discontinuously once the fixed point falls through the
dense band-edge cluster, to a small but nonzero value at finite size.
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
_JUMP_RTOL = 1e-4       # width of a bisected jump bracket, relative to its top


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
    """Delta_eff and ``Phase`` values over a (Delta_0, g) grid, and the boundary."""

    g_axis: np.ndarray
    delta0_axis: np.ndarray
    delta_eff_grid: np.ndarray
    phase: np.ndarray
    boundary: list[tuple[float, float]]


@dataclass(frozen=True, eq=False)
class _Breakpoints:
    """One bath's breakpoint table, sorted once: the left ends x_k of the
    intervals of the splitting (0, then the sorted frequencies), the suffix
    sums T_k for each row of profiles (T_N = 0) and the exponent q."""

    left: np.ndarray
    tail: np.ndarray
    q: int

    @classmethod
    def of(cls, omega: np.ndarray, profiles, variant: str) -> _Breakpoints:
        """The table of ``omega`` for each row of ``profiles`` (one or more)."""
        if len(omega) == 0:
            raise ValueError("empty coupling spectrum")
        q = {"standard": 2, "literal": 4}.get(variant)
        if q is None:
            raise ValueError(f"unknown variant {variant!r}; use 'standard' or 'literal'")
        order = np.argsort(omega, kind="stable")
        w = omega[order]
        t = (np.atleast_2d(profiles)[:, order] / w) ** q
        tail = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
        return cls(np.append(0.0, w), np.column_stack([tail, np.zeros(len(t))]), q)

    def ratios(self, delta0, floor=0.0) -> np.ndarray:
        """R_k with x_k raised to ``floor``, per Delta_0 row; T_k = 0 gives +-inf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.log(delta0 / np.maximum(self.left, floor))
            ratio = room / (2.0 * self.tail)
        return np.where(self.tail > 0, ratio, np.copysign(np.inf, room))

    def ceiling(self, delta0) -> np.ndarray:
        """Suffix maximum of R over k: candidate k is the last to qualify
        for the g^q with ceiling_k >= g^q > ceiling_k+1."""
        return np.maximum.accumulate(self.ratios(delta0)[:, ::-1], axis=1)[:, ::-1]

    def cat_sizes(self, ceiling: np.ndarray, g) -> np.ndarray:
        """Dressing sum g^q T_k at the largest fixed point, for each row of
        ``ceiling`` (made from the table's first profile rows, or from its
        one row) and each coupling in the 1-D ``g``.  k is one less than the
        number of entries of the row that reach g^q.  Entry k reaches the
        ``reach`` smallest g^q, so a bincount of the reaches, summed from
        the top, counts those entries for every row and coupling at once."""
        gq = np.asarray(g, dtype=float) ** self.q
        order = np.argsort(gq, kind="stable")
        rows, n = ceiling.shape[0], gq.size
        reach = np.searchsorted(gq[order], ceiling, side="right")
        counts = np.bincount((reach + (n + 1) * np.arange(rows)[:, None]).ravel(),
                             minlength=rows * (n + 1)).reshape(rows, n + 1)
        k = np.empty((rows, n), dtype=np.intp)
        k[:, order] = np.cumsum(counts[:, ::-1], axis=1)[:, -2::-1] - 1
        return gq * np.take_along_axis(self.tail[:rows], k, axis=1)

    def boundary(self, delta0, threshold: float) -> np.ndarray:
        """Coupling above which Delta_eff / Delta_0 < ``threshold``, for each
        Delta_0 of the 1-D ``delta0`` (+inf: never localizes): the fixed
        point stays >= D = threshold Delta_0 while g^q <= R_k for some k,
        x_k raised to D (intervals below D get the end D and a larger T_k)."""
        delta0 = np.asarray(delta0, dtype=float)[:, None]
        return self.ratios(delta0, threshold * delta0).max(axis=1) ** (1.0 / self.q)


def _localized(cat_size):
    """Whether Delta_eff / Delta_0 = exp(-2 cat_size) < ``LOCALIZATION_THRESHOLD``."""
    return cat_size > -0.5 * np.log(LOCALIZATION_THRESHOLD)


def _check_grid(g_grid) -> np.ndarray:
    """``g_grid`` as a float array, after the checks both sweeps share."""
    g_grid = np.asarray(g_grid, dtype=float)
    if len(g_grid) < 2 or np.any(np.diff(g_grid) <= 0):
        raise ValueError("g_grid must be ascending with at least two points")
    return g_grid


def renormalize(couplings: CouplingSpectrum, delta0: float,
                variant: str = "standard") -> RenormResult:
    """Largest self-consistent splitting of one bath, in closed form.

    The fixed point is the one the monotone iteration from Delta_0
    downward would reach: the largest Delta with Delta = Delta_0
    exp(-2 sum_{omega_n > Delta} lambda_n^2) (see ``_Breakpoints``).
    ``variant`` selects lambda_n = g_n/omega_n ("standard") or the
    printed g_n^2/omega_n^2 ("literal").
    """
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    omega = couplings.frequencies
    table = _Breakpoints.of(omega, couplings.g, variant)
    cat = float(table.cat_sizes(table.ceiling(delta0), [1.0])[0, 0])
    delta = delta0 * np.exp(-2.0 * cat)
    lam = np.abs(couplings.g / omega) ** (table.q // 2) * (omega > delta)
    phase = Phase.LOCALIZED if _localized(cat) else Phase.DELOCALIZED
    return RenormResult(delta_eff=float(delta), lambdas=lam, phase=phase,
                        cat_size=cat)


def _refine_jumps(cat_sizes, g_lo, g_hi, cat_lo, cat_hi):
    """Shrink every candidate bracket at once onto the largest drop inside
    it, halving each until it is ``_JUMP_RTOL`` wide relative to its top."""
    while np.any(live := (g_hi - g_lo) > _JUMP_RTOL * g_hi):
        g_mid = 0.5 * (g_lo + g_hi)
        cat_mid = cat_sizes(g_mid)
        # keep the half with the larger drop of Delta_eff, i.e. rise of cat
        upper = live & ((cat_mid - cat_lo) >= (cat_hi - cat_mid))
        lower = live & ~upper
        g_hi, cat_hi = np.where(upper, g_mid, g_hi), np.where(upper, cat_mid, cat_hi)
        g_lo, cat_lo = np.where(lower, g_mid, g_lo), np.where(lower, cat_mid, cat_lo)
    return g_lo, g_hi, cat_lo, cat_hi


def sweep_coupling(couplings: CouplingSpectrum, delta0: float, g_grid,
                   variant: str = "standard") -> CouplingSweep:
    """Delta_eff(g) over an ascending coupling grid, with jump detection.

    Candidate discontinuities (adjacent grid points whose Delta_eff differ
    by more than a factor 10) are refined together by bisection to 1e-4
    relative in g; only brackets that keep a factor > 10 drop after
    refinement are reported as jumps.  Drop factors are computed from the
    dressing sums, so they stay finite in log-domain even when Delta_eff
    underflows.  The companion curve repeats the sweep with the spatial
    profile forced to 1, a second row of the same table.
    """
    g_grid = _check_grid(g_grid)
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    profile = couplings.relative_profile
    table = _Breakpoints.of(couplings.frequencies,
                            [profile, np.ones_like(profile)], variant)
    ceiling = table.ceiling(delta0)
    cats, cats_flat = table.cat_sizes(ceiling, g_grid)

    i = np.flatnonzero(2.0 * np.diff(cats) > np.log(JUMP_FACTOR))
    g_lo, g_hi, cat_lo, cat_hi = _refine_jumps(
        lambda g: table.cat_sizes(ceiling[:1], g)[0],
        g_grid[i], g_grid[i + 1], cats[i], cats[i + 1])
    log_drop = 2.0 * (cat_hi - cat_lo)
    kept = log_drop > np.log(JUMP_FACTOR)
    jumps = list(map(DetectedJump, (0.5 * (g_lo + g_hi))[kept].tolist(),
                     np.exp(np.minimum(log_drop[kept], 700.0)).tolist()))
    return CouplingSweep(g_grid=g_grid, delta_eff=delta0 * np.exp(-2.0 * cats),
                         cat_size=cats, cat_size_flat=cats_flat,
                         delta_eff_flat=delta0 * np.exp(-2.0 * cats_flat),
                         jumps=jumps)


def phase_diagram(couplings: CouplingSpectrum, g_grid, delta0_grid,
                  variant: str = "standard") -> PhaseDiagram:
    """Delta_eff over a (g, Delta_0) grid of one bath.

    Every row takes the closed-form fixed point from the same table, and
    every point its ``Phase`` value from ``_localized``.  The boundary
    lists, for each row that localizes on the grid, the exact coupling
    where Delta_eff / Delta_0 falls below ``LOCALIZATION_THRESHOLD``
    (``_Breakpoints.boundary``), kept inside the grid step where the row's
    label first turns localized.
    """
    g_grid = _check_grid(g_grid)
    delta0_grid = np.asarray(delta0_grid, dtype=float)
    if len(delta0_grid) == 0 or np.any(np.diff(delta0_grid) < 0):
        raise ValueError("delta0_grid must be non-empty and ascending")
    if not delta0_grid[0] > 0:
        raise ValueError("delta0_grid must be positive")
    table = _Breakpoints.of(couplings.frequencies, couplings.relative_profile, variant)
    cats = table.cat_sizes(table.ceiling(delta0_grid[:, None]), g_grid)
    # the step before each row's first localized point, or g_grid[0]
    localized = _localized(cats)
    first = np.argmax(localized, axis=1)
    g_star = np.clip(table.boundary(delta0_grid, LOCALIZATION_THRESHOLD),
                     g_grid[np.maximum(first - 1, 0)], g_grid[first])
    some = localized.any(axis=1)
    boundary = list(zip(g_star[some].tolist(), delta0_grid[some].tolist()))
    return PhaseDiagram(g_axis=g_grid, delta0_axis=delta0_grid,
                        delta_eff_grid=delta0_grid[:, None] * np.exp(-2.0 * cats),
                        phase=np.where(localized, Phase.LOCALIZED.value,
                                       Phase.DELOCALIZED.value),
                        boundary=boundary)
