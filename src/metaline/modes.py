"""Normal modes of the quantized network and their coupling to a flux qubit.

Canonical quantization of the lumped circuit turns the node fluxes into a
generalized symmetric-definite eigenproblem

    inv_ind . v = omega^2 . cap . v,

solved here by Cholesky reduction of the capacitance matrix and a dense
symmetric eigensolver (LAPACK sygvd via scipy).  Eigenvectors are
normalized in the capacitance metric, v^T cap v = 1, which makes them the
flux profiles of independent harmonic oscillators.

Both matrices are tridiagonal, so where only frequencies and counts are
needed (the disorder study) ``band_edges`` works on the bands instead:
Sturm counts from the LDL^T pivots of inv_ind - lam cap (Sylvester's law
of inertia) and multisection, O(n) per shift and no eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .circuit import CircuitSpec, NetworkBands, NetworkMatrices
from .dispersion import dom_approx, rhtl_background_dom

# gauge rule: modes at or below this fraction of the largest frequency
# are the inductive null space, not physical modes
GAUGE = 1e-6
# shifts per multisection round; each round shrinks a bracket 32-fold
_SHIFTS = 31
_EPS = np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny


class IllConditionedCircuitError(RuntimeError):
    """Capacitance matrix failed its Cholesky factorization."""


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Eigenfrequencies and capacitance-orthonormal flux profiles.

    ``frequencies`` is strictly positive and ascending (near-zero gauge
    modes are dropped); column n of ``profiles`` is the node-flux
    eigenvector of mode n with its sign fixed at the interface node.
    """

    frequencies: np.ndarray
    profiles: np.ndarray
    node_positions: np.ndarray
    interface_index: int

    def __len__(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class QubitSpec:
    """Bare splitting, footprint and global coupling scale of the probe qubit.

    ``position`` is the left edge of the footprint on the strip (m) and
    ``extent`` its length; ``g_global`` sets the overall coupling scale in
    rad/s, multiplied per mode by the dimensionless spatial profile.
    """

    delta0: float
    position: float
    extent: float
    g_global: float

    def __post_init__(self):
        if not self.delta0 > 0:
            raise ValueError("delta0 must be positive")
        if not self.extent > 0:
            raise ValueError("extent must be positive")
        if self.g_global < 0:
            raise ValueError("g_global must be non-negative")


@dataclass(frozen=True, eq=False)
class CouplingSpectrum:
    """Per-mode couplings g_n = g_global * relative_profile_n."""

    frequencies: np.ndarray
    relative_profile: np.ndarray
    g: np.ndarray
    g_global: float

    def __post_init__(self):
        if not (len(self.frequencies) == len(self.relative_profile) == len(self.g)):
            raise ValueError("couplings and frequencies must have matching lengths")

    def __len__(self) -> int:
        return len(self.frequencies)

    def truncated(self, min_relative_profile: float) -> "CouplingSpectrum":
        """Drop modes coupled below the given relative profile.

        Useful to shrink the dynamics sector; the default pipelines keep
        every mode.
        """
        keep = self.relative_profile >= min_relative_profile
        return CouplingSpectrum(frequencies=self.frequencies[keep],
                                relative_profile=self.relative_profile[keep],
                                g=self.g[keep], g_global=self.g_global)


@dataclass(frozen=True, eq=False)
class DomEstimate:
    """Numerical density of modes: binned histogram plus per-mode spacing dots."""

    bin_edges: np.ndarray
    bin_density: np.ndarray
    mode_frequencies: np.ndarray
    spacing_density: np.ndarray


def sign_changes(values: np.ndarray) -> int:
    """Number of sign alternations along a vector, ignoring exact zeros."""
    s = np.sign(values)
    s = s[s != 0]
    if len(s) < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))


def _column_sign_changes(vecs: np.ndarray) -> np.ndarray:
    """``sign_changes`` of every column of a finite 2-D array at once.

    Each exact zero takes the sign of the last nonzero entry above it (a
    leading run of zeros stays zero), so only steps between two nonzero
    signs count.
    """
    s = (vecs > 0).astype(np.int8) - (vecs < 0)
    gaps = ~s.all(axis=0)
    if gaps.any():          # forward-fill only the columns that hold zeros
        sub = s[:, gaps]
        rows = np.arange(len(s), dtype=np.int32)[:, None]
        last = np.maximum.accumulate(np.where(sub != 0, rows, np.int32(0)), axis=0)
        s[:, gaps] = np.take_along_axis(sub, last, axis=0)
    return np.count_nonzero((s[1:] != s[:-1]) & (s[:-1] != 0), axis=0)


def solve_modes(mat: NetworkMatrices,
                freq_window: tuple[float, float] | None = None) -> ModeSet:
    """All positive-frequency normal modes of the network, ascending.

    Near-zero gauge modes (the inductive null space left by purely
    capacitive ends) are discarded below 1e-6 of the largest computed
    frequency.  Ties in frequency are broken by the ascending number of
    sign changes of the profile.  ``freq_window`` = (lo, hi) in rad/s
    restricts the returned modes.
    """
    cap, inv_ind = mat.cap, mat.inv_ind
    try:
        w2, vecs = sla.eigh(inv_ind, cap)
    except sla.LinAlgError as exc:
        pivot = float(np.min(np.linalg.eigvalsh(0.5 * (cap + cap.T))))
        if pivot > 0:       # cap is definite: the eigensolver itself failed
            raise
        raise IllConditionedCircuitError(
            f"capacitance matrix is not positive definite "
            f"(smallest pivot {pivot:.3e} F)") from exc
    omega = np.sqrt(np.clip(w2, 0.0, None))
    keep = omega > GAUGE * omega.max()
    omega, vecs = omega[keep], vecs[:, keep]

    # reproducible sign: non-negative flux at the interface node, falling
    # back to the largest strip entry when the interface sits on a node
    iface = mat.interface_index
    ref = vecs[iface, :].copy()
    small = np.abs(ref) < 1e-9 * np.abs(vecs[iface:, :]).max(axis=0)
    if np.any(small):
        strip = vecs[iface:, :]
        picks = np.abs(strip).argmax(axis=0)
        ref[small] = strip[picks[small], np.where(small)[0]]
    vecs = vecs * np.where(ref < 0, -1.0, 1.0)

    changes = _column_sign_changes(vecs)
    order = np.lexsort((changes, omega))
    omega, vecs = omega[order], vecs[:, order]

    if freq_window is not None:
        lo, hi = freq_window
        sel = (omega >= lo) & (omega <= hi)
        omega, vecs = omega[sel], vecs[:, sel]

    return ModeSet(frequencies=omega, profiles=vecs,
                   node_positions=mat.node_positions,
                   interface_index=mat.interface_index)


def sturm_count(bands: NetworkBands, lam) -> np.ndarray:
    """Number of generalized eigenvalues of (K, C) below each shift ``lam``.

    By Sylvester's law of inertia this is the number of negative pivots of
    the LDL^T factorization of K - lam C, whose tridiagonal recurrence
    d_i = a_i - b_{i-1}^2 / d_{i-1} costs O(n) per shift.  As in LAPACK
    dstebz, pivots smaller in magnitude than pivmin, zero included, are
    replaced by -pivmin: an eigenvalue equal to a shift counts as below
    it, and one within rounding of a shift may count on either side.
    ``lam`` has shape (..., m), with the leading axes of the bands; the
    result has the shape of ``lam``.
    """
    lam = np.asarray(lam, dtype=float)

    def nodes_first(x) -> np.ndarray:
        """(..., n) -> (n, ..., 1): one contiguous row per node."""
        return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0)[..., None])

    kd, ko, cd, co = map(nodes_first, (bands.k_diag, bands.k_off,
                                       bands.c_diag, bands.c_off))
    # dstebz scales pivmin by the largest b_i^2 so that b^2/pivmin stays
    # finite; this bound on it costs no pass over the nodes
    bmax = (np.abs(ko).max(axis=0, initial=0.0)
            + np.abs(lam) * np.abs(co).max(axis=0, initial=0.0))
    pivmin = _SAFMIN * np.maximum(1.0, bmax ** 2)
    negpiv = -pivmin
    d, b2, mag = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    tiny = np.empty(lam.shape, dtype=bool)
    negative = np.empty((len(kd),) + lam.shape, dtype=bool)
    for i in range(len(kd)):
        if i:
            np.multiply(lam, co[i - 1], out=b2)
            np.subtract(ko[i - 1], b2, out=b2)
            np.square(b2, out=b2)
            np.divide(b2, d, out=b2)
        np.multiply(lam, cd[i], out=d)
        np.subtract(kd[i], d, out=d)
        if i:
            np.subtract(d, b2, out=d)
        np.abs(d, out=mag)
        np.less(mag, pivmin, out=tiny)
        np.copyto(d, negpiv, where=tiny)
        np.signbit(d, out=negative[i])
    return np.count_nonzero(negative, axis=0)


def _narrow(bands: NetworkBands, index: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One multisection round on the bracket [lo, hi] of eigenvalue number
    ``index`` (0-based, ascending) of each device in a stack."""
    fractions = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    shifts = lo[:, None] + (hi - lo)[:, None] * fractions
    k = np.count_nonzero(sturm_count(bands, shifts) <= index[:, None], axis=1)
    rows = np.arange(len(lo))
    lo = np.where(k > 0, shifts[rows, k - 1], lo)
    hi = np.where(k < _SHIFTS, shifts[rows, np.minimum(k, _SHIFTS - 1)], hi)
    return lo, hi


def _open(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets wider than the rounding of their upper end (NaN is closed)."""
    return hi - lo > 2.0 * _EPS * np.abs(hi)


def _top_bracket(bands: NetworkBands) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= lam_max <= hi and hi <= 4 lo, for each device."""
    n = bands.k_diag.shape[-1]
    growth = 4.0 ** np.arange(1, _SHIFTS + 1)
    # the Rayleigh quotient K_ii / C_ii of a unit vector bounds lam_max below
    lo = np.max(bands.k_diag / bands.c_diag, axis=-1)
    while True:
        shifts = lo[:, None] * growth
        full = sturm_count(bands, shifts) >= n
        if full[:, -1].all():
            break
        lo = np.where(full[:, -1], lo, shifts[:, -1])
    k = np.argmax(full, axis=1)
    rows = np.arange(len(lo))
    return np.where(k > 0, shifts[rows, k - 1], lo), shifts[rows, k]


def _gauge_floor(bands: NetworkBands) -> tuple[np.ndarray, np.ndarray]:
    """(count, floor) per device: the number of modes the gauge rule drops,
    omega <= GAUGE * omega_max, and a shift with at most that many
    eigenvalues below it.

    The bracket on lam_max is narrowed only until no eigenvalue lies
    between the thresholds of its two ends.
    """
    lo, hi = _top_bracket(bands)
    top = np.full(len(lo), bands.k_diag.shape[-1] - 1)
    while True:
        counts = sturm_count(bands, GAUGE ** 2 * np.stack([lo, hi], axis=1))
        pending = (counts[:, 0] != counts[:, 1]) & _open(lo, hi)
        if not pending.any():
            return counts[:, 1], GAUGE ** 2 * lo
        lo, hi = np.where(pending, _narrow(bands, top, lo, hi), (lo, hi))


def band_edges(bands: NetworkBands, freq_window: tuple[float, float],
               band: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest window mode and band mode count of each device in a stack.

    ``bands`` carries one leading device axis.  The modes are those of
    ``solve_modes``: gauge modes are dropped by the same rule, and the
    window (lo, hi) and the band (lo, hi), both in rad/s, are inclusive.
    The count covers the part of the band inside the window.  Returns
    (edge in rad/s, NaN where the window holds no mode; count).  Only
    Sturm counts are used: no matrix is formed and no eigenvector found.
    """
    bounds = np.array([*freq_window, *band], dtype=float)
    if not all(np.isfinite(x).all() for x in (bounds, bands.k_diag, bands.k_off,
                                              bands.c_diag, bands.c_off)):
        raise ValueError("band_edges needs finite bands, window and band")
    bounds = np.sign(bounds) * bounds ** 2
    counts = sturm_count(bands, np.broadcast_to(bounds, (len(bands.k_diag), 4)))
    win_lo, win_hi, band_lo, band_hi = counts.T
    gauge, floor = _gauge_floor(bands)
    first = np.maximum(win_lo, gauge)        # index of the lowest kept mode
    band_count = np.maximum(0, np.minimum(band_hi, win_hi)
                            - np.maximum(band_lo, first))

    found = first < win_hi
    # N(lo) <= first < N(hi) on every bracket that holds a mode
    lo = np.maximum(floor, bounds[0])
    hi = np.full_like(lo, bounds[1])
    while (active := found & _open(lo, hi)).any():
        lo, hi = np.where(active, _narrow(bands, first, lo, hi), (lo, hi))
    return np.where(found, np.sqrt(0.5 * (lo + hi)), np.nan), band_count


def voltage_profile(modes: ModeSet, n: int) -> np.ndarray:
    """Node-voltage shape of mode n, proportional to omega_n times the flux profile."""
    if not 0 <= n < len(modes):
        raise IndexError(f"mode index {n} out of range for {len(modes)} modes")
    return modes.frequencies[n] * modes.profiles[:, n]


def _branch_currents(modes: ModeSet, spec: CircuitSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strip branch-current shape of mode n at the segment midpoints."""
    iface = modes.interface_index
    flux = modes.profiles[iface:, n]
    delta = spec.dx_right
    currents = (flux[:-1] - flux[1:]) / (spec.l_right_per_len * delta)
    midpoints = (np.arange(spec.n_right) + 0.5) * delta
    return midpoints, currents


def current_average(modes: ModeSet, spec: CircuitSpec, n: int,
                    x0: float, extent: float) -> float:
    """Magnitude of the mode-n strip current averaged over a qubit footprint.

    Branch currents live at segment midpoints and are interpolated
    linearly in between; the average is the exact integral mean of that
    piecewise-linear shape over [x0, x0+extent].  ``extent`` = 0 returns
    the pointwise magnitude at x0.
    """
    if not 0 <= n < len(modes):
        raise IndexError(f"mode index {n} out of range for {len(modes)} modes")
    if extent < 0:
        raise ValueError("extent must be non-negative")
    if x0 < 0 or x0 + extent > spec.rhtl_length:
        raise ValueError(
            f"footprint [{x0}, {x0 + extent}] m falls outside the strip "
            f"[0, {spec.rhtl_length}] m")
    mids, currents = _branch_currents(modes, spec, n)
    if extent == 0:
        return float(abs(np.interp(x0, mids, currents)))
    inner = mids[(mids > x0) & (mids < x0 + extent)]
    knots = np.concatenate([[x0], inner, [x0 + extent]])
    vals = np.interp(knots, mids, currents)
    return float(abs(np.trapezoid(vals, knots) / extent))


def find_current_antinode(modes: ModeSet, spec: CircuitSpec, n: int) -> float:
    """Position of the largest strip current magnitude of mode n (m)."""
    mids, currents = _branch_currents(modes, spec, n)
    return float(mids[np.argmax(np.abs(currents))])


def footprint_at_antinode(modes: ModeSet, spec: CircuitSpec,
                          target_omega: float, extent: float) -> float:
    """Left edge of a footprint centered on the current antinode of the
    mode nearest ``target_omega``, clipped into the strip."""
    n = int(np.argmin(np.abs(modes.frequencies - target_omega)))
    center = find_current_antinode(modes, spec, n)
    x0 = center - extent / 2.0
    return float(np.clip(x0, 0.0, spec.rhtl_length - extent))


def _dom_weight(omega: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """Total density-of-modes weight, finite for all positive frequencies."""
    out = np.full(omega.shape, rhtl_background_dom(spec))
    above = omega > spec.omega_ir
    if np.any(above):
        out[above] += dom_approx(omega[above], spec)
    return out


def coupling_spectrum(modes: ModeSet, spec: CircuitSpec, qubit: QubitSpec,
                      normalization: str = "dom") -> CouplingSpectrum:
    """Qubit-mode coupling spectrum over the given mode set.

    The spatial factor is the footprint-averaged current magnitude of each
    mode.  With the default ``normalization="dom"`` it is weighted by the
    density of modes at the mode frequency, which flattens the couplings
    of the quasi-degenerate band-edge modes (they share one strip profile
    but carry vanishing strip weight individually); ``"spatial"`` uses the
    bare average instead.  Either way the largest entry defines
    relative_profile = 1 and g_n = g_global * relative_profile_n.
    """
    if len(modes) == 0:
        raise ValueError("empty mode set")
    if normalization not in ("dom", "spatial"):
        raise ValueError(f"unknown normalization {normalization!r}")
    avg = np.array([
        current_average(modes, spec, n, qubit.position, qubit.extent)
        for n in range(len(modes))
    ])
    raw = avg * _dom_weight(modes.frequencies, spec) if normalization == "dom" else avg
    peak = raw.max()
    if peak == 0:
        relative = np.zeros_like(raw)
    else:
        relative = raw / peak
    return CouplingSpectrum(frequencies=modes.frequencies.copy(),
                            relative_profile=relative,
                            g=qubit.g_global * relative,
                            g_global=qubit.g_global)


def dom_numeric(modes: ModeSet, bin_width: float) -> DomEstimate:
    """Numerical density of modes from the computed spectrum.

    Returns a histogram (counts per bin divided by the bin width) plus a
    per-mode nearest-neighbor spacing estimate, 2/(omega_{n+1}-omega_{n-1})
    at interior modes and the one-sided 1/spacing at the two ends, for
    dot-level comparison against the closed-form density.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    w = modes.frequencies
    if len(w) < 2:
        raise ValueError("need at least 2 modes to estimate a density")
    edges = np.arange(w[0], w[-1] + bin_width, bin_width)
    counts, edges = np.histogram(w, bins=edges)
    spacing = np.empty_like(w)
    spacing[1:-1] = 2.0 / (w[2:] - w[:-2])
    spacing[0] = 1.0 / (w[1] - w[0])
    spacing[-1] = 1.0 / (w[-1] - w[-2])
    return DomEstimate(bin_edges=edges, bin_density=counts / bin_width,
                       mode_frequencies=w.copy(), spacing_density=spacing)
