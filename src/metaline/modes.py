"""Normal modes of the quantized network and their coupling to a flux qubit.

Canonical quantization of the lumped circuit turns the node fluxes into a
generalized symmetric-definite eigenproblem

    inv_ind . v = omega^2 . cap . v,

whose eigenvectors are normalized in the capacitance metric, v^T cap v = 1,
which makes them the flux profiles of independent harmonic oscillators.

Both matrices are tridiagonal, and ``NetworkMatrices`` holds only their
bands.  ``solve_modes`` checks that every LDL^T pivot of cap is positive,
then takes one of two paths:

- the closed form ``_closed_modes`` for a two-segment device (a uniform
  ladder joined at one node to a uniform strip, end caps allowed) outside
  ``_DENSE_DIMS``.  On each segment the shooting solution of K - lam C is
  one sinusoid (or two exponentials) in the node index, joined to the
  other at three free rows: the first, the interface and the last.  Its
  sign changes are the Sturm count, O(1) per shift, and its phase is a
  continuous Pruefer angle whose integer crossings are the count's steps
  (Pryce, *Numerical Solution of Sturm-Liouville Problems*, 1993).
  Moebius steps on that phase, one shot for all window modes per step,
  find every window eigenvalue, and a count one ulp to either side
  certifies each: 8 shots in all on the fig2 device, where multisection
  took 21.  Each mode is held as the solutions shot from both ends and
  the node where they join (``closedform.ClosedModes``), O(1) per mode:
  ``ModeSet.rows`` evaluates chosen nodes, which is all the commands'
  couplings, antinode and sign rule read, and the n x m profiles (those
  rows at every node, O(n m), and one O(n m^2) Loewdin step for m window
  modes) are formed only where ``profiles`` is read: by ``modes
  --profiles``, the tests and health checks;
- dense ``eigh`` (Cholesky reduction and LAPACK sygvd via scipy, imported
  only there) for dims 1001-2001 and for every band layout the closed
  form does not take (disordered ladders, bare lines, toy pencils), which
  no command solves: O(n^3), the only path that forms the n x n matrices,
  which sygvd overwrites in place.

README (*Eigensolvers*) holds the timings of both paths and why
``_DENSE_DIMS``, the size class of the benchmark's spectrum device (dim
2001), stays dense: its reference profiles carry dense eigh's rounding.
Both paths drop the same gauge modes (``_gauge_modes``) and apply the
same sign rule and tie-break (sign changes on the dense path, the count
index on the closed form's, which agree wherever tested).  At n_left =
5000 (dim 12 501, 4009 window modes) a ``phase`` run on the fig5 device
takes 0.17 s and 44 MB resident, where forming the profiles took 9.0 s
and 1.67 GB.

Where only frequencies and counts are needed (the disorder study)
``band_edges`` works on the bands of a whole stack of devices: Sturm
counts from the LDL^T pivots of inv_ind - lam cap (Sylvester's law of
inertia) and multisection, no eigenvectors.  ``sturm_count`` sweeps
blocks of nodes in whole-block numpy expressions and a pivot recurrence
of two numpy calls per node without a guard, as in LAPACK dlaneg; only a
block that meets a pivot below pivmin runs again with dstebz's guard.
Disorder scatters only the ladder, so the devices of a stack share the
strip node for node, and ``band_edges`` makes every count through one
``_StackCount``: it sweeps the ladder rows up to the strip as t = d/lam,
whose squared off-diagonals c_off^2 do not depend on the shift, and
counts the strip in closed form, O(1) per shift, from the pivot at its
first node; the plain sweep takes any call where the strip is
evanescent or 1/lam leaves the doubles' range, and a stack that shares
no strip or carries k_off on its ladder.  Each device's bracket starts
at the tightest two of the first count's four shifts (the window's and
the band's ends), so the ensemble benchmark's stack takes 18 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuit import CircuitSpec, NetworkBands, NetworkMatrices
from .dispersion import dom_approx

if TYPE_CHECKING:
    from .closedform import ClosedModes

# shifts per multisection round; each round shrinks a bracket 8-fold
_SHIFTS = 7
_EPS = np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny
# values (nodes x shifts x devices) per block of the Sturm sweep: bounds its
# temporaries, and amortizes the block's whole-block expressions
_BLOCK_VALUES = 2 ** 15
# dimensions at which two-segment devices, too, take dense eigh: the size
# class of the spectrum benchmark device (dim 2001), whose reference pins
# dense rounding (see the module docstring)
_DENSE_DIMS = range(1001, 2002)
# grid shifts per unit of each segment's phase: the Pruefer phase rises by
# about one per eigenvalue, so about _GRID fall between two eigenvalues
_GRID = 4
# Moebius steps at most, the step (in ulps) at which a row counts as
# converged, and the half-width (in ulps) of the fan that certifies it
_STEPS = 8
_ULPS = 16
_FAN = 4


class IllConditionedCircuitError(RuntimeError):
    """Capacitance matrix is not positive definite: an LDL^T pivot is not
    positive."""


class ModeSet:
    """Eigenfrequencies and capacitance-orthonormal flux profiles.

    ``frequencies`` is ascending, without the gauge modes
    (``_gauge_modes``); column n of ``profiles`` is the node-flux
    eigenvector of mode n with its sign fixed at the interface node, and
    ``rows(index, modes)`` gives chosen rows of chosen columns.

    A dense solve, or a caller, hands over ``profiles`` whole.  A
    closed-form solve holds each mode as its two closed-form shots
    (``closedform.ClosedModes``) and forms no n x m array: ``rows``
    evaluates the shots at the nodes asked for, which is all that
    ``coupling_spectrum`` (the footprint rows), ``find_current_antinode``
    (one mode's strip) and the sign rule read, and ``profiles``, those
    rows at every node after one Loewdin step, is formed only when
    something reads it (``modes --profiles``, the tests, a health check).
    On the fig5 device at n_left = 5000 (dim 12 501, 4009 window modes)
    that takes a ``phase`` run from 9.0 s and 1.67 GB resident to 0.17 s
    and 44 MB (fresh processes, 2-vCPU VM)."""

    def __init__(self, frequencies: np.ndarray, profiles: np.ndarray | None = None,
                 node_positions: np.ndarray | None = None, interface_index: int = 0,
                 closed: ClosedModes | None = None):
        self.frequencies = frequencies
        self.node_positions = node_positions
        self.interface_index = interface_index
        self._closed = closed
        if profiles is not None:
            self.__dict__["profiles"] = profiles

    def __len__(self) -> int:
        return len(self.frequencies)

    @cached_property
    def profiles(self) -> np.ndarray:
        """The n x m profiles, formed from the shots when first read."""
        return self._closed.profiles()

    def rows(self, index, modes=None) -> np.ndarray:
        """Rows ``index`` (a slice or node indices) of ``profiles``, of the
        columns ``modes`` (all by default); a closed-form solve evaluates
        its shots there, whether or not ``profiles`` has been formed."""
        if self._closed is None:
            rows = self.profiles[index]
            return rows if modes is None else rows[:, modes]
        nodes = np.arange(len(self.node_positions))[index]
        return self._closed.rows(nodes[:, None], None if modes is None else np.asarray(modes))


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

    def __post_init__(self):
        if not (len(self.frequencies) == len(self.relative_profile) == len(self.g)):
            raise ValueError("couplings and frequencies must have matching lengths")

    def __len__(self) -> int:
        return len(self.frequencies)

def _column_sign_changes(vecs: np.ndarray) -> np.ndarray:
    """Number of sign alternations down every column of a finite 2-D array.

    Exact zeros are ignored: each takes the sign of the last nonzero entry
    above it (a leading run of zeros stays zero), so only steps between two
    nonzero signs count.
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
    """All normal modes of the network but its gauge modes, ascending.

    The gauge modes, the eigenvalues at 0 that K's structure forces
    (``_gauge_modes``), are dropped.  Ties in frequency are broken by the
    ascending number of sign changes of the profile.  ``freq_window`` =
    (lo, hi) in rad/s restricts the returned modes.  Two-segment devices
    are solved in closed form (``_closed_modes``), except those whose
    dimension lies in ``_DENSE_DIMS``; they and every other network go to
    dense ``eigh``.
    IllConditionedCircuitError, on either path, names the first LDL^T
    pivot of the capacitance that is not positive.
    """
    _check_capacitance(mat.bands)
    segs = None if mat.dim in _DENSE_DIMS else _two_segments(mat.bands, mat.interface_index)
    if segs is not None:
        closed = _closed_modes(mat.bands, segs, freq_window)
        return ModeSet(frequencies=np.sqrt(closed.lam), node_positions=mat.node_positions,
                       interface_index=mat.interface_index, closed=closed)
    omega, vecs = _dense_modes(mat, freq_window)
    vecs = vecs * _interface_signs(vecs[mat.interface_index], vecs[mat.interface_index:])
    order = np.lexsort((_column_sign_changes(vecs), omega))
    return ModeSet(frequencies=omega[order], profiles=vecs[:, order],
                   node_positions=mat.node_positions,
                   interface_index=mat.interface_index)


def _interface_signs(ref: np.ndarray, strip: np.ndarray, small=None) -> np.ndarray:
    """The sign rule, a factor of +-1 per column: non-negative flux at the
    interface node (``ref``), falling back to the largest entry of the
    column's ``strip`` rows (from the interface on) where the interface
    sits on a node, |ref| < 1e-9 of that entry.  ``small`` marks the
    columns that may fall back (all by default) and ``strip`` holds only
    those."""
    picks = np.abs(strip).argmax(axis=0)
    top = strip[picks, np.arange(strip.shape[1])]
    ref = ref.copy()
    cols = np.arange(len(ref)) if small is None else np.flatnonzero(small)
    fall = np.abs(ref[cols]) < 1e-9 * np.abs(top)
    ref[cols[fall]] = top[fall]
    return np.where(ref < 0, -1.0, 1.0)


def _dense_modes(mat: NetworkMatrices, freq_window: tuple[float, float] | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The non-gauge modes in ``freq_window`` by dense ``eigh`` (LAPACK
    sygvd), in place: K and C are formed fresh and symmetric, so their
    transposes are the same matrices in the Fortran order LAPACK takes."""
    import scipy.linalg as sla  # slow to import; only the _DENSE_DIMS sizes need it

    lo, hi = (0.0, np.inf) if freq_window is None else freq_window
    w2, vecs = sla.eigh(mat.inv_ind.T, mat.cap.T, overwrite_a=True, overwrite_b=True)
    omega = np.sqrt(np.clip(w2, 0.0, None))
    keep = (np.arange(len(w2)) >= _gauge_modes(mat.bands)) & (omega >= lo) & (omega <= hi)
    return omega[keep], vecs[:, keep]


def _gauge_modes(bands: NetworkBands) -> np.ndarray:
    """Gauge modes of each device: the eigenvalues at 0 that K's structure
    forces, one for each block of K (rows joined by non-zero k_off) whose
    rows all sum to exactly zero, as K maps that block's constant vector
    to 0.  On a ``CircuitSpec``'s bands that block is node 0 alone, the
    bare series capacitor that ends the ladder (``circuit._lhtl_bands``),
    and ``sturm_count`` counts its mode below any shift >= 0."""
    kd = np.reshape(bands.k_diag, (-1, np.shape(bands.k_diag)[-1]))
    # k_off with a zero before each device's first row and after its last
    ko = np.pad(np.reshape(bands.k_off, (len(kd), -1)), ((0, 0), (1, 1)))
    starts = np.flatnonzero(ko[:, :-1] == 0)
    clean = ~np.logical_or.reduceat((kd + ko[:, :-1] + ko[:, 1:] != 0).ravel(), starts)
    return np.bincount(starts[clean] // kd.shape[1], minlength=len(kd)).reshape(
        np.shape(bands.k_diag)[:-1])


def _check_capacitance(bands: NetworkBands) -> None:
    """IllConditionedCircuitError unless every LDL^T pivot of C is positive,
    on one device (a loop over Python floats, where numpy calls on rows of
    one value would cost ten times more) or on each device of a stack (one
    leading axis, one ``_pivots`` recurrence over all devices), with the
    same pivots either way.  The message names the first pivot that is
    not positive, and on a stack the first device with one."""
    if np.ndim(bands.c_diag) == 1:
        pivot = 1.0
        for a, b2 in zip(bands.c_diag.tolist(), [0.0] + np.square(bands.c_off).tolist()):
            pivot = a - b2 / pivot
            if not pivot > 0:
                _not_definite(pivot, "")
        return
    n = np.shape(bands.c_diag)[-1]
    d = np.reshape(bands.c_diag, (-1, n)).T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _pivots(d, np.square(np.reshape(bands.c_off, (d.shape[1], n - 1)).T))
    bad = ~(d > 0)
    if bad.any():
        device = int(np.argmax(bad.any(axis=0)))
        _not_definite(d[np.argmax(bad[:, device]), device], f" of device {device}")


def _not_definite(pivot: float, where: str):
    raise IllConditionedCircuitError(
        f"capacitance matrix{where} is not positive definite (pivot {pivot:.3e} F)")


def _pivots(d: np.ndarray, b2: np.ndarray, pivmin: np.ndarray | None = None
            ) -> None:
    """LDL^T pivot recurrence d_{i+1} <- d_{i+1} - b2_i / d_i down the rows
    of d, in place, two ufunc calls per node: on entry d holds a_i (d[0]
    the pivot the recurrence starts from) and b2 the squared
    off-diagonals.  With ``pivmin``, LAPACK dstebz's guard: every pivot
    smaller in magnitude than pivmin, zero included, d[0] too, becomes
    -pivmin."""
    rows, t = list(d), np.empty(d.shape[1:])
    if pivmin is not None:
        np.copyto(rows[0], -pivmin, where=np.abs(rows[0]) < pivmin)
    for i, b in enumerate(b2):
        np.divide(b, rows[i], out=t)
        np.subtract(rows[i + 1], t, out=rows[i + 1])
        if pivmin is not None:
            np.copyto(rows[i + 1], -pivmin, where=np.abs(rows[i + 1]) < pivmin)


def _tri_mul(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (diag, off) times the columns of x."""
    out = x * diag[:, None]
    out[:-1] += x[1:] * off[:, None]
    out[1:] += x[:-1] * off[:, None]
    return out


class _Segment(NamedTuple):
    """One uniform segment of the pencil: its interior diagonals k_d and
    c_d, the magnitudes k_o and c_o of its off-diagonals (one of them is
    zero, so beta = |k_off - lam c_off| = k_o + lam c_o), the node steps
    it spans, and the sign of -b, the factor between v_{j+1}/v_j and
    u_{j+1}/u_j."""

    k_d: float
    c_d: float
    k_o: float
    c_o: float
    steps: int
    sign: float


def _segment(kd, ko, cd, co, start: int, stop: int) -> _Segment:
    """The ``_Segment`` of one device's off-diagonals start .. stop - 1, its
    interior rows start + 1 .. stop - 1; a segment without interior rows
    (a one-cell ladder) takes a = 0."""
    k_d, c_d = (kd[start + 1], cd[start + 1]) if stop > start + 1 else (0.0, 0.0)
    return _Segment(k_d, c_d, abs(ko[start]), abs(co[start]), stop - start,
                    -np.sign(ko[start] - co[start]))


def _strip_start(bands: NetworkBands) -> int:
    """First node of the longest uniform strip that ends at the last node,
    the same in every device of a stack: on its edges c_off = 0 and k_off
    one non-zero value, its interior diagonals one value each and its last
    row the same in every device; n - 1 where there is none.  One pass of
    whole-array comparisons, on one device or a stack."""
    kd, ko, cd, co = (np.reshape(x, (-1, np.shape(x)[-1])) for x in
                      (bands.k_diag, bands.k_off, bands.c_diag, bands.c_off))
    n = kd.shape[1]
    if n < 2 or not ((kd[:, -1] == kd[0, -1]) & (cd[:, -1] == cd[0, -1])).all():
        return n - 1
    # edge i, and the row after it where that is interior
    edge = ((co == 0) & (ko == ko[0, -1])).all(axis=0) & (ko[0, -1] != 0)
    edge[:-1] &= ((kd[:, 1:-1] == kd[0, -2]) & (cd[:, 1:-1] == cd[0, -2])).all(axis=0)
    bad = np.flatnonzero(~edge)
    return int(bad[-1]) + 1 if bad.size else 0


def _two_segments(bands: NetworkBands, iface: int):
    """(ladder, strip, rows) of the bands, or None unless they have the
    two-segment form exactly: on the ladder (off-diagonals 0..iface-1)
    k_off = 0 and c_off one non-zero value, on the strip (``_strip_start``
    at or before iface) c_off = 0 and k_off one non-zero value, each
    segment's interior diagonals constant.  ``rows`` holds (h_k, h_c) of
    the free rows (first, interface, last): h_k - lam h_c is a_j less half
    the a of each segment beside it."""
    kd, ko, cd, co = bands.k_diag, bands.k_off, bands.c_diag, bands.c_off
    n = len(kd)
    if not 1 <= iface <= n - 3 or _strip_start(bands) > iface:
        return None
    if ko[:iface].any() or not co[:iface].all() or any(
            np.ptp(x) > 0 for x in (co[:iface], kd[1:iface], cd[1:iface]) if len(x)):
        return None
    ladder, strip = _segment(kd, ko, cd, co, 0, iface), _segment(kd, ko, cd, co, iface, n - 1)
    return ladder, strip, [_free_row(kd[0], cd[0], [ladder]),
                           _free_row(kd[iface], cd[iface], [ladder, strip]),
                           _free_row(kd[-1], cd[-1], [strip])]


def _free_row(k, c, segs) -> tuple[float, float]:
    """(h_k, h_c) of a free row of diagonals (k, c) beside the segments
    ``segs``: h_k - lam h_c is a_j less half the a of each of them, formed
    in long double where there is one, as the halves nearly cancel a_j."""
    for seg in segs:
        k, c = k - np.longdouble(seg.k_d) / 2, c - np.longdouble(seg.c_d) / 2
    return float(k), float(c)


def _junction(row, lam, u, w, before, after):
    """W of the next segment at a free row from the state (u, W) the
    previous one left there, ``before`` and ``after`` the beta of the
    segments beside the row (None at an end); at the last row, beta times
    the virtual u_n that row sets.  The state at node j is (u_j, W_j), W_j
    = u_{j+1} - tau u_j = tau u_j - u_{j-1} in the segment's own tau, and
    row j is beta_j u_{j+1} = a_j u_j - beta_{j-1} u_{j-1}."""
    hu = (row[0] - lam * row[1]) * u
    if before is not None:
        hu = hu + before * w
    return hu if after is None else hu / after


def _phase(j, t, f):
    """(k, h) with j t + f = k + h, k even and h in about [-1, 2]: t is
    split so that j times its leading 26 bits is exact, and the rest of the
    product is small, so h carries no rounding of the size of j t."""
    t1 = np.round(t * 2.0 ** 26) * 2.0 ** -26
    x = j * t1
    k = 2.0 * np.round(0.5 * x)
    return k, (x - k) + (j * (t - t1) + f)


def _pq(seg: _Segment, lam):
    """p = 2 beta - a and q = 2 beta + a of ``seg`` at the shifts lam,
    formed without cancellation (see ``_advance``): the segment is in its
    passband where both are positive."""
    return ((2.0 * seg.k_o - seg.k_d) + lam * (2.0 * seg.c_o + seg.c_d),
            (2.0 * seg.k_o + seg.k_d) + lam * (2.0 * seg.c_o - seg.c_d))


def _advance(seg: _Segment, lam, beta, u, w, values: bool = False, phase: bool = False):
    """Across one segment, of |b| = ``beta``, from the state (u, W) at its
    first node: the sign changes of u over its nodes and the state at its
    last node; with ``values``, also the ``_Wave`` that gives u at every
    node and the log of the factor all of these were divided by.

    On the segment u_{j+1} + u_{j-1} = 2 tau u_j, tau = a/(2 beta).  With
    p = 2 beta - a and q = 2 beta + a, formed without cancellation (on
    the ladder q = k_d, on the strip p = lam c_d), the passband p, q > 0
    has u_j = R sin(pi (j t + f)), pi t = psi = 2 atan2(sqrt p, sqrt q),
    and a sign change each time j t + f passes a whole number; for p <= 0
    u_j = e^{j kappa} (A + B e^{-2 j kappa}) changes sign at most once,
    and for q <= 0 it is (-1)^j times that with p and q swapped.  Those
    are divided by e^{steps kappa}.  A call whose shifts all lie in the
    passband skips the evanescent formulas.  With ``phase``, also
    k, h (NaN where evanescent) and sin(psi) of the last node.
    """
    m = seg.steps
    beta4 = 4.0 * beta      # p + q
    p, q = _pq(seg, lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin_psi = 2.0 * np.sqrt(p * q) / beta4
        t = np.arctan2(np.sqrt(p), np.sqrt(q)) * (2.0 / np.pi)
        f = np.arctan2(u, w / sin_psi) / np.pi
        r = np.hypot(u, w / sin_psi) * np.where(f < 0, -1.0, 1.0)
        f = np.where(f < 0, f + 1.0, f)             # in [0, 1), so none before j = 0
        k, h = _phase(m, t, f)
        # the state from the part of h above its floor, with the sign the
        # count gives it: sin(pi h) can round to the other side of 0 than
        # floor(h) near a whole h, and a u of 0 there would lose the sign
        # the next segment counts from
        whole = np.floor(h)
        k, h = k + whole, np.maximum(h - whole, _SAFMIN)
        ends, pi_h = np.where(k % 2, -r, r), np.pi * h
        band = (k, ends * np.sin(pi_h), ends * np.cos(pi_h) * sin_psi)
        evanescent = (p <= 0) | (q <= 0)
        angle = (k, np.where(evanescent, np.nan, h), sin_psi) if phase else ()
        if not evanescent.any():
            if not values:
                return band + angle
            nan = np.full_like(t, np.nan)
            return band + (_Wave(t, f, r, nan, nan, nan, evanescent, evanescent),
                           np.zeros_like(t))
        alt = q < 0
        pe, qe, we = np.where(alt, q, p), np.where(alt, p, q), np.where(alt, -w, w)
        kappa = 2.0 * np.arctanh(np.sqrt(-pe / qe))
        sinh = 2.0 * np.sqrt(-pe * qe) / beta4
        a, b = 0.5 * (u + we / sinh), 0.5 * (u - we / sinh)
        decay = np.exp(-2.0 * m * kappa)
        end = a + b * decay
        flips = (u * end < 0).astype(float)
        sign = np.where(alt, (-1.0) ** m, 1.0)      # u_m = (-1)^m w_m when alternating
        ev = (np.where(alt, m - flips, flips), sign * end,
              sinh * (a - b * decay) * np.where(alt, -sign, 1.0))
        out = tuple(np.where(evanescent, e, o) for e, o in zip(ev, band))
    if not values:
        return out + angle
    return out + (_Wave(t, f, r, a, b, kappa, alt, evanescent),
                  np.where(evanescent, m * kappa, 0.0))


class _Wave(NamedTuple):
    """A shot across one segment of m steps, per shift: u_j = r sin(pi (j t
    + f)) on its nodes j = 0..m where it is in the passband, and where it
    is ``evanescent`` (a e^{(j-m) kappa} + b e^{-(j+m) kappa}) times (-1)^j
    where ``alt``, divided by e^{m kappa} (see ``_advance``)."""

    t: np.ndarray
    f: np.ndarray
    r: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kappa: np.ndarray
    alt: np.ndarray
    evanescent: np.ndarray


def _shoot(first: _Segment, second: _Segment, rows, lam, values: bool = False,
           phase: bool = False):
    """Shot from the first of ``rows`` across ``first``, the second row,
    ``second`` and the last row: for each shift lam > 0 the number of sign
    changes, which is ``sturm_count``'s count, as the LDL^T pivots of the
    shot v from node 0 are d_j = |b_j| u_{j+1}/u_j, with a virtual u_n for
    the last (the discrete Pruefer angle: Atkinson, *Discrete and
    Continuous Boundary Problems*, 1964).  With ``values``, the ``_Wave``
    of each segment per lam, which ``closedform._wave_values`` evaluates
    at any of its nodes (the shared node in both), and the log of the factor those
    on ``second`` are divided by beyond the others.

    With ``phase``, also the continuous Pruefer phase Phi = whole + part:
    the sign changes on ``first``, plus the phase m t + f that ``_advance``
    forms on ``second`` (NaN where that is evanescent), less the h* in
    (0, 1) at which the state there, u = r sin(pi h*) and W = r cos(pi h*)
    sin(psi), meets the last row's condition (h_k - lam h_c) u + beta W = 0
    (h* = 1/2 where the row's (h_k, h_c) is (0, 0)).  Phi rises with lam
    and the count is floor(Phi) + 1.  ``whole`` holds integers and
    ``part`` lies in about [-2, 2], so Phi - k keeps every digit of part.

    The state W_0 = u_1 - tau u_0 at the first row carries u_1 only to
    within eps |tau|, and tau = a/(2 beta) of ``first`` grows without
    bound as its beta does not (on a ladder as lam -> 0): where |tau|
    reaches 1/(_ULPS eps), the count is ``sturm_count``'s on the pencil
    the segments and rows make (``_pencil``), and ``part`` is NaN."""
    lam = np.asarray(lam, dtype=float)
    u = np.ones_like(lam)
    beta1, beta2 = (seg.k_o + lam * seg.c_o for seg in (first, second))
    lost = _ULPS * _EPS * np.abs(first.k_d - lam * first.c_d) >= 2.0 * beta1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):    # lost shifts
        w = _junction(rows[0], lam, u, 0.0, None, beta1)
        head = _advance(first, lam, beta1, u, w, values)
        w = _junction(rows[1], lam, head[1], head[2], beta1, beta2)
        tail = _advance(second, lam, beta2, head[1], w, values, phase)
        if values:
            return head[3], tail[3], tail[4]
        last = _junction(rows[2], lam, tail[1], tail[2], beta2, None)
        count = head[0] + tail[0] + (tail[1] * last < 0)
    if lost.any():
        count[lost] = sturm_count(_pencil(first, second, rows), lam[lost])
    count = count.astype(int)
    if not phase:
        return count
    k, h, sin_psi = tail[3:]
    with np.errstate(invalid="ignore"):
        star = np.arctan2(beta2 * sin_psi, lam * rows[2][1] - rows[2][0]) / np.pi
    return count, head[0] + k, np.where(lost, np.nan, h - star)


def _pencil(first: _Segment, second: _Segment, rows) -> NetworkBands:
    """Bands of the pencil ``_shoot`` shoots across: the free ``rows``'
    (h_k, h_c) plus half the diagonals of each segment beside them, each
    segment's interior diagonals, and off-diagonals of magnitude k_o and
    c_o (one of them zero) and opposite signs, so that |b| = beta."""
    segs = ([first], [first, second], [second])
    bands = []
    for i in (0, 1):    # the k and the c bands
        free = [row[i] + sum(seg[i] for seg in beside) / 2 for row, beside in zip(rows, segs)]
        bands += [np.concatenate([free[:1], np.full(first.steps - 1, first[i]), free[1:2],
                                  np.full(second.steps - 1, second[i]), free[2:]]),
                  (1 - 2 * i) * np.repeat([first[2 + i], second[2 + i]],
                                          [first.steps, second.steps])]
    return NetworkBands(*bands)


def _closed_modes(bands: NetworkBands, segs, freq_window: tuple[float, float] | None
                  ) -> ClosedModes:
    """The non-gauge modes in ``freq_window`` of a two-segment device, as
    ``closedform.ClosedModes``: the eigenvalues by ``_closed_eigenvalues``,
    all window modes at once, from one count of a ``_phase_grid``.  A
    window with no top ends at a shift above lam_max, and one from 0 or
    below starts at a shift below every physical mode (both ``_reach``).
    The count also takes the grid shift next below and next above the
    window, whose counts bound the eigenvalues next to the window's modes
    for the gaps that ``ClosedModes`` checks."""
    from .closedform import ClosedModes     # compiled only where this path runs

    ladder, strip, rows = segs
    count = partial(_shoot, ladder, strip, rows)
    n, first = len(bands.k_diag), int(_gauge_modes(bands))
    lo, hi = (0.0, np.inf) if freq_window is None else map(float, freq_window)
    lam_lo, lam_hi = np.sign(lo) * lo * lo, hi * hi
    points = _phase_points(segs[:2])
    empty = (np.empty(0), np.empty(0, dtype=int), None)
    if lam_hi == np.inf:
        # the Rayleigh quotient K_ii / C_ii of a unit vector bounds lam_max below
        lam_hi = _reach(count, 4.0 * np.max(bands.k_diag / bands.c_diag), 4.0,
                        lambda c: c >= n)
    if lam_lo <= 0 < lam_hi:
        lam_lo = _reach(count, points[0], 0.25, lambda c: c <= first)
    if not 0 < lam_lo < lam_hi:
        return ClosedModes(bands, segs, *empty)
    grid = _phase_grid(points, lam_lo, lam_hi)
    shifts = np.concatenate([grid, _outside(points, lam_lo, lam_hi)])
    shot = count(shifts, phase=True)
    lam = _closed_eigenvalues(count, grid, tuple(x[:len(grid)] for x in shot), first)
    counts = shot[0]
    index = np.arange(max(counts[0], first), counts[len(grid) - 1])
    keep = np.flatnonzero((np.sqrt(lam) >= lo) & (np.sqrt(lam) <= hi))
    if not len(keep):
        return ClosedModes(bands, segs, *empty)
    # the eigenvalues next to the window's: counts(s) >= k puts eigenvalue
    # k - 1 below s, counts(s) <= k + 1 eigenvalue k + 1 at or above it
    below = shifts[counts >= index[0]].min() if index[0] else -np.inf
    above = shifts[counts <= index[-1] + 1].max() if index[-1] + 1 < n else np.inf
    near = np.concatenate([[below], lam, [above]])
    return ClosedModes(bands, segs, lam[keep], index[keep], near[[keep[0], keep[-1] + 2]])


def _reach(count, start: float, factor: float, stop) -> float:
    """The first of the shifts start, start factor, start factor^2, ...
    whose ``count`` meets ``stop``, _SHIFTS shifts per count."""
    steps = factor ** np.arange(_SHIFTS)
    while True:
        shifts = start * steps
        met = stop(count(shifts))
        if met.any():
            return float(shifts[np.argmax(met)])
        start = shifts[-1] * factor


def _phase_points(segs) -> np.ndarray:
    """The positive shifts, ascending, at which the phase m t of either
    segment passes a multiple of 1/_GRID.  The phase t of a shift is that
    of the segment's sinusoid, a = 2 beta cos(pi t)."""
    points = []
    for seg in segs:
        cos = np.cos(np.arange(1, _GRID * seg.steps) * (np.pi / (_GRID * seg.steps)))
        with np.errstate(divide="ignore", invalid="ignore"):
            points.append((seg.k_d - 2.0 * seg.k_o * cos) / (seg.c_d + 2.0 * seg.c_o * cos))
    points = np.concatenate(points)
    return np.sort(points[np.isfinite(points) & (points > 0)])


def _phase_grid(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo, hi and, ascending between them, the ``_phase_points``, so that
    between two of them the phases of both segments rise by at most
    2/_GRID, however little lam moves meanwhile (the fig2 device's lowest
    window mode lies within 6e-5 of the ladder's cutoff in lam, its next
    within 2.5e-4)."""
    return np.concatenate([[lo], points[(points > lo) & (points < hi)], [hi]])


def _outside(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The ``_phase_points`` next below lo and next above hi, where there
    are any."""
    return np.concatenate([points[points < lo][-1:], points[points > hi][:1]])


def _mobius_root(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The x at which the Moebius map through the three points (x_i,
    tan(pi g_i)), the rows of x and g, is zero: the one whose cross ratio
    with the x_i is that of 0 with the tan(pi g_i), which a Moebius map
    keeps.  It is exact where tan(pi g) is a Moebius map of x, as across a
    narrow resonance, and takes g modulo 1 without a branch."""
    s = np.sin(np.pi * np.concatenate([g[:2], g[:2] - g[2]]))
    r = (s[2] * s[1]) / (s[3] * s[0])
    a, b = x[0] - x[2], x[1] - x[2]
    return x[1] + r * b * (x[0] - x[1]) / (r * b - a)


def _mobius_steps(count, index: np.ndarray, x: np.ndarray, g: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of the phase Phi - ``index`` of each row (column) by
    Moebius steps, all rows in one ``count`` shot per step, from the three
    points (x, g) of the row, g = Phi - index; NaN where g is or turns
    NaN or the row does not converge.  Each step moves one end of the
    row's bracket [lo, hi] (in place) to its shift by the count of the same
    shot, never by the sign of Phi."""
    root = np.full(len(index), np.nan)
    rows = np.flatnonzero(np.isfinite(g).all(axis=0))
    k, x, g, left, right = index[rows], x[:, rows], g[:, rows], lo[rows], hi[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_STEPS):
            new = _mobius_root(x, g)
            # a step of a few ulps has met the rounding of Phi: done
            tol = _ULPS * np.spacing(x[2])
            near = np.abs(new - x[2]) <= tol
            done = near | (np.abs(x[2] - x[1]) <= tol)
            stay = ~done & np.isfinite(g[2])
            if not stay.all():
                root[rows[done]] = np.where(near, np.clip(new, left, right), x[2])[done]
                rows, k, x, g, left, right, new = (
                    a[..., stay] for a in (rows, k, x, g, left, right, new))
            if not rows.size:
                break
            new = np.where((new > left) & (new < right), new, 0.5 * (left + right))
            counted, whole, part = count(new, phase=True)
            below = counted <= k
            left, right = np.where(below, new, left), np.where(below, right, new)
            lo[rows], hi[rows] = left, right
            x = np.concatenate([x[1:], new[None]])
            g = np.concatenate([g[1:], ((whole - k) + part)[None]])
    return root


def _fan(count, index: np.ndarray, center: np.ndarray, lo: np.ndarray, hi: np.ndarray,
         reach: int = _FAN) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The brackets [lo, hi] of eigenvalue number ``index`` narrowed by one
    shot of 2 ``reach`` + 1 shifts one ulp apart about ``center``, moved
    into the bracket where it reaches an end: to two adjacent doubles
    wherever the count steps past ``index`` inside the fan.  hi moves to
    the lowest shift counted above ``index`` and lo to the highest below
    that one; the ends keep the counts they were given, as the count need
    not be monotone at the ulp level.  Also returns the end nearer the
    root by the phase |Phi - index| at both, NaN unless the fan holds
    both ends."""
    step = np.spacing(center)[:, None]
    lo, hi = lo[:, None], hi[:, None]
    shifts = (np.minimum(np.maximum(center[:, None], lo + reach * step), hi - reach * step)
              + np.arange(-reach, reach + 1) * step)
    counted, whole, part = count(shifts, phase=True)
    inside = (shifts >= lo) & (shifts <= hi)
    above = np.where(shifts == hi, True, np.where(shifts == lo, False, counted > index[:, None]))
    rows, above = np.arange(len(index)), above & inside
    up = np.where(above, shifts, np.inf).argmin(axis=1)
    hi = np.where(above[rows, up], shifts[rows, up], hi[:, 0])
    below = ~above & inside & (shifts < hi[:, None])
    down = np.where(below, shifts, -np.inf).argmax(axis=1)
    lo = np.where(below[rows, down], shifts[rows, down], lo[:, 0])
    phase = np.abs((whole - index[:, None]) + part)
    nearer = np.where(phase[rows, down] <= phase[rows, up], lo, hi)
    return lo, hi, np.where(above[rows, up] & below[rows, down], nearer, np.nan)


def _closed_eigenvalues(count, grid: np.ndarray, shot, first: int) -> np.ndarray:
    """Eigenvalues number max(count(lo), first) to count(hi) - 1 of a
    two-segment device, ascending, by ``count`` (``_shoot`` on it) from
    the ``_phase_grid`` from lo to hi and its ``shot`` (count, whole and
    part of the phase at each grid shift), each
    an end of a bracket of two adjacent doubles across which the count
    steps from its number to the next, the end nearer the root by the
    phase at both (the bracket's midpoint where no fan held both ends).

    With ``phase``, ``count`` also gives the continuous Pruefer phase Phi,
    increasing in lam, whose floor plus one is the count, so eigenvalue k
    is the root of Phi - k.  The count of a ``_phase_grid`` brackets each
    eigenvalue alone (a grid uniform in lam would not: the modes crowd
    within 1e-4 of the ladder's cutoff); ``_mobius_steps`` find the
    roots, and a ``_fan`` about each certifies it, a wider one the few the
    first misses.  A row whose grid cell holds more than one eigenvalue,
    whose Phi is NaN (the strip evanescent there) or whose root lies
    outside both fans is narrowed by multisection (``_narrow``) until
    closed, and then fanned across.
    """
    counts, whole, part = shot
    index = np.arange(max(counts[0], first), counts[-1])
    cell = np.searchsorted(np.maximum.accumulate(counts), index, side="right") - 1
    lo, hi = grid[cell], grid[cell + 1]
    # each row's three points: the grid neighbour of its cell nearer in
    # phase, then the cell's ends (the phase NaN unless the cell isolates)
    at = np.stack([np.maximum(cell - 1, 0), np.minimum(cell + 2, len(grid) - 1), cell, cell + 1])
    g = (whole[at] - index) + part[at]
    before = np.abs(g[0]) < np.abs(g[1])
    at[1], g[1] = np.where(before, at[0], at[1]), np.where(before, g[0], g[1])
    g[:, (counts[cell] != index) | (counts[cell + 1] != index + 1)] = np.nan
    root = _mobius_steps(count, index, grid[at[1:]], g[1:], lo, hi)
    nearer = np.full(len(index), np.nan)
    rows = np.flatnonzero(np.isfinite(root))
    # a fan about each root, and a wider one about the few it misses
    for reach in (_FAN, 8 * _FAN):
        if not rows.size:
            break
        lo[rows], hi[rows], nearer[rows] = _fan(count, index[rows], root[rows],
                                                lo[rows], hi[rows], reach)
        rows = rows[hi[rows] > np.nextafter(lo[rows], np.inf)]
    rest = np.flatnonzero(hi > np.nextafter(lo, np.inf))
    while (rows := rest[_open(lo[rest], hi[rest])]).size:
        lo[rows], hi[rows] = _narrow(count, index[rows], lo[rows], hi[rows])
    if rest.size:
        lo[rest], hi[rest], nearer[rest] = _fan(count, index[rest], 0.5 * (lo[rest] + hi[rest]),
                                                lo[rest], hi[rest])
    return np.where(np.isnan(nearer), 0.5 * (lo + hi), nearer)


def sturm_count(bands: NetworkBands, lam) -> np.ndarray:
    """Number of generalized eigenvalues of (K, C) below each shift ``lam``.

    By Sylvester's law of inertia this is the number of negative pivots of
    the LDL^T factorization of K - lam C, whose tridiagonal recurrence
    d_i = a_i - b_{i-1}^2 / d_{i-1} costs O(n) per shift.  As in LAPACK
    dstebz, pivots smaller in magnitude than pivmin, zero included, are
    replaced by -pivmin: an eigenvalue equal to a shift counts as below
    it, and one within rounding of a shift may count on either side.
    ``lam`` has shape (..., m), broadcast against the leading axes of the
    bands; the result has the broadcast shape.

    As in LAPACK dlaneg (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28,
    2006), the nodes are swept in blocks of about ``_BLOCK_VALUES`` values
    (``_sweep``).
    """
    lam = _shifts_first(bands, lam)
    kd, ko, cd, co = map(_nodes_first, (bands.k_diag, bands.k_off, bands.c_diag, bands.c_off))
    kmax, cmax = (np.abs(x).max(axis=0, initial=0.0) for x in (ko, co))
    return np.moveaxis(_sweep((kd, cd), (ko, co), lam, _pivmin(kmax, cmax, lam))[0], 0, -1)


def _shifts_first(bands: NetworkBands, lam) -> np.ndarray:
    """The shifts ``lam`` (..., m), broadcast against the leading axes of
    the bands, as a contiguous (m, ...) array."""
    lam = np.asarray(lam, dtype=float)
    lead = np.broadcast_shapes(np.shape(bands.k_diag)[:-1], lam.shape[:-1])
    return np.ascontiguousarray(np.moveaxis(np.broadcast_to(lam, lead + lam.shape[-1:]), -1, 0))


def _nodes_first(x) -> np.ndarray:
    """(..., n) -> (n, 1, ...): one contiguous row per node."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0)[:, None])


def _pivmin(kmax: np.ndarray, cmax: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """dstebz's pivmin at the shifts-first ``lam``, scaled, as dstebz does,
    by the largest b_i^2 so that b^2/pivmin stays finite; this bound on it,
    from each device's largest |k_off| and |c_off|, costs no pass over the
    nodes.  It is squared after scaling by sqrt(_SAFMIN) = 2^-511, which
    keeps every bit and keeps the square finite wherever the bound is."""
    return np.maximum(_SAFMIN, np.square(np.sqrt(_SAFMIN) * (kmax + np.abs(lam) * cmax)))


def _sweep(diag, off, x: np.ndarray, pivmin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative LDL^T pivots at each shift of the tridiagonal matrix whose
    diagonal is v - x u, (v, u) = ``diag``, and whose squared off-diagonal
    is (k_off - x c_off)^2, (k_off, c_off) = ``off``, or ``off`` itself
    where that is one array of squares shared by every shift; and the last
    pivot.  Rows are nodes first, ``x`` is shifts first, and ``pivmin`` is
    the guard.  K - lam C is (v, u) = (k_diag, c_diag), x = lam.

    The nodes are swept in blocks of about ``_BLOCK_VALUES`` values: the
    block's diagonal (and squares, unless shared) in a few whole-block
    expressions, then the recurrence without the guard, two ufunc calls
    per node.  A block with a pivot below pivmin in magnitude (or NaN) is
    run again from its incoming pivot with the guard, so every pivot and
    count is that of the guarded recurrence, bit for bit.  Blocks are
    (nodes, shifts, devices): on a stack, whole-block expressions run over
    the devices.
    """
    (v, u), shared = diag, not isinstance(off, tuple)
    n = len(v)
    step = max(1, _BLOCK_VALUES // max(1, x.size))
    d = np.empty((min(n, step + 1),) + x.shape)
    sq = None if shared else np.empty((len(d) - 1,) + x.shape)
    x_rows = np.broadcast_to(x, d.shape).copy()     # x on each row of a block
    below = np.zeros(x.shape, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, n, step):
            e = min(n, s + step)
            carry = int(s > 0)      # row 0 then holds the last pivot before s
            piv = d[:e - s + carry]
            new = piv[carry:]
            if shared:
                b2 = off[s - carry:e - 1]
            else:
                b2 = sq[:e - s + carry - 1]
                np.multiply(x_rows[:len(b2)], off[1][s - carry:e - 1], out=b2)
                np.subtract(off[0][s - carry:e - 1], b2, out=b2)
                np.square(b2, out=b2)
            for guard in (None, pivmin):
                np.multiply(x_rows[:len(new)], u[s:e], out=new)
                np.subtract(v[s:e], new, out=new)
                _pivots(piv, b2, guard)
                if (np.abs(new).min(axis=0) >= pivmin).all():  # else a tiny pivot
                    break                   # or NaN: run the block guarded
            # int32: int16 would wrap on a block of 2^15 nodes (one shift)
            below += np.add.reduce(np.signbit(new), axis=0, dtype=np.int32)
            d[0] = piv[-1]
    return below, d[0]


class _StackCount:
    """``sturm_count`` of a stack of devices (one leading axis), called on
    shifts as it is, which counts a strip the devices share in closed form.

    Disorder scatters only the ladder, so the devices of a stack share the
    uniform strip from node s = ``_strip_start`` on.  Where rows 0..s carry
    no k_off (a ladder's), their b_i = -lam c_off,i, and the counter sweeps
    t = d / lam instead of the pivots d: t_{i+1} = (k_{i+1}/lam - c_{i+1})
    - c_off,i^2 / t_i, with the same signs as d for lam > 0, so the squares
    c_off^2 are formed once, here, not per shift.  dstebz's guard |d| <
    pivmin becomes |t| < pivmin/lam, and t is then -pivmin/lam, so an
    eigenvalue equal to a shift still counts below it.  The counter lays
    out those rows of every device nodes first once, keeps each device's
    largest |k_off| and |c_off| over all its edges (for ``_pivmin``), the
    strip as a ``_Segment`` and its last row's (h_k, h_c) (``_free_row``).
    A call sweeps the rows by ``_sweep``, blocked and guarded as
    ``sturm_count`` is (LAPACK dlaneg: Marques, Riedy & Voemel, SIAM J.
    Sci. Comput. 28, 2006), and ends on d_s = lam t_s, which gives the
    strip's shot state at s: u_s = 1 and W_s = u_{s+1} - tau u_s = (d_s -
    a/2) / beta, as d_s = beta u_{s+1}/u_s.  The sign of d_s is then the
    strip's first sign change, not the sweep's, and the strip and its last
    row count in closed form, O(1) per shift, as ``_shoot`` takes a
    segment (Atkinson's discrete Pruefer angle, *Discrete and Continuous
    Boundary Problems*, 1964).

    ``sturm_count`` alone counts a stack that shares no strip of one step
    or more or whose rows 0..s carry k_off, a call with a shift where the
    strip is evanescent (there the closed count need not rise with lam
    over a few ulps), and one with a shift where 1/lam, k/lam or pivmin/lam
    leaves the range of normal doubles.
    """

    def __init__(self, bands: NetworkBands):
        kd, ko, cd, co = bands.k_diag, bands.k_off, bands.c_diag, bands.c_off
        self.bands, self.strip, start = bands, None, _strip_start(bands)
        if start < kd.shape[-1] - 1 and not ko[:, :start].any():
            self.strip = _segment(kd[0], ko[0], cd[0], co[0], start, kd.shape[-1] - 1)
            self.last = _free_row(kd[0, -1], cd[0, -1], [self.strip])
            # t_i = v_i - u_i / lam - c_off^2 / t_{i-1} in _sweep's terms
            self.diag = (_nodes_first(-cd[:, :start + 1]), _nodes_first(-kd[:, :start + 1]))
            self.off2 = np.square(_nodes_first(co[:, :start]))
            self.kdmax = np.abs(kd[:, :start + 1]).max()
            self.kmax, self.cmax = (np.abs(x).max(axis=-1, initial=0.0)[None] for x in (ko, co))

    def __call__(self, lam) -> np.ndarray:
        shifts, strip = _shifts_first(self.bands, lam), self.strip
        if strip is None or not all((x > 0).all() for x in _pq(strip, shifts)):
            return sturm_count(self.bands, lam)
        with np.errstate(divide="ignore", over="ignore"):
            x = 1.0 / shifts
            pivmin = _pivmin(self.kmax, self.cmax, shifts) * x
            if not ((x >= _SAFMIN).all() and (pivmin > 0).all()
                    and np.isfinite(self.kdmax * x).all()):
                return sturm_count(self.bands, lam)
        below, t = _sweep(self.diag, self.off2, x, pivmin)
        d = shifts * t
        beta = strip.k_o + shifts * strip.c_o
        w = (d - 0.5 * (strip.k_d - shifts * strip.c_d)) / beta
        sign_changes, u, w = _advance(strip, shifts, beta, np.ones_like(d), w)
        last = _junction(self.last, shifts, u, w, beta, None)
        below += (sign_changes + (u * last < 0)).astype(int) - np.signbit(d)
        return np.moveaxis(below, 0, -1)


def _narrow(count, index: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One multisection round on the bracket [lo, hi] of eigenvalue number
    ``index`` (0-based, ascending) of each row, by ``count``: shifts (rows,
    k) -> the number of eigenvalues below each."""
    fractions = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    shifts = lo[:, None] + (hi - lo)[:, None] * fractions
    k = np.count_nonzero(count(shifts) <= index[:, None], axis=1)
    rows = np.arange(len(lo))
    lo = np.where(k > 0, shifts[rows, k - 1], lo)
    hi = np.where(k < _SHIFTS, shifts[rows, np.minimum(k, _SHIFTS - 1)], hi)
    return lo, hi


def _open(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets wider than the rounding of their upper end (NaN is closed)."""
    return hi - lo > 2.0 * _EPS * np.abs(hi)


def band_edges(bands: NetworkBands, freq_window: tuple[float, float],
               band: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest window mode and band mode count of each device in a stack.

    ``bands`` carries one leading device axis.  The modes are those of
    ``solve_modes``: the ``_gauge_modes`` are dropped, and the
    window (lo, hi) and the band (lo, hi), both in rad/s, are inclusive.
    The count covers the part of the band inside the window.  Returns
    (edge in rad/s, NaN where the window holds no mode; count).  Only
    Sturm counts are used, each by the stack's one ``_StackCount``, the
    first (the window's and band's ends) included: no matrix is formed and
    no eigenvector found.  Multisection starts each device that has a mode
    from the tightest two of those four shifts whose counts hold its
    index; a device without one keeps the window as its (unused) bracket.
    IllConditionedCircuitError names the first device whose capacitance
    has an LDL^T pivot that is not positive.
    """
    bounds = np.array([*freq_window, *band], dtype=float)
    if not all(np.isfinite(x).all() for x in (bounds, bands.k_diag, bands.k_off,
                                              bands.c_diag, bands.c_off)):
        raise ValueError("band_edges needs finite bands, window and band")
    _check_capacitance(bands)
    bounds = np.sign(bounds) * bounds ** 2
    count = _StackCount(bands)
    counts = count(bounds)
    win_lo, win_hi, band_lo, band_hi = counts.T
    first = np.maximum(win_lo, _gauge_modes(bands))     # index of the lowest kept mode
    band_count = np.maximum(0, np.minimum(band_hi, win_hi)
                            - np.maximum(band_lo, first))

    found = first < win_hi
    # N(lo) <= first < N(hi) on every bracket that holds a mode: the
    # tightest pair of the four counted shifts, the window's ends at worst
    below = counts <= first[:, None]
    lo = np.where(found, np.where(below, bounds, -np.inf).max(axis=1), bounds[0])
    hi = np.where(found, np.where(below, np.inf, bounds).min(axis=1), bounds[1])
    while (active := found & _open(lo, hi)).any():
        lo, hi = np.where(active, _narrow(count, first, lo, hi), (lo, hi))
    return np.where(found, np.sqrt(0.5 * (lo + hi)), np.nan), band_count


def footprint_weights(spec: CircuitSpec, x0: float, extent: float) -> np.ndarray:
    """Weights w over the strip nodes such that |w . flux| is the magnitude
    of a mode's strip current averaged over the footprint [x0, x0+extent].

    Branch currents live at the segment midpoints and are interpolated
    linearly in between; the average is the exact integral mean of that
    piecewise-linear shape.  It is linear in the node fluxes: branch
    currents are flux differences, and linear interpolation and the
    trapezoid rule are linear in the currents.  ``extent`` must be
    positive and the footprint must lie on the strip.
    """
    if not extent > 0:
        raise ValueError("extent must be positive")
    if x0 < 0 or x0 + extent > spec.rhtl_length:
        raise ValueError(
            f"footprint [{x0}, {x0 + extent}] m falls outside the strip "
            f"[0, {spec.rhtl_length}] m")
    mids = (np.arange(spec.n_right) + 0.5) * spec.dx_right
    inner = mids[(mids > x0) & (mids < x0 + extent)]
    knots = np.concatenate([[x0], inner, [x0 + extent]])
    # trapezoid weight of each knot, and its interpolation between midpoints
    steps = np.diff(knots)
    trapezoid = 0.5 * (np.append(steps, 0.0) + np.insert(steps, 0, 0.0))
    j = np.clip(np.searchsorted(mids, knots, side="right") - 1, 0, spec.n_right - 2)
    frac = np.clip((knots - mids[j]) / (mids[j + 1] - mids[j]), 0.0, 1.0)
    per_current = np.zeros(spec.n_right)
    np.add.at(per_current, j, trapezoid * (1.0 - frac))
    np.add.at(per_current, j + 1, trapezoid * frac)
    per_current /= extent * spec.l_right_per_len * spec.dx_right
    weights = np.zeros(spec.n_right + 1)
    weights[:-1] += per_current
    weights[1:] -= per_current
    return weights


def find_current_antinode(modes: ModeSet, spec: CircuitSpec, n: int) -> float:
    """Position of the largest strip current magnitude of mode n (m), at
    the midpoint of its strip segment."""
    flux = modes.rows(slice(modes.interface_index, None), [n])[:, 0]
    currents = (flux[:-1] - flux[1:]) / (spec.l_right_per_len * spec.dx_right)
    return float((np.argmax(np.abs(currents)) + 0.5) * spec.dx_right)


def footprint_at_antinode(modes: ModeSet, spec: CircuitSpec,
                          target_omega: float, extent: float) -> float:
    """Left edge of a footprint centered on the current antinode of the
    mode nearest ``target_omega``, clipped into the strip."""
    n = int(np.argmin(np.abs(modes.frequencies - target_omega)))
    center = find_current_antinode(modes, spec, n)
    x0 = center - extent / 2.0
    return float(np.clip(x0, 0.0, spec.rhtl_length - extent))


def coupling_spectrum(modes: ModeSet, spec: CircuitSpec, qubit: QubitSpec,
                      normalization: str = "dom") -> CouplingSpectrum:
    """Qubit-mode coupling spectrum over the given mode set.

    The spatial factor is each mode's strip current magnitude averaged over
    the qubit footprint: one product |w^T V| of the ``footprint_weights``
    with the profiles' rows under the footprint (``ModeSet.rows``).  With the default
    ``normalization="dom"`` it is weighted by the density of modes at the
    mode frequency, which flattens the couplings of the quasi-degenerate
    band-edge modes (they share one strip profile but carry vanishing strip
    weight individually); ``"spatial"`` uses the bare average instead.
    Either way the largest entry defines relative_profile = 1 and
    g_n = g_global * relative_profile_n.
    """
    if len(modes) == 0:
        raise ValueError("empty mode set")
    if normalization not in ("dom", "spatial"):
        raise ValueError(f"unknown normalization {normalization!r}")
    weights = footprint_weights(spec, qubit.position, qubit.extent)
    # only the rows under the footprint (about n_right / 60 of them), a
    # block of modes at a time
    used = np.flatnonzero(weights)
    span = slice(used[0], used[-1] + 1)
    rows = slice(modes.interface_index + span.start, modes.interface_index + span.stop)
    step = max(1, _BLOCK_VALUES // len(used))
    avg = np.abs(np.concatenate([
        weights[span] @ modes.rows(rows, np.arange(j, min(j + step, len(modes))))
        for j in range(0, len(modes), step)]))
    raw = avg * dom_approx(modes.frequencies, spec) if normalization == "dom" else avg
    peak = raw.max()
    if peak == 0:
        relative = np.zeros_like(raw)
    else:
        relative = raw / peak
    return CouplingSpectrum(frequencies=modes.frequencies.copy(),
                            relative_profile=relative,
                            g=qubit.g_global * relative)


def dom_numeric(modes: ModeSet) -> np.ndarray:
    """Numerical density of modes at each mode, from the computed spectrum.

    The nearest-neighbor spacing estimate 2/(omega_{n+1}-omega_{n-1}) at
    interior modes and the one-sided 1/spacing at the two ends, for
    dot-level comparison against the closed-form density.
    """
    w = modes.frequencies
    if len(w) < 2:
        raise ValueError("need at least 2 modes to estimate a density")
    spacing = np.empty_like(w)
    spacing[1:-1] = 2.0 / (w[2:] - w[:-2])
    spacing[0] = 1.0 / (w[1] - w[0])
    spacing[-1] = 1.0 / (w[-1] - w[-2])
    return spacing
