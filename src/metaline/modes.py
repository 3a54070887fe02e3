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
  certifies each: 9 shots in all on the fig2 device, where multisection
  took 21.  Each vector joins the solutions shot from both ends, O(n m)
  for m window modes plus one O(n m^2) Loewdin step;
- dense ``eigh`` (Cholesky reduction and LAPACK sygvd via scipy, imported
  only there) for dims 1001-2001 and for every band layout the closed
  form does not take (disordered ladders, bare lines, toy pencils), which
  no command solves: O(n^3), the only path that forms the n x n matrices,
  which sygvd overwrites in place.

README (*Eigensolvers*) holds the timings of both paths and why
``_DENSE_DIMS``, the size class of the benchmark's spectrum device (dim
2001), stays dense: its reference profiles carry dense eigh's rounding.
Both paths apply the same gauge rule (``_gauge_floor`` is its count-only
form), sign rule and tie-break.

Where only frequencies and counts are needed (the disorder study)
``band_edges`` works on the bands of a whole stack of devices: Sturm
counts from the LDL^T pivots of inv_ind - lam cap (Sylvester's law of
inertia) by ``sturm_count`` and multisection, O(n) per shift and no
eigenvectors.  ``sturm_count`` sweeps blocks of nodes in whole-block numpy
expressions and a pivot recurrence of two numpy calls per node without a
guard, as in LAPACK dlaneg; only a block that meets a pivot below pivmin
runs again with dstebz's guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .circuit import CircuitSpec, NetworkBands, NetworkMatrices
from .dispersion import dom_approx

# gauge rule: modes at or below this fraction of the largest frequency
# are the inductive null space, not physical modes
GAUGE = 1e-6
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
    """All positive-frequency normal modes of the network, ascending.

    Near-zero gauge modes (the inductive null space left by purely
    capacitive ends) are discarded at or below 1e-6 of the largest
    frequency.  Ties in frequency are broken by the ascending number of
    sign changes of the profile.  ``freq_window`` = (lo, hi) in rad/s
    restricts the returned modes.  Two-segment devices are solved in
    closed form (``_closed_modes``), except those whose dimension lies in
    ``_DENSE_DIMS``; they and every other network go to dense ``eigh``.
    IllConditionedCircuitError, on either path, names the first LDL^T
    pivot of the capacitance that is not positive.
    """
    _check_capacitance(mat.bands)
    segs = None if mat.dim in _DENSE_DIMS else _two_segments(mat.bands, mat.interface_index)
    if segs is None:
        omega, vecs = _dense_modes(mat, freq_window)
    else:
        omega, vecs = _closed_modes(mat.bands, segs, freq_window)

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
    return ModeSet(frequencies=omega, profiles=vecs,
                   node_positions=mat.node_positions,
                   interface_index=mat.interface_index)


def _dense_modes(mat: NetworkMatrices, freq_window: tuple[float, float] | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The non-gauge modes in ``freq_window`` by dense ``eigh`` (LAPACK
    sygvd), in place: K and C are formed fresh and symmetric, so their
    transposes are the same matrices in the Fortran order LAPACK takes."""
    import scipy.linalg as sla  # slow to import; only the _DENSE_DIMS sizes need it

    lo, hi = (0.0, np.inf) if freq_window is None else freq_window
    w2, vecs = sla.eigh(mat.inv_ind.T, mat.cap.T, overwrite_a=True, overwrite_b=True)
    omega = np.sqrt(np.clip(w2, 0.0, None))
    keep = (omega > GAUGE * omega.max()) & (omega >= lo) & (omega <= hi)
    return omega[keep], vecs[:, keep]


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


def _two_segments(bands: NetworkBands, iface: int):
    """(ladder, strip, rows) of the bands, or None unless they have the
    two-segment form exactly: on the ladder (off-diagonals 0..iface-1)
    k_off = 0 and c_off one non-zero value, on the strip c_off = 0 and
    k_off one non-zero value, each segment's interior diagonals constant.
    ``rows`` holds (h_k, h_c) of the free rows (first, interface, last):
    h_k - lam h_c is a_j less half the a of each segment beside it."""
    kd, ko, cd, co = bands.k_diag, bands.k_off, bands.c_diag, bands.c_off
    n = len(kd)
    if not 1 <= iface <= n - 3:
        return None
    segs = []
    for const, zero, off, inner in ((co, ko, slice(0, iface), slice(1, iface)),
                                    (ko, co, slice(iface, n - 1), slice(iface + 1, n - 1))):
        if zero[off].any() or not const[off].all() or any(
                np.ptp(x[part]) > 0 for x, part in ((const, off), (kd, inner), (cd, inner))
                if len(x[part])):
            return None
        # a segment without interior rows (a one-cell ladder) takes a = 0
        k_d, c_d = (kd[inner][0], cd[inner][0]) if len(kd[inner]) else (0.0, 0.0)
        segs.append(_Segment(k_d, c_d, abs(ko[off][0]), abs(co[off][0]),
                             off.stop - off.start, -np.sign(ko[off][0] - co[off][0])))
    # in long double where there is one: the halves nearly cancel a_j
    half = [(np.longdouble(seg.k_d) / 2, np.longdouble(seg.c_d) / 2) for seg in segs]
    rows = [(kd[i] - half[0][0] * (i < n - 1) - half[1][0] * (i > 0),
             cd[i] - half[0][1] * (i < n - 1) - half[1][1] * (i > 0)) for i in (0, iface, n - 1)]
    return segs[0], segs[1], [(float(h_k), float(h_c)) for h_k, h_c in rows]


def _junction(row, prev: _Segment | None, nxt: _Segment | None, lam, u, w):
    """W of the next segment at a free row from the state (u, W) the
    previous one left there; with no next segment (the last row), beta
    times the virtual u_n that row sets.  The state at node j is (u_j,
    W_j), W_j = u_{j+1} - tau u_j = tau u_j - u_{j-1} in the segment's own
    tau, and row j is beta_j u_{j+1} = a_j u_j - beta_{j-1} u_{j-1}."""
    hu = (row[0] - lam * row[1]) * u
    if prev is not None:
        hu = hu + (prev.k_o + lam * prev.c_o) * w
    return hu if nxt is None else hu / (nxt.k_o + lam * nxt.c_o)


def _phase(j, t, f):
    """(k, h) with j t + f = k + h, k even and h in about [-1, 2]: t is
    split so that j times its leading 26 bits is exact, and the rest of the
    product is small, so h carries no rounding of the size of j t."""
    t1 = np.round(t * 2.0 ** 26) * 2.0 ** -26
    x = j * t1
    k = 2.0 * np.round(0.5 * x)
    return k, (x - k) + (j * (t - t1) + f)


def _advance(seg: _Segment, lam, u, w, values: bool = False, phase: bool = False):
    """Across one segment from the state (u, W) at its first node: the sign
    changes of u over its nodes and the state at its last node; with
    ``values``, also u at every node (rows) and the log of the factor all
    of these were divided by.

    On the segment u_{j+1} + u_{j-1} = 2 tau u_j, tau = a/(2 beta).  With
    p = 2 beta - a and q = 2 beta + a, formed without cancellation (on
    the ladder q = k_d, on the strip p = lam c_d), the passband p, q > 0
    has u_j = R sin(pi (j t + f)), pi t = psi = 2 atan2(sqrt p, sqrt q),
    and a sign change each time j t + f passes a whole number; for p <= 0
    u_j = e^{j kappa} (A + B e^{-2 j kappa}) changes sign at most once,
    and for q <= 0 it is (-1)^j times that with p and q swapped.  Those
    are divided by e^{steps kappa}.  A count-only call whose shifts all lie
    in the passband skips the evanescent formulas.  With ``phase``, also
    k, h (NaN where evanescent) and sin(psi) of the last node.
    """
    m = seg.steps
    beta4 = 4.0 * (seg.k_o + lam * seg.c_o)      # p + q
    p = (2.0 * seg.k_o - seg.k_d) + lam * (2.0 * seg.c_o + seg.c_d)
    q = (2.0 * seg.k_o + seg.k_d) + lam * (2.0 * seg.c_o - seg.c_d)
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
        ends = np.where(k % 2, -r, r)
        band = (k, ends * np.sin(np.pi * h), ends * np.cos(np.pi * h) * sin_psi)
        evanescent = (p <= 0) | (q <= 0)
        angle = (k, np.where(evanescent, np.nan, h), sin_psi) if phase else ()
        if not (values or evanescent.any()):
            return band + angle
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
        j = np.arange(m + 1.0)[:, None]
        vals = np.empty((m + 1, len(lam)))
        on = ~evanescent
        vals[:, on] = r[on] * np.sin(np.pi * _phase(j, t[on], f[on])[1])
        on = evanescent
        vals[:, on] = (a[on] * np.exp((j - m) * kappa[on])
                       + b[on] * np.exp(-(j + m) * kappa[on])) \
            * np.where(alt[on] & (j % 2 == 1), -1.0, 1.0)
    return out + (vals, np.where(evanescent, m * kappa, 0.0))


def _shoot(first: _Segment, second: _Segment, rows, lam, values: bool = False,
           phase: bool = False):
    """Shot from the first of ``rows`` across ``first``, the second row,
    ``second`` and the last row: for each shift lam > 0 the number of sign
    changes, which is ``sturm_count``'s count, as the LDL^T pivots of the
    shot v from node 0 are d_j = |b_j| u_{j+1}/u_j, with a virtual u_n for
    the last (the discrete Pruefer angle: Atkinson, *Discrete and
    Continuous Boundary Problems*, 1964).  With ``values``, u on the nodes
    of each segment (rows, the shared node in both) per lam (columns), and
    the log of the factor those on ``second`` were divided by beyond the
    others.

    With ``phase``, also the continuous Pruefer phase Phi = whole + part:
    the sign changes on ``first``, plus the phase m t + f that ``_advance``
    forms on ``second`` (NaN where that is evanescent), less the h* in
    (0, 1) at which the state there, u = r sin(pi h*) and W = r cos(pi h*)
    sin(psi), meets the last row's condition (h_k - lam h_c) u + beta W = 0
    (h* = 1/2 where the row's (h_k, h_c) is (0, 0)).  Phi rises with lam
    and the count is floor(Phi) + 1.  ``whole`` holds integers and
    ``part`` lies in about [-2, 2], so Phi - k keeps every digit of part."""
    lam = np.asarray(lam, dtype=float)
    u = np.ones_like(lam)
    w = _junction(rows[0], None, first, lam, u, 0.0)
    head = _advance(first, lam, u, w, values)
    w = _junction(rows[1], first, second, lam, head[1], head[2])
    tail = _advance(second, lam, head[1], w, values, phase)
    if values:
        return head[3], tail[3], tail[4]
    last = _junction(rows[2], second, None, lam, tail[1], tail[2])
    count = (head[0] + tail[0] + (tail[1] * last < 0)).astype(int)
    if not phase:
        return count
    k, h, sin_psi = tail[3:]
    with np.errstate(invalid="ignore"):
        star = np.arctan2((second.k_o + lam * second.c_o) * sin_psi,
                          lam * rows[2][1] - rows[2][0]) / np.pi
    return count, head[0] + k, h - star


def _closed_modes(bands: NetworkBands, segs, freq_window: tuple[float, float] | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The non-gauge modes in ``freq_window`` of a two-segment device: the
    top of the spectrum bracketed by counts of ``_shoot`` (and the gauge
    modes, where the window may reach them, counted), the eigenvalues by
    ``_closed_eigenvalues``, all window modes at once, and their vectors
    by ``_closed_vectors``."""
    ladder, strip, rows = segs
    count = partial(_shoot, ladder, strip, rows)
    n = len(bands.k_diag)
    lo, hi = (0.0, np.inf) if freq_window is None else map(float, freq_window)
    lam_lo, lam_hi = np.sign(lo) * lo * lo, hi * hi
    stack = NetworkBands.stack([bands])
    bracket = _top_bracket(stack, count)
    top = float(bracket[1][0])
    first = 0
    if not GAUGE ** 2 * top < lam_lo:     # the window may reach gauge modes
        gauge, floor = _gauge_floor(stack, count, *bracket)
        first, lam_lo = int(gauge[0]), max(lam_lo, float(floor[0]))
    lam_hi = min(lam_hi, top)
    lam = (_closed_eigenvalues(count, segs[:2], lam_lo, lam_hi, first)
           if lam_lo < lam_hi else np.empty(0))
    lam = lam[(np.sqrt(lam) >= lo) & (np.sqrt(lam) <= hi)]
    vecs = _closed_vectors(bands, segs, lam) if len(lam) else np.empty((n, 0))
    return np.sqrt(lam), vecs


def _phase_grid(segs, lo: float, hi: float) -> np.ndarray:
    """lo, hi and, ascending between them, the shifts at which the phase m t
    of either segment passes a multiple of 1/_GRID, so that between two of
    them the phases of both segments rise by at most 2/_GRID, however
    little lam moves meanwhile (the fig2 device's lowest window mode lies
    within 6e-5 of the ladder's cutoff in lam, its next within 2.5e-4).
    The phase t of a shift is that of the segment's sinusoid, a = 2 beta
    cos(pi t)."""
    grid = [np.array([lo, hi])]
    for seg in segs:
        cos = np.cos(np.arange(1, _GRID * seg.steps) * (np.pi / (_GRID * seg.steps)))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (seg.k_d - 2.0 * seg.k_o * cos) / (seg.c_d + 2.0 * seg.c_o * cos)
        grid.append(lam[(lam > lo) & (lam < hi)])
    return np.sort(np.concatenate(grid))


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


def _closed_eigenvalues(count, segs, lo: float, hi: float, first: int) -> np.ndarray:
    """Eigenvalues number max(count(lo), first) to count(hi) - 1 of a
    two-segment device, ascending, by ``count`` (``_shoot`` on it), each
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
    grid = _phase_grid(segs, lo, hi)
    counts, whole, part = count(grid, phase=True)
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


def _closed_vectors(bands: NetworkBands, segs, lam: np.ndarray) -> np.ndarray:
    """C-orthonormal eigenvectors of a two-segment device at its eigenvalues
    ``lam``.  Each joins the solutions shot from the first and from the
    last node where their product is largest: there the diagonal of
    (K - lam C)^-1 is largest and the join's residual smallest (twisted
    factorization: Parlett & Dhillon, Linear Algebra Appl. 1997).  A
    first-order Loewdin step, V <- V (I - E/2) with E = V^T C V - I, then
    C-orthonormalizes them, or raises ArithmeticError where E is too large
    for one step."""
    n = len(bands.k_diag)
    ladder, strip, rows = segs
    lad_l, str_l, scale_l = _shoot(ladder, strip, rows, lam, values=True)
    str_r, lad_r, scale_r = _shoot(strip, ladder, rows[::-1], lam, values=True)
    lad_r, str_r = lad_r[::-1], str_r[::-1]
    # the join node has the largest |left right|, e^{scale_r} times that of
    # these arrays on the ladder and e^{scale_l} on the strip (may overflow)
    cols, mid = np.arange(len(lam)), ladder.steps
    at_l = np.argmax(np.abs(lad_l * lad_r), axis=0)
    at_s = np.argmax(np.abs(str_l * str_r), axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        on_ladder = (np.log(np.abs(lad_l[at_l, cols] * lad_r[at_l, cols])) + scale_r
                     >= np.log(np.abs(str_l[at_s, cols] * str_r[at_s, cols])) + scale_l)
        twist = np.where(on_ladder, at_l, at_s + mid)
        # each shot divided by its value at the join node, one segment at a time
        rows = np.arange(n)[:, None]
        x = np.empty((n, len(lam)))
        x[:mid + 1] = np.where(rows[:mid + 1] <= twist,
                               lad_l * np.where(on_ladder, 1.0 / lad_l[at_l, cols],
                                                np.exp(-scale_l) / str_l[at_s, cols]),
                               lad_r / lad_r[at_l, cols])
        x[mid + 1:] = np.where(rows[mid + 1:] <= twist, str_l[1:] / str_l[at_s, cols],
                               str_r[1:] * np.where(on_ladder, np.exp(-scale_r) / lad_r[at_l, cols],
                                                    1.0 / str_r[at_s, cols]))
    del lad_l, str_l, lad_r, str_r
    signs = np.repeat([ladder.sign, strip.sign], [ladder.steps, strip.steps])
    x *= np.concatenate([[1.0], np.cumprod(signs)])[:, None]
    cx = _tri_mul(bands.c_diag, bands.c_off, x)
    scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", x, cx))
    x *= scale
    cx *= scale
    err = x.T @ cx
    err[np.diag_indices_from(err)] -= 1.0
    # the step leaves V^T C V - I = -(3/4) E^2 + O(E^3), |(E^2)_ij| <= |E_i| |E_j|
    if (worst := 0.75 * np.einsum("ij,ij->j", err, err).max()) > 1e-12:
        raise ArithmeticError(f"closed-form modes too far from C-orthonormal "
                              f"for one Loewdin step ({worst:.1e})")
    x -= 0.5 * (x @ err)
    return x


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
    2006), the nodes are swept in blocks of about ``_BLOCK_VALUES`` values:
    a_i and b_i^2 of a block in a few whole-block expressions, then the
    recurrence without the guard, two ufunc calls per node.  A block with
    a pivot below pivmin in magnitude (or NaN) is run again from its
    incoming pivot with the guard, so every pivot and count is that of
    the guarded recurrence, bit for bit.  Blocks are (nodes, shifts,
    devices): on a stack, whole-block expressions run over the devices.
    """
    lam = np.asarray(lam, dtype=float)
    lead = np.broadcast_shapes(np.shape(bands.k_diag)[:-1], lam.shape[:-1])
    lam = np.ascontiguousarray(np.moveaxis(np.broadcast_to(lam, lead + lam.shape[-1:]), -1, 0))

    def nodes_first(x) -> np.ndarray:
        """(..., n) -> (n, 1, ...): one contiguous row per node."""
        return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0)[:, None])

    kd, ko, cd, co = map(nodes_first, (bands.k_diag, bands.k_off,
                                       bands.c_diag, bands.c_off))
    # dstebz scales pivmin by the largest b_i^2 so that b^2/pivmin stays
    # finite; this bound on it costs no pass over the nodes
    bmax = (np.abs(ko).max(axis=0, initial=0.0)
            + np.abs(lam) * np.abs(co).max(axis=0, initial=0.0))
    pivmin = _SAFMIN * np.maximum(1.0, bmax ** 2)
    n = len(kd)
    step = max(1, _BLOCK_VALUES // max(1, lam.size))
    d = np.empty((min(n, step + 1),) + lam.shape)
    sq = np.empty((len(d) - 1,) + lam.shape)
    lam_rows = np.broadcast_to(lam, d.shape).copy()     # lam on each row of a block
    below = np.zeros(lam.shape, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, n, step):
            e = min(n, s + step)
            carry = int(s > 0)      # row 0 then holds the last pivot before s
            piv, b2 = d[:e - s + carry], sq[:e - s + carry - 1]
            new = piv[carry:]
            np.multiply(lam_rows[:len(b2)], co[s - carry:e - 1], out=b2)
            np.subtract(ko[s - carry:e - 1], b2, out=b2)
            np.square(b2, out=b2)
            for guard in (None, pivmin):
                np.multiply(lam_rows[:len(new)], cd[s:e], out=new)
                np.subtract(kd[s:e], new, out=new)
                _pivots(piv, b2, guard)
                if (np.abs(new).min(axis=0) >= pivmin).all():  # else a tiny pivot
                    break                   # or NaN: run the block guarded
            # int32: int16 would wrap on a block of 2^15 nodes (one shift)
            below += np.add.reduce(np.signbit(new), axis=0, dtype=np.int32)
            d[0] = piv[-1]
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


def _top_bracket(bands: NetworkBands, count) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= lam_max <= hi and hi <= 4 lo, for each device of a
    stack, by ``count`` as in ``_narrow``."""
    n = bands.k_diag.shape[-1]
    growth = 4.0 ** np.arange(1, _SHIFTS + 1)
    # the Rayleigh quotient K_ii / C_ii of a unit vector bounds lam_max below
    lo = np.max(bands.k_diag / bands.c_diag, axis=-1)
    while True:
        shifts = lo[:, None] * growth
        full = count(shifts) >= n
        if full[:, -1].all():
            break
        lo = np.where(full[:, -1], lo, shifts[:, -1])
    k = np.argmax(full, axis=1)
    rows = np.arange(len(lo))
    return np.where(k > 0, shifts[rows, k - 1], lo), shifts[rows, k]


def _gauge_floor(bands: NetworkBands, count, lo: np.ndarray, hi: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(count, floor) per device: the number of modes the gauge rule drops,
    omega <= GAUGE * omega_max, and a shift with at most that many
    eigenvalues below it.

    (lo, hi) is the ``_top_bracket`` of lam_max, narrowed here only until
    no eigenvalue lies between the thresholds of its two ends.
    """
    top = np.full(len(lo), bands.k_diag.shape[-1] - 1)
    while True:
        counts = count(GAUGE ** 2 * np.stack([lo, hi], axis=1))
        pending = (counts[:, 0] != counts[:, 1]) & _open(lo, hi)
        if not pending.any():
            return counts[:, 1], GAUGE ** 2 * lo
        lo, hi = np.where(pending, _narrow(count, top, lo, hi), (lo, hi))


def band_edges(bands: NetworkBands, freq_window: tuple[float, float],
               band: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest window mode and band mode count of each device in a stack.

    ``bands`` carries one leading device axis.  The modes are those of
    ``solve_modes``: gauge modes are dropped by the same rule, and the
    window (lo, hi) and the band (lo, hi), both in rad/s, are inclusive.
    The count covers the part of the band inside the window.  Returns
    (edge in rad/s, NaN where the window holds no mode; count).  Only
    Sturm counts are used: no matrix is formed and no eigenvector found.
    IllConditionedCircuitError names the first device whose capacitance
    has an LDL^T pivot that is not positive.
    """
    bounds = np.array([*freq_window, *band], dtype=float)
    if not all(np.isfinite(x).all() for x in (bounds, bands.k_diag, bands.k_off,
                                              bands.c_diag, bands.c_off)):
        raise ValueError("band_edges needs finite bands, window and band")
    _check_capacitance(bands)
    bounds = np.sign(bounds) * bounds ** 2
    count = partial(sturm_count, bands)
    win_lo, win_hi, band_lo, band_hi = count(bounds).T
    gauge, floor = _gauge_floor(bands, count, *_top_bracket(bands, count))
    first = np.maximum(win_lo, gauge)        # index of the lowest kept mode
    band_count = np.maximum(0, np.minimum(band_hi, win_hi)
                            - np.maximum(band_lo, first))

    found = first < win_hi
    # N(lo) <= first < N(hi) on every bracket that holds a mode
    lo = np.maximum(floor, bounds[0])
    hi = np.full_like(lo, bounds[1])
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
    flux = modes.profiles[modes.interface_index:, n]
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
    with the strip rows of the profiles.  With the default
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
    avg = np.abs(weights @ modes.profiles[modes.interface_index:, :])
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
