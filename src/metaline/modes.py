"""Normal modes of the quantized network and their coupling to a flux qubit.

Canonical quantization of the lumped circuit turns the node fluxes into a
generalized symmetric-definite eigenproblem

    inv_ind . v = omega^2 . cap . v,

whose eigenvectors are normalized in the capacitance metric, v^T cap v = 1,
which makes them the flux profiles of independent harmonic oscillators.

Both matrices are tridiagonal, and ``NetworkMatrices`` holds only their
bands.  ``solve_modes`` checks that every LDL^T pivot of cap is positive,
then takes one of two paths by network size:

- the band solver ``_band_modes`` for every size outside ``_DENSE_DIMS``:
  Sturm counts isolate the window's eigenvalues, and shifted inverse
  iteration with Rayleigh-quotient shifts, one LDL^T solve per step on
  the bands with numpy across the window modes, finds their vectors;
  O(n m) per step for m window modes, O(n k^2) per step for each set of
  k modes in one Sturm cell too narrow to split (repeated eigenvalues),
  and one O(n m^2) matrix product that C-orthonormalizes the window;
- dense ``eigh`` (Cholesky reduction and LAPACK sygvd via scipy, imported
  only there) for dims 1001-2001, O(n^3) for all n modes; the only path
  that forms the n x n matrices, which sygvd overwrites in place, so K, C
  and its workspace, 4 n^2 doubles, are its whole working set.

README (*Eigensolvers*) holds the timings of both paths, measured with
``solve_modes`` on the benchmark's ladder devices as the median of warm
solves per path in fresh processes: the band solver is as fast as dense
at dim 501 and faster from there up, and it never imports
``scipy.linalg``, which costs a fresh process more than a small solve,
so the bundled fig2-fig5 devices (dim 501) take it too.
``_DENSE_DIMS`` is the size class of the benchmark's
spectrum device (dim 2001): the reference profiles recorded for it carry
dense eigh's own rounding, which turns the close modes at the band edge
by angles of up to 2e-7.  The band solver's vectors (residuals 1e-13
against 4e-11) differ from them by that much, and the reference check,
1e-6 relative per entry, rejects that next to profile nodes.
Both paths apply the same gauge rule (``_gauge_floor`` is its
count-only form), sign rule and tie-break.

Where only frequencies and counts are needed (the disorder study)
``band_edges`` works on the bands of a whole stack of devices: Sturm
counts from the LDL^T pivots of inv_ind - lam cap (Sylvester's law of
inertia) and multisection, O(n) per shift and no eigenvectors.

Every Sturm count, on both of these paths, is one ``sturm_count`` sweep:
blocks of nodes in whole-block numpy expressions and a pivot recurrence
of two numpy calls per node without a guard, as in LAPACK dlaneg; only a
block that meets a pivot below pivmin runs again with dstebz's guard.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# the only network dimensions that take dense eigh: the size class of the
# spectrum benchmark device (dim 2001), whose reference pins dense rounding
# (see the module docstring); every other size takes the band solver
_DENSE_DIMS = range(1001, 2002)
# window ends widen by this relative amount in lam = omega^2, so that a
# mode within rounding of an end is solved, then kept or dropped by its
# own frequency as on the dense path
_WINDOW_SLACK = 1e-9
# a mode has converged when its Rayleigh quotient moved this little
# (relative) from the shift of the solve that produced it
_CONVERGED = 1e-13
_MAX_STEPS = 40


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
    restricts the returned modes.  Networks are solved on their
    tridiagonal bands (``_band_modes``), except those whose dimension lies
    in ``_DENSE_DIMS``, which go to dense ``eigh``.
    IllConditionedCircuitError, on either path, names the first LDL^T
    pivot of the capacitance that is not positive.
    """
    _check_capacitance(mat.bands)
    if mat.dim in _DENSE_DIMS:
        omega, vecs = _dense_modes(mat, freq_window)
    else:
        omega, vecs = _band_modes(mat.bands, freq_window)

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
    on one device or on each device of a stack (one leading axis), by one
    ``_pivots`` recurrence over all devices.  The message names the first
    pivot that is not positive, and on a stack the first device with one."""
    n = np.shape(bands.c_diag)[-1]
    d = np.reshape(bands.c_diag, (-1, n)).T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _pivots(d, np.square(np.reshape(bands.c_off, (d.shape[1], n - 1)).T))
    bad = ~(d > 0)
    if bad.any():
        device = int(np.argmax(bad.any(axis=0)))
        pivot = d[np.argmax(bad[:, device]), device]
        where = f" of device {device}" if np.ndim(bands.c_diag) > 1 else ""
        raise IllConditionedCircuitError(
            f"capacitance matrix{where} is not positive definite "
            f"(pivot {pivot:.3e} F)")


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


def _ldl(bands: NetworkBands, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots d (n, m) and multipliers l (n-1, m) of K - lam C = L D L^T,
    one column per shift, by ``_pivots``: the unguarded recurrence of
    ``sturm_count``'s fast pass."""
    d = bands.k_diag[:, None] - bands.c_diag[:, None] * lam
    l = bands.k_off[:, None] - bands.c_off[:, None] * lam
    _pivots(d, l * l)
    np.divide(l, d[:-1], out=l)
    return d, l


def _inverse_step(bands: NetworkBands, lam: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = (K - lam C)^-1 rhs column by column, and the number of
    eigenvalues below each shift (its negative pivots).

    A zero last pivot (the shift is an eigenvalue to the last bit) is
    replaced by its rounding level; a column that still overflows gets
    NaN counts, which its caller must not use.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d, l = _ldl(bands, lam)
        last = d[-1]
        zero = last == 0
        last[zero] = _EPS * (np.abs(bands.k_diag[-1])
                             + np.abs(bands.c_diag[-1]) * np.abs(lam[zero]))
        x = rhs.copy()
        rows, mult = list(x), list(l)
        t = np.empty(lam.shape)
        for i in range(len(rows) - 1):
            np.multiply(mult[i], rows[i], out=t)
            np.subtract(rows[i + 1], t, out=rows[i + 1])
        np.divide(x, d, out=x)
        for i in range(len(rows) - 2, -1, -1):
            np.multiply(mult[i], rows[i + 1], out=t)
            np.subtract(rows[i], t, out=rows[i])
    below = np.count_nonzero(d < 0, axis=0).astype(float)
    below[~np.isfinite(x).all(axis=0)] = np.nan
    return x, below


def _tri_mul(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (diag, off) times the columns of x."""
    out = x * diag[:, None]
    out[:-1] += x[1:] * off[:, None]
    out[1:] += x[:-1] * off[:, None]
    return out


def _merge(points: np.ndarray, counts: np.ndarray, new_points: np.ndarray,
           new_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted union of two sets of Sturm samples.

    Counts are made non-decreasing, which only moves a count whose shift
    lies within rounding of an eigenvalue.
    """
    keep = np.isfinite(new_counts)
    p = np.concatenate([points, new_points[keep]])
    c = np.concatenate([counts, new_counts[keep].astype(int)])
    order = np.argsort(p, kind="stable")
    return p[order], np.maximum.accumulate(c[order])


def _isolate(bands: NetworkBands, points: np.ndarray, counts: np.ndarray,
             lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Refine the samples until every eigenvalue in [lo, hi] has a cell
    (an interval between consecutive samples) of its own, no wider than
    the empty space on either side of it.

    The midpoint of such a cell is then at least three times closer to
    its eigenvalue than to any other.  Cells narrower than 1e-13 of
    their upper end are left as they are: their eigenvalues are treated
    as one cluster.
    """
    fractions = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    while True:
        occupied = np.flatnonzero(np.diff(counts))
        width = points[occupied + 1] - points[occupied]
        space = np.empty(len(occupied) + 1)
        space[0] = points[occupied[0]] - points[0]
        space[1:-1] = points[occupied[1:]] - points[occupied[:-1] + 1]
        space[-1] = points[-1] - points[occupied[-1] + 1]
        refine = (((np.diff(counts)[occupied] > 1)
                   | (width > np.minimum(space[:-1], space[1:])))
                  & (width > 1e-13 * points[occupied + 1])
                  & (points[occupied + 1] > lo) & (points[occupied] < hi))
        cells = occupied[refine]
        if not len(cells):
            return points, counts
        shifts = (points[cells, None] + width[refine, None] * fractions).ravel()
        points, counts = _merge(points, counts, shifts, sturm_count(bands, shifts))


def _band_modes(bands: NetworkBands, freq_window: tuple[float, float] | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The non-gauge modes in ``freq_window`` from the tridiagonal bands.

    Sturm counts on one geometric grid over the window give each window
    eigenvalue's index, ``_isolate`` gives each one a cell of its own, and
    ``_inverse_iteration`` finds the vectors and Rayleigh quotients.
    """
    n = len(bands.k_diag)
    lo, hi = (0.0, np.inf) if freq_window is None else map(float, freq_window)
    lam_lo = np.sign(lo) * lo * lo * (1.0 - _WINDOW_SLACK)
    lam_hi = hi * hi * (1.0 + _WINDOW_SLACK)
    stack = NetworkBands.stack([bands])
    bracket = _top_bracket(stack)
    top = float(bracket[1][0])
    first = 0
    if not GAUGE ** 2 * top < lam_lo:     # the window may reach gauge modes
        gauge, floor = _gauge_floor(stack, *bracket)
        first, lam_lo = int(gauge[0]), max(lam_lo, float(floor[0]))
    lam_hi = min(lam_hi, top)
    empty = np.empty(0), np.empty((n, 0))
    if not lam_lo < lam_hi:
        return empty

    # about two shifts per window mode, and a point beyond each end
    ends = sturm_count(bands, np.array([lam_lo, lam_hi]))
    size = max(2, 2 * int(ends[1] - ends[0]))
    ratio = (lam_hi / lam_lo) ** (1.0 / size)
    grid = lam_lo * ratio ** np.arange(-1, size + 2)
    grid[[1, -2]] = lam_lo, lam_hi
    points, counts = _merge(np.empty(0), np.empty(0, dtype=int), grid,
                            sturm_count(bands, grid))
    start, stop = max(int(counts[1]), first), int(counts[-2])
    if start >= stop:
        return empty
    points, counts = _isolate(bands, points, counts, lam_lo, lam_hi)
    lam, vecs = _inverse_iteration(bands, points, counts, np.arange(start, stop))
    omega = np.sqrt(lam)
    keep = (omega >= lo) & (omega <= hi)      # drop the modes the slack let in
    return omega[keep], vecs[:, keep]


def _inverse_iteration(bands: NetworkBands, points: np.ndarray,
                       counts: np.ndarray, index: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs number ``index`` of (K, C), each isolated in a cell of the
    Sturm samples (points, counts).

    Shifted inverse iteration, one LDL^T solve per step with numpy across
    the modes, from fixed pseudo-random start vectors.  The shift of each
    mode is its last Rayleigh quotient while that stays in the mode's
    cell, else the cell midpoint, and every solve's pivot counts narrow
    the cells further.  Vectors of modes that share a cell ``_isolate``
    left unsplit are C-orthonormalized together (Cholesky QR) at each
    step; the others come out orthogonal to about eps / relative gap.  A
    last first-order Loewdin step, V <- V (I - E/2) with E = V^T C V - I,
    C-orthonormalizes them all, or raises ArithmeticError where E is too
    large for one step.  Returns the Rayleigh quotients and the vectors.
    """
    def cells() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        j = np.searchsorted(counts, index, side="right")
        return j, points[j - 1], points[j]

    _, cell_lo, cell_hi = cells()
    shift = 0.5 * (cell_lo + cell_hi)
    k_rows, c_rows = (np.abs(diag) + np.pad(np.abs(off), (1, 0))
                      + np.pad(np.abs(off), (0, 1))     # absolute row sums
                      for diag, off in ((bands.k_diag, bands.k_off),
                                        (bands.c_diag, bands.c_off)))
    rhs = np.random.default_rng(0).uniform(-1.0, 1.0, (len(bands.k_diag), len(index)))
    for _ in range(_MAX_STEPS):
        x, below = _inverse_step(bands, shift, rhs)
        nudge = 16.0 * _EPS
        while (retry := np.isnan(below)).any():     # an exactly zero inner pivot
            if nudge > 1e-6:
                raise ArithmeticError("band eigensolver: singular shifted pencil")
            shift[retry] *= 1.0 + nudge
            nudge *= 16.0
            x[:, retry], below[retry] = _inverse_step(bands, shift[retry],
                                                      rhs[:, retry])
        points, counts = _merge(points, counts, shift, below)
        cell, cell_lo, cell_hi = cells()
        cx = _tri_mul(bands.c_diag, bands.c_off, x)
        norm2 = np.einsum("ij,ij->j", x, cx)
        # (K - shift C) x = rhs gives x^T K x = x^T rhs + shift x^T C x
        rq = shift + np.einsum("ij,ij->j", x, rhs) / norm2
        scale = 1.0 / np.sqrt(norm2)
        x *= scale
        cx *= scale
        for s, e in _clusters(cell):
            r = np.linalg.inv(np.linalg.cholesky(x[:, s:e].T @ cx[:, s:e])).T
            x[:, s:e] = x[:, s:e] @ r
            cx[:, s:e] = cx[:, s:e] @ r
            kx = _tri_mul(bands.k_diag, bands.k_off, x[:, s:e])
            rq[s:e] = np.einsum("ij,ij->j", x[:, s:e], kx)
        # rounding level of each quotient, eps x^T (|K| + |shift| |C|) x with
        # the absolute values bounded by their row sums
        x2 = x * x
        noise = _EPS * (k_rows @ x2 + np.abs(shift) * (c_rows @ x2))
        tol = _CONVERGED * np.abs(rq) + noise
        inside = (rq >= cell_lo - 10.0 * tol) & (rq <= cell_hi + 10.0 * tol)
        # converged: the quotient lies in its cell, and the shift of the last
        # solve was already the quotient or the counts alone pin the mode down
        if np.all(inside & ((np.abs(rq - shift) <= tol) | (cell_hi - cell_lo <= tol))):
            break
        shift = np.where(inside, np.clip(rq, cell_lo, cell_hi),
                         0.5 * (cell_lo + cell_hi))
        rhs = cx
    else:
        raise ArithmeticError(
            f"band eigensolver did not converge in {_MAX_STEPS} steps")
    err = x.T @ cx
    err[np.diag_indices_from(err)] -= 1.0
    # the step leaves V^T C V - I = -(3/4) E^2 + O(E^3), |(E^2)_ij| <= |E_i| |E_j|
    if (worst := 0.75 * np.einsum("ij,ij->j", err, err).max()) > 1e-12:
        raise ArithmeticError(f"band eigensolver: vectors too far from "
                              f"C-orthonormal for one Loewdin step ({worst:.1e})")
    x -= 0.5 * (x @ err)
    return rq, x


def _clusters(cell: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of two or more modes in one Sturm cell,
    given the ascending cell number of every mode."""
    cuts = np.flatnonzero(np.diff(cell)) + 1
    edges = np.concatenate([[0], cuts, [len(cell)]]).tolist()
    return [(s, e) for s, e in zip(edges[:-1], edges[1:]) if e - s > 1]


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


def _gauge_floor(bands: NetworkBands, lo: np.ndarray, hi: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(count, floor) per device: the number of modes the gauge rule drops,
    omega <= GAUGE * omega_max, and a shift with at most that many
    eigenvalues below it.

    (lo, hi) is the ``_top_bracket`` of lam_max, narrowed here only until
    no eigenvalue lies between the thresholds of its two ends.
    """
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
    IllConditionedCircuitError names the first device whose capacitance
    has an LDL^T pivot that is not positive.
    """
    bounds = np.array([*freq_window, *band], dtype=float)
    if not all(np.isfinite(x).all() for x in (bounds, bands.k_diag, bands.k_off,
                                              bands.c_diag, bands.c_off)):
        raise ValueError("band_edges needs finite bands, window and band")
    _check_capacitance(bands)
    bounds = np.sign(bounds) * bounds ** 2
    win_lo, win_hi, band_lo, band_hi = sturm_count(bands, bounds).T
    gauge, floor = _gauge_floor(bands, *_top_bracket(bands))
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
