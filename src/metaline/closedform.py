"""The window modes of a two-segment device, held as closed-form shots.

``solve_modes`` returns a ``ModeSet`` that keeps a ``ClosedModes`` for a
two-segment device instead of its n x m profiles: the shots from both
ends that ``modes._shoot`` forms, as ``modes._Wave`` fields, the node
where they join and the factor that makes each mode C-normalized with its
sign fixed.  ``ClosedModes.rows``, the one evaluator, takes any nodes of
any modes by ``_wave_values``, O(1) per entry; ``ClosedModes.profiles``
takes them at every node and one Loewdin step, for the callers that read
the full profiles.  ``modes._closed_modes`` imports this module when
a closed-form solve first runs, so that commands that solve nothing (or
take dense ``eigh``) do not compile it.
"""

from __future__ import annotations

import numpy as np

from .circuit import NetworkBands
from .modes import _EPS, _Wave, _interface_signs, _phase, _shoot, _tri_mul

# a closed-form C-norm whose terms' magnitudes sum to more than this many
# times the norm is summed again node by node
_CANCEL = 32.0
# window modes on either side whose share of a twist's residual the gate
# of ``ClosedModes`` evaluates, before bounding the rest by a gap
_NEAR = 4
# the angle, in units of n eps, that the rounding of its entries turns a profile by
_ROUNDING = 16


def _wave_values(wave: _Wave, m, j: np.ndarray) -> np.ndarray:
    """u of ``wave`` (on a segment of m steps) at the local nodes j, entry
    by entry: the wave's fields and m broadcast against j (a column of
    nodes for all shifts, or nodes per shift)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = wave.r * np.sin(np.pi * _phase(j, wave.t, wave.f)[1])
        if wave.evanescent.any():
            u = np.where(wave.evanescent,
                         (wave.a * np.exp((j - m) * wave.kappa)
                          + wave.b * np.exp(-(j + m) * wave.kappa))
                         * np.where(wave.alt & (j % 2 == 1), -1.0, 1.0), u)
    return u


class ClosedModes:
    """The window modes of a two-segment device held as closed-form shots,
    in the order of their frequencies; no n x m array is formed.

    Mode k keeps its eigenvalue ``lam``, its count ``index``, the
    ``_Wave`` of each segment in the shot from the first node and in the
    one from the last (``stack``, one ``_Wave`` of (4, m) fields: ladder,
    ladder, strip, strip), the ``twist`` node where they are joined (the
    first shot up to it, the second beyond), each wave's part of the
    profile (``pieces``, (4, m) first nodes and counts) and the factor
    ``coef`` of each of the four waves that makes its u the C-normalized
    profile, sign rule included.  ``rows`` evaluates any nodes of any
    modes at O(1) per entry, for every reader of the profiles.  Each step
    of the join that would cost O(n) per mode over all nodes is O(1) here:

    - the twist: the largest |first . second| among each segment's ends
      and the two nodes about the crest of its sinusoid nearest its middle
      (where the segment is evanescent, |u| is largest at an end), within
      a factor of about 2 of the largest over all nodes;
    - the C-norm: closed-form sums over each part of the profile (a
      Dirichlet kernel for the sin^2 of a passband, geometric sums where
      evanescent), the ladder's coupling term as a sum of squares
      (u_j + u_{j+1})^2, so that no large terms cancel; a mode whose sums
      still cancel by more than ``_CANCEL`` is summed node by node;
    - the sign rule at the interface node, its fallback evaluated over the
      strip only for the modes whose interface entry lies below 1e-9 of
      the strip's amplitude (which bounds the strip's largest entry);
    - the tie-break, from the count index.

    In place of a Gram matrix, the constructor bounds each mode's C-angle
    to its exact eigenvector by its residual over its gap, O(m) in all
    (``_check``).  ``profiles`` evaluates the same waves at every node and
    takes one Loewdin step, whose Gram matrix is then formed.
    """

    def __init__(self, bands: NetworkBands, segs, lam: np.ndarray, index: np.ndarray,
                 outside):
        order = np.lexsort((index, np.sqrt(lam)))
        ladder, strip, rows = segs
        self.bands, self.ladder, self.strip = bands, ladder, strip
        self.lam, self.index = lam[order], index[order]
        self.n, self.mid = len(bands.k_diag), ladder.steps
        self.twist = np.zeros(len(self.lam), dtype=int)
        self.coef = np.zeros((4, len(self.lam)))
        lad_l, str_l, scale_l = _shoot(ladder, strip, rows, self.lam, values=True)
        str_r, lad_r, scale_r = _shoot(strip, ladder, rows[::-1], self.lam, values=True)
        # the four waves' fields, one row each: ladder, ladder, strip, strip
        self.stack = _Wave(*(np.stack(field) for field in zip(lad_l, lad_r, str_l, str_r)))
        if not len(self.lam):
            return
        self._join(scale_l, scale_r)
        self.pieces = self._pieces()
        # the profiles at the free rows (first, interface, last) and about
        # the twist, scaled with the coefficients below
        t, mid, n = self.twist, self.mid, self.n
        x = self.rows(np.stack([0 * t, 0 * t + mid, 0 * t + n - 1,
                                np.maximum(t - 1, 0), t, np.minimum(t + 1, n - 1)]))
        norm, size = self._norm(x)
        x /= np.sqrt(norm)
        self.coef /= np.sqrt(norm)
        sign = self._signs(x[1])
        self.coef *= sign
        self._check(outside, x[3:] * sign, 16.0 * _EPS * size / norm)

    def profiles(self) -> np.ndarray:
        """The n x m profiles: ``rows`` at every node, then one first-order
        Loewdin step, V <- V (I - E/2) with E = V^T C V - I, which leaves
        V^T C V - I = -(3/4) E^2 + O(E^3); ArithmeticError where E is too
        large for one step."""
        x = self.rows(np.arange(self.n)[:, None])
        cx = _tri_mul(self.bands.c_diag, self.bands.c_off, x)
        err = x.T @ cx
        err[np.diag_indices_from(err)] -= 1.0
        # |(E^2)_ij| <= |E_i| |E_j|
        if (worst := 0.75 * np.einsum("ij,ij->j", err, err).max(initial=0.0)) > 1e-12:
            raise ArithmeticError(f"closed-form modes too far from C-orthonormal "
                                  f"for one Loewdin step ({worst:.1e})")
        x -= 0.5 * (x @ err)
        return x

    def rows(self, node: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """The profiles (with the current ``coef``) at ``node``, a column of
        nodes for all modes ``cols`` (None: every mode) or one column of
        nodes per mode.  Each entry comes from one wave of its node's
        segment, the first shot's up to the twist and the second's beyond,
        one segment at a time over the rows that have a node on it."""
        waves, twist, coef = self.stack, self.twist, self.coef
        if cols is not None:
            waves = _Wave(*(field[:, cols] for field in waves))
            twist, coef = twist[cols], coef[:, cols]
        node = np.asarray(node)
        out = np.zeros(np.broadcast_shapes(node.shape, twist.shape))
        if not out.size:
            return out
        strip = node > self.mid
        # a node's sign flips: one per step before it on each segment of sign -1
        for part, seg, start, flips, on in ((0, self.ladder, 0, 0, ~strip),
                                            (2, self.strip, self.mid,
                                             (self.ladder.sign < 0) * self.mid, strip)):
            rows = np.flatnonzero(on.any(axis=1))
            if not rows.size:
                continue
            j = np.clip(node[rows], start, start + seg.steps) - start
            second = j > twist - start

            def pick(field):
                return np.where(second, field[part + 1], field[part])

            # the evanescent fields only where some entry needs them
            evanescent = pick(waves.evanescent)
            fields = waves[:3] + (waves[3:7] if evanescent.any() else 4 * (None,))
            u = _wave_values(_Wave(*(None if field is None else pick(field)
                                     for field in fields), evanescent), seg.steps,
                             np.where(second, seg.steps - j, j).astype(float))
            u *= pick(coef) * np.where((flips + (seg.sign < 0) * j) % 2 == 1, -1.0, 1.0)
            # one column of nodes lies on one segment in each row
            out[rows] = u if on.shape[1] == 1 else np.where(on[rows], u, out[rows])
        return out

    def _join(self, scale_l: np.ndarray, scale_r: np.ndarray) -> None:
        """Sets ``twist`` and ``coef``: each shot divided by its value at the
        twist, the ladder's of the first shot where the twist lies on the
        strip, and the other way round.  The twist is the node where the
        two shots' product is largest, among the nodes of ``_crests``:
        there the diagonal of (K - lam C)^-1 is largest and the join's
        residual smallest (twisted factorization: Parlett & Dhillon, Linear
        Algebra Appl. 1997)."""
        cols, mid = np.arange(len(self.lam)), self.mid
        best = []
        for first, m in ((0, mid), (2, self.strip.steps)):
            wave, other = (_Wave(*(field[part] for field in self.stack))
                           for part in (first, first + 1))
            at = _crests(wave, m)
            u, v = _wave_values(wave, m, at), _wave_values(other, m, m - at)
            k = np.abs(u * v).argmax(axis=0)
            best.append((at[k, cols], u[k, cols], v[k, cols]))
        (at_l, lad_l, lad_r), (at_s, str_l, str_r) = best
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            on_ladder = (np.log(np.abs(lad_l * lad_r)) + scale_r
                         >= np.log(np.abs(str_l * str_r)) + scale_l)
            self.twist = np.where(on_ladder, at_l, at_s + mid).astype(int)
            self.coef = np.array([
                np.where(on_ladder, 1.0 / lad_l, np.exp(-scale_l) / str_l),
                np.where(on_ladder, 1.0 / lad_r, 0.0),
                np.where(on_ladder, 0.0, 1.0 / str_l),
                np.where(on_ladder, np.exp(-scale_r) / lad_r, 1.0 / str_r)])

    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The first local node and the node count of each wave's part of
        every profile, (4, m) arrays: the ladder from the first shot up to
        the twist and from the second beyond it, then the strip past the
        interface node likewise."""
        n, mid, twist = self.n, self.mid, self.twist
        on_ladder = twist <= mid
        count = np.stack([np.where(on_ladder, twist, mid) + 1,
                          np.where(on_ladder, mid - twist, 0),
                          np.where(on_ladder, 0, twist - mid),
                          n - 1 - np.maximum(twist, mid)])
        return np.broadcast_to(np.array([[0], [0], [1], [0]]), count.shape), count

    def _norm(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x^T C x of every profile with the current ``coef``, and the sum
        of the magnitudes of its terms, from ``x`` at the free rows and
        about the twist (rows as ``__init__`` takes them).  On a segment
        x^T C x is c_d sum u^2 + 2 c_o sum u_j u_{j+1} = c_o sum (u_j +
        u_{j+1})^2 + (c_d - 2 c_o) sum u^2 + c_o (u^2 at the part's two
        ends) in each wave's u, with corrections at the free rows, whose
        diagonal is not c_d, and across a twist on the ladder.  A mode
        whose terms cancel by more than ``_CANCEL`` is summed node by
        node."""
        bands, mid, n, wave = self.bands, self.mid, self.n, self.stack
        split = self.twist < mid
        # the four parts at once, the ladder's two first; each segment's
        # constants as a column
        j0, count = self.pieces
        steps, c_d, c_o = (np.array([[getattr(seg, key)] for seg in
                                     (self.ladder, self.ladder, self.strip, self.strip)])
                           for key in ("steps", "c_d", "c_o"))
        coef2 = self.coef ** 2
        sq, sq_size = _squares(wave, steps, j0, count)
        total = ((c_d - 2.0 * c_o) * coef2 * sq).sum(axis=0)
        size = (np.abs(c_d - 2.0 * c_o) * coef2 * sq_size).sum(axis=0)
        if (lad := self.ladder).c_o:
            # pairs and the u^2 coef^2 at both ends of the two ladder parts
            pair, pair_size = _squares(_Wave(*(f[:2] for f in wave)), steps[:2],
                                       j0[:2], np.maximum(count[:2] - 1, 0), True)
            ends = (x[0] ** 2 + np.where(split, x[4], x[1]) ** 2
                    + np.where(split, x[1] ** 2 + x[5] ** 2, 0.0))
            total += lad.c_o * ((coef2[:2] * pair).sum(axis=0) + ends)
            size += lad.c_o * ((coef2[:2] * pair_size).sum(axis=0) + ends)
        corr = ((bands.c_diag[[0, mid, n - 1]] - c_d[:3, 0])[:, None] * x[:3] ** 2).sum(axis=0)
        # the coupling between the two shots across a twist on the ladder
        cross = np.where(split, 2.0 * bands.c_off[np.minimum(self.twist, mid - 1)] * x[4] * x[5],
                         0.0)
        total += corr + cross
        size += np.abs(corr) + np.abs(cross)
        redo = np.flatnonzero(~(size <= _CANCEL * total))
        if redo.size:        # node by node: O(n) for each of these modes
            v = self.rows(np.arange(n)[:, None], redo)
            total[redo] = size[redo] = np.einsum(
                "ij,ij->j", v, _tri_mul(bands.c_diag, bands.c_off, v))
        return total, size

    def _signs(self, ref: np.ndarray) -> np.ndarray:
        """The sign rule of ``_interface_signs`` on the normalized
        profiles, whose interface entries are ``ref``: the strip rows are
        evaluated only for the modes whose interface entry lies below 1e-9
        of the strip's amplitude, which bounds its largest entry (|r| of a
        passband wave, |a| + |b| of an evanescent one, as j <= m)."""
        small = np.abs(ref) < 1e-9 * np.maximum(np.abs(ref), self._amplitudes()[1])
        strip = self.rows(np.arange(self.mid, self.n)[:, None], np.flatnonzero(small))
        return _interface_signs(ref, strip, small)

    def _check(self, outside, x: np.ndarray, norm_error: np.ndarray) -> None:
        """ArithmeticError unless every profile is C-orthonormal to the
        gate of ``profiles``, (3/4) |E_j|^2 <= 1e-12 for E = V^T C
        V - I, bounded without forming E from ``x``, the profiles at the
        twist t and its neighbours, and ``outside``, bounds on the
        eigenvalues next below and above the window's.

        The joined shots of mode j leave a residual g e_t, the mismatch at
        row t alone (as computed, with the rounding of that row's terms).
        At their Rayleigh quotient mu = lam + g x_t, the part of x along
        eigenvector i is then g v_i(t) / (lam_i - mu), so the sine of the
        C-angle between x and its eigenvector is |g| times the root of the
        sum of v_i(t)^2 / (lam_i - mu)^2 over the other modes, where sum_i
        v_i(t)^2 is (C^-1)_tt.  That sum is at most (C^-1)_tt over the
        squared distance from mu to the nearest other eigenvalue (the gap
        theorem: Parlett, *The Symmetric Eigenvalue Problem*, 11.7).  Where
        that bound is too coarse for the gate (at n_left = 5000 and up),
        the sum is evaluated over the ``_NEAR`` nearest window modes on
        either side; beyond them the window modes' v_i(t)^2 sum to at most
        their squared amplitudes on t's segment, at no less than the
        distance to the next of them, and the modes outside the window to
        at most (C^-1)_tt, at no less than the distance to the window's
        neighbours.  The closed form's rounding of each entry turns the
        profile by a small angle of its own, taken as ``_ROUNDING`` n eps.
        With theta_j the sum of the two, x_j's parts e_ij along the other
        eigenvectors have sum_i e_ij^2 <= theta_j^2, and E_ij = e_ij + e_ji
        + sum_k e_ik e_jk, so |E_j| <= sqrt(2 (|theta|^2 + theta_j^2)) +
        theta_j |theta|, plus the C-norm's rounding."""
        b, lam, t, n, m = self.bands, self.lam, self.twist, self.n, len(self.lam)
        prev, nxt = np.maximum(t - 1, 0), np.minimum(t, n - 2)
        mismatch = np.abs((b.k_diag[t] - lam * b.c_diag[t]) * x[1]
                          + np.where(t > 0, (b.k_off[prev] - lam * b.c_off[prev]) * x[0], 0.0)
                          + np.where(t < n - 1, (b.k_off[nxt] - lam * b.c_off[nxt]) * x[2], 0.0))
        mu, cols, cinv = lam + mismatch * x[1], np.arange(m), self._inverse_diagonal(t)
        ends = np.concatenate([[outside[0]], lam, [outside[1]]])

        def worst(share):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = mismatch * np.sqrt(share) + _ROUNDING * n * _EPS
            theta = np.where(theta >= 0, theta, np.inf)
            total = np.sqrt(np.sum(theta ** 2))
            bound = np.sqrt(2.0 * (total ** 2 + theta ** 2)) + theta * total + norm_error
            return 0.75 * np.max(bound) ** 2

        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.minimum(mu - ends[cols], ends[cols + 2] - mu)
        if (bound := worst(cinv / gap ** 2)) <= 1e-12:
            return
        # v[r, i] = v_i(t_j) for the pair j = i - k_r: mode i at the twist
        # of the mode k_r below it
        shifts = np.array([k for k in range(-_NEAR, _NEAR + 1) if k])[:, None]
        v = self.rows(t[np.clip(cols - shifts, 0, m - 1)])
        i = cols + shifts
        valid = (i >= 0) & (i < m)
        i = np.clip(i, 0, m - 1)
        v = np.where(valid, v[np.arange(len(shifts))[:, None], i], 0.0)
        window = np.sum(self._amplitudes() ** 2, axis=1)[(t > self.mid).astype(int)]
        with np.errstate(divide="ignore", invalid="ignore"):
            far = np.minimum(mu - ends[np.maximum(cols - _NEAR, 0)],
                             ends[np.minimum(cols + _NEAR + 2, m + 1)] - mu)
            away = np.minimum(mu - outside[0], outside[1] - mu)
            share = (np.sum(np.where(valid, v * v / (lam[i] - mu) ** 2, 0.0), axis=0)
                     + window / far ** 2 + cinv / away ** 2)
        if not (bound := min(bound, worst(share))) <= 1e-12:
            raise ArithmeticError(f"closed-form modes too far from C-orthonormal: their "
                                  f"eigenvalues' residuals allow {bound:.1e}")

    def _amplitudes(self) -> np.ndarray:
        """Bounds on |x| of every profile on the ladder and on the strip
        past the interface node, a (2, m) array: the largest |coef| times
        the amplitude of the waves of its parts there (|r| in the passband;
        |a| + |b| where evanescent, as j <= m)."""
        w, count = self.stack, self.pieces[1]
        r = np.where(w.evanescent, np.abs(w.a) + np.abs(w.b), np.abs(w.r))
        top = np.where(count > 0, r * np.abs(self.coef), 0.0)
        return np.maximum(top[::2], top[1::2])

    def _inverse_diagonal(self, nodes: np.ndarray) -> np.ndarray:
        """(C^-1)_ii at ``nodes``.  C couples no two strip nodes, so past
        the interface it is 1 / c_ii; on the ladder (nodes 0 .. mid, a
        block of C of its own) 1 / (d+_i + d-_i - c_ii) from the LDL^T
        pivots d+ from its first row and d- from its last (the twisted
        factorization), in loops over Python floats."""
        mid, c_diag = self.mid, self.bands.c_diag
        c, b2 = c_diag[:mid + 1].tolist(), np.square(self.bands.c_off[:mid]).tolist()
        down, up = [c[0]], [c[-1]]
        for a, sq in zip(c[1:], b2):
            down.append(a - sq / down[-1])
        for a, sq in zip(c[-2::-1], b2[::-1]):
            up.append(a - sq / up[-1])
        ladder = 1.0 / (np.array(down) + np.array(up[::-1]) - c_diag[:mid + 1])
        return np.where(nodes <= mid, ladder[np.minimum(nodes, mid)], 1.0 / c_diag[nodes])


def _crests(wave: _Wave, m: int) -> np.ndarray:
    """Local nodes (rows, per shift) where |u| of ``wave`` may be largest
    on its segment of m steps: both ends and, in the passband, the two
    nodes about the crest of |sin(pi (j t + f))| nearest the middle (with
    t - 1 for t, the same |sin|, where t > 1/2)."""
    t = np.where(wave.t > 0.5, wave.t - 1.0, wave.t)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = 0.5 * m * t + wave.f
        j = 0.5 * m + (np.round(phase - 0.5) + 0.5 - phase) / t
    j = np.where(np.isfinite(j), np.clip(j, 0.0, m), 0.0)
    return np.stack([np.zeros_like(j), np.full_like(j, m), np.floor(j), np.ceil(j)])


def _squares(wave: _Wave, m, j0: np.ndarray, count: np.ndarray, pairs: bool = False
             ) -> tuple[np.ndarray, np.ndarray]:
    """The sum of u_j^2 of ``wave`` (on segments of m steps) over j = j0 ..
    j0 + count - 1, or with ``pairs`` of (u_j + u_{j+1})^2, per shift, and
    the sum of the magnitudes of its terms.  In the passband u_j + u_{j+1}
    = 2 cos(pi t/2) r sin(pi (j t + f + t/2)); where evanescent it is
    again a growing and a decaying exponential."""
    t, f, r = wave.t, wave.f, wave.r          # NaN where evanescent
    if pairs:
        f, r = f + 0.5 * t, 2.0 * r * np.sin(0.5 * np.pi * (1.0 - t))
    total, size = _sin_squares(r, t, f, j0, count)
    on = wave.evanescent
    if on.any():
        a, b, kappa = wave.a[on], wave.b[on], wave.kappa[on]
        if pairs:
            # (1 + e^-kappa) on both terms, or e^-kappa - 1 and 1 - e^-kappa
            # where the wave alternates
            up = np.where(wave.alt[on], np.expm1(-kappa), 1.0 + np.exp(-kappa))
            a, b = a * up, b * np.where(wave.alt[on], -up, up)
        total[on], size[on] = _exp_squares(a, b, kappa, np.broadcast_to(m, on.shape)[on],
                                           j0[on], count[on], int(pairs))
    return total, size


def _sin_squares(r, t, f, j0, count) -> tuple[np.ndarray, np.ndarray]:
    """The sum of (r sin(pi (j t + f)))^2 over j = j0 .. j0 + count - 1
    by the Dirichlet kernel, r^2/2 (count - D cos(pi ((2 j0 + count - 1) t
    + 2 f))) with D = sin(pi count t) / sin(pi t), and r^2/2 (count + |D|),
    the magnitude of its terms; each angle's whole turns split off by
    ``_phase``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (np.sin(np.pi * _phase(count, t, 0.0)[1])
                  / np.sin(np.pi * np.minimum(t, 1.0 - t)))
        cos = np.cos(np.pi * _phase(2 * j0 + count - 1, t, 2.0 * f)[1])
    half = 0.5 * r * r
    return half * (count - kernel * cos), half * (count + np.abs(kernel))


def _exp_squares(a, b, kappa, m, j0, count, shift: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The sum of (a e^{(j - m + shift) kappa} + b e^{-(j + m) kappa})^2
    over j = j0 .. j0 + count - 1 by geometric sums, every exponent <= 0
    on that range, and the sum of the magnitudes of its terms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(kappa > 0, np.expm1(-2.0 * count * kappa) / np.expm1(-2.0 * kappa),
                         count)
        grow = a * a * np.exp(2.0 * (j0 + count - 1 - m + shift) * kappa) * ratio
        decay = b * b * np.exp(-2.0 * (j0 + m) * kappa) * ratio
        cross = 2.0 * a * b * count * np.exp((shift - 2.0 * m) * kappa)
    return grow + cross + decay, grow + np.abs(cross) + decay
