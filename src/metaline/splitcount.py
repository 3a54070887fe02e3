"""Sturm counts of a stack of devices that share a uniform strip.

``modes.band_edges`` brackets the band edge of every device of a stack
(the disorder study) by counts of eigenvalues below shifts.  Disorder
(``circuit.apply_disorder``) scatters only the ladder, so the devices
share the strip node for node, and ``SplitCount`` counts in two parts:
the blocked, guarded LDL^T sweep of ``modes.sturm_count`` (LAPACK dlaneg:
Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28, 2006) over the rows up
to the strip, then the strip and its last row in closed form, O(1) per
shift, as ``modes._shoot`` takes a segment (Atkinson's discrete Pruefer
angle, *Discrete and Continuous Boundary Problems*, 1964).
``modes._shared_strip`` imports this module where a stack shares a
strip, so that commands that count nothing do not compile it.
"""

from __future__ import annotations

import numpy as np

from .circuit import NetworkBands
from .modes import (_advance, _junction, _nodes_first, _pivmin, _pq, _segment,
                    _shifts_first, _sweep, sturm_count)


class SplitCount:
    """``sturm_count``'s count of a stack whose devices share the uniform
    strip from node ``start`` on (``modes._strip_start``), called on shifts
    as ``sturm_count`` is.

    It lays out the rows 0..start of every device nodes first once, keeps
    each device's largest |k_off| and |c_off| over all its edges (for
    ``_pivmin``), the strip as a ``_Segment`` and (h_k, h_c) of its last
    row as in ``_two_segments``.  The sweep over those rows ends on the
    pivot d_s at the strip's first node s, which gives the strip's shot
    state there: u_s = 1 and W_s = u_{s+1} - tau u_s = (d_s - a/2) / beta,
    as d_s = beta u_{s+1}/u_s.  The sign of d_s is then the strip's first
    sign change, not the sweep's.  A call with a shift where the strip is
    evanescent counts by ``sturm_count`` alone, as the closed count there
    need not rise with lam over a few ulps.
    """

    def __init__(self, bands: NetworkBands, start: int):
        kd, ko, cd, co = bands.k_diag, bands.k_off, bands.c_diag, bands.c_off
        self.bands = bands
        self.strip = _segment(kd[0], ko[0], cd[0], co[0], start, kd.shape[-1] - 1)
        # in long double where there is one: the half nearly cancels a_j
        self.last = (float(kd[0, -1] - np.longdouble(self.strip.k_d) / 2),
                     float(cd[0, -1] - np.longdouble(self.strip.c_d) / 2))
        self.rows = tuple(map(_nodes_first, (kd[:, :start + 1], ko[:, :start],
                                             cd[:, :start + 1], co[:, :start])))
        self.kmax, self.cmax = (np.abs(x).max(axis=-1, initial=0.0)[None] for x in (ko, co))

    def __call__(self, lam) -> np.ndarray:
        shifts, strip = _shifts_first(self.bands, lam), self.strip
        p, q = _pq(strip, shifts)
        if not ((p > 0) & (q > 0)).all():
            return sturm_count(self.bands, lam)
        below, d = _sweep(self.rows, shifts, _pivmin(self.kmax, self.cmax, shifts))
        beta = strip.k_o + shifts * strip.c_o
        w = (d - 0.5 * (strip.k_d - shifts * strip.c_d)) / beta
        sign_changes, u, w = _advance(strip, shifts, beta, np.ones_like(d), w)
        last = _junction(self.last, shifts, u, w, beta, None)
        below += (sign_changes + (u * last < 0)).astype(int) - np.signbit(d)
        return np.moveaxis(below, 0, -1)
