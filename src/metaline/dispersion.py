"""Closed-form mode density of the two uncoupled ladder lines.

For any L-C ladder with cell pitch dx the propagating plane waves obey
sin(k dx / 2) = +- (i/2) sqrt(Z_series / Z_shunt).  Substituting the
right-handed elements gives a rising acoustic-type band; interchanging
inductors and capacitors (the left-handed ladder) gives the falling band

    omega_l(k) = omega_ir / sin(k dx / 2),   omega_ir = 1/(2 sqrt(C_l L_l)),

which is bounded below by the infrared cutoff omega_ir where the mode
density diverges (a one-dimensional van Hove singularity at the zone
boundary).  On the positive branch of the first Brillouin zone the
half-phase is phi = k dx / 2 = arcsin(omega_ir / omega) in [0, pi/2].
``dom_approx`` sums the two: the strip's constant density at every
frequency and the ladder's above the cutoff.
"""

from __future__ import annotations

import numpy as np

from .circuit import CircuitSpec


def rhtl_background_dom(spec: CircuitSpec) -> float:
    """Constant mode density of the bare strip: one-way delay over pi (s/rad)."""
    return spec.rhtl_length * np.sqrt(
        spec.l_right_per_len * spec.c_right_per_len) / np.pi


def dom_approx(omega, spec: CircuitSpec):
    """Approximate density of modes of the coupled line at every omega: the
    strip's constant density plus, above the cutoff, the left-handed
    (4 N_l sqrt(C_l L_l) / pi) tan(phi) sin(phi) with
    phi = arcsin(omega_ir/omega), which diverges at the cutoff."""
    omega = np.asarray(omega, dtype=float)
    out = np.full(omega.shape, rhtl_background_dom(spec))
    above = omega > spec.omega_ir
    phi = np.arcsin(spec.omega_ir / omega[above])
    out[above] += (4.0 * spec.n_left * np.sqrt(spec.c_left * spec.l_left) / np.pi) \
        * np.tan(phi) * np.sin(phi)
    return float(out) if out.ndim == 0 else out
