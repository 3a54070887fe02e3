"""Lumped-element description of the hybrid left/right-handed transmission line.

The device is a discrete left-handed ladder (series capacitors C_l, shunt
inductors L_l, N_l unit cells of pitch dx) galvanically joined to a regular
strip line treated as the continuum limit of an L-C ladder.  The strip is
discretized into n_right numerical cells for the eigensolver; the left
ladder's last node and the strip's first node are one and the same
interface node.

All quantities are SI; every frequency in this package is an angular
frequency in rad/s.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# apply_disorder truncates eps at +-3 sigma; 1 + eps must stay positive
MAX_SIGMA = 1.0 / 3.0
# standard normal CDF at the truncation points -3 and +3
_PHI_LO = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
_PHI_HI = 0.5 * math.erfc(-3.0 / math.sqrt(2.0))

# Wichura's AS241 (PPND16) rational approximations of the inverse normal
# CDF, numerator and denominator coefficients from the highest power down:
# the central branch |p - 1/2| <= 0.425, and the tail branch for
# r = sqrt(-log(min(p, 1 - p))) <= 5
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632045605e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """Parametric description of the coupled-line network.

    Parameters
    ----------
    n_left : int
        Number of unit cells in the left-handed ladder (>= 1).
    c_left, l_left : float
        Series capacitance (F) and shunt inductance (H) of one ladder cell.
    cell_pitch : float
        Physical length of one ladder cell in meters.
    rhtl_length : float
        Length of the right-handed strip in meters.
    c_right_per_len, l_right_per_len : float
        Strip capacitance (F/m) and inductance (H/m) per unit length.
    n_right : int
        Number of numerical discretization cells for the strip (>= 2).
        This is a solver knob, not a physical parameter.
    c_end_left, c_end_right : float or None
        Optional terminating capacitances (F) on the outermost nodes.
        None means an open end.
    c_left_cells, l_left_cells : ndarray or None
        Optional per-cell element values (length n_left); used to model
        fabrication disorder.  None means every cell is nominal.  Either
        may carry one leading device axis, (devices, n_left), which makes
        the spec a stack of devices that differ only in their ladder cells
        (``apply_disorder`` over a sequence of seeds); ``network_bands``
        then returns the stacked bands, and ``build_matrices`` refuses it.
    """

    n_left: int
    c_left: float
    l_left: float
    cell_pitch: float
    rhtl_length: float
    c_right_per_len: float
    l_right_per_len: float
    n_right: int = 300
    c_end_left: float | None = None
    c_end_right: float | None = None
    c_left_cells: np.ndarray | None = None
    l_left_cells: np.ndarray | None = None

    def __post_init__(self):
        bad = {}        # field -> the range it must lie in
        if self.n_left < 1:
            bad["n_left"] = "n_left >= 1"
        if self.n_right < 2:
            bad["n_right"] = "n_right >= 2"
        for name in ("c_left", "l_left", "cell_pitch", "rhtl_length",
                     "c_right_per_len", "l_right_per_len"):
            if not 0 < getattr(self, name) < np.inf:
                bad[name] = "positive and finite"
        for name in ("c_end_left", "c_end_right"):
            val = getattr(self, name)
            if val is not None and not 0 < val < np.inf:
                bad[name] = "positive and finite, or None"
        for name in ("c_left_cells", "l_left_cells"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float)
                if arr.ndim not in (1, 2) or arr.shape[-1] != self.n_left \
                        or not np.all((0 < arr) & (arr < np.inf)):
                    bad[name] = f"{self.n_left} positive finite values per device"
                else:
                    object.__setattr__(self, name, arr)
        if bad:
            raise ValueError("invalid CircuitSpec fields: " + ", ".join(
                f"{name} ({bound})" for name, bound in bad.items()))

    @property
    def omega_ir(self) -> float:
        """Infrared cutoff 1/(2 sqrt(C_l L_l)) of the left-handed ladder (rad/s)."""
        return 1.0 / (2.0 * np.sqrt(self.c_left * self.l_left))

    @property
    def dx_right(self) -> float:
        """Numerical discretization step of the strip (m)."""
        return self.rhtl_length / self.n_right

    @property
    def devices(self) -> tuple[int, ...]:
        """Leading device axis of the cell arrays: () for one device."""
        return np.broadcast_shapes(*(np.shape(x)[:-1] for x in
                                     (self.c_left_cells, self.l_left_cells) if x is not None))

    def cell_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell (C, L) arrays, falling back to the nominal values, both
        of shape ``devices`` + (n_left,)."""
        c = self.c_left_cells if self.c_left_cells is not None \
            else np.full(self.n_left, self.c_left)
        l = self.l_left_cells if self.l_left_cells is not None \
            else np.full(self.n_left, self.l_left)
        if c.ndim + l.ndim > 2:
            c, l = np.broadcast_arrays(c, l)
        return c, l


def design_from_impedance(z0: float, omega_ir: float) -> tuple[float, float]:
    """Ladder cell values giving impedance ``z0`` and IR cutoff ``omega_ir``.

    Returns (C_l, L_l) = (1/(2 omega_ir z0), z0/(2 omega_ir)); the pair
    satisfies 1/(2 sqrt(C_l L_l)) = omega_ir identically.
    """
    if not z0 > 0:
        raise ValueError(f"impedance must be positive, got {z0}")
    if not omega_ir > 0:
        raise ValueError(f"cutoff frequency must be positive, got {omega_ir}")
    return 1.0 / (2.0 * omega_ir * z0), z0 / (2.0 * omega_ir)


def rhtl_from_impedance(z0: float, velocity: float) -> tuple[float, float]:
    """Per-length strip values (c_r, l_r) from impedance and phase velocity."""
    if not z0 > 0 or not velocity > 0:
        raise ValueError("impedance and velocity must be positive")
    return 1.0 / (z0 * velocity), z0 / velocity


@dataclass(frozen=True, eq=False)
class NetworkBands:
    """Tridiagonal bands of the inverse-inductance (K) and capacitance (C)
    matrices.

    ``k_diag`` and ``c_diag`` hold the n diagonal entries, ``k_off`` and
    ``c_off`` the n-1 entries of the first super-diagonal (both matrices
    are symmetric).  Leading axes, when present, index a stack of devices
    of one size.
    """

    k_diag: np.ndarray
    k_off: np.ndarray
    c_diag: np.ndarray
    c_off: np.ndarray

    @classmethod
    def stack(cls, items: list["NetworkBands"]) -> "NetworkBands":
        """Stack same-size devices along a new leading axis."""
        return cls(*(np.stack([getattr(b, name) for b in items])
                     for name in ("k_diag", "k_off", "c_diag", "c_off")))


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    out = np.diag(diag)
    i = np.arange(len(off))
    out[i, i + 1] = off
    out[i + 1, i] = off
    return out


@dataclass(frozen=True, eq=False)
class NetworkMatrices:
    """Charging and inductive energy matrices over the node fluxes, held as
    their tridiagonal ``bands``.

    The capacitance matrix C (F) must be positive definite, which
    ``solve_modes`` checks; the inverse inductance K (1/H) is positive
    semidefinite.  ``node_positions`` holds one coordinate per node, the
    ladder occupying x < 0 and the strip x in [0, rhtl_length] with the
    shared interface node at x = 0, whose index is ``interface_index``.
    ValueError unless the bands are finite and, for n nodes, n (diagonals)
    and n - 1 (off-diagonals) long.
    """

    bands: NetworkBands
    node_positions: np.ndarray
    interface_index: int

    def __post_init__(self):
        n = len(self.node_positions)
        for name, size in (("k_diag", n), ("k_off", n - 1),
                           ("c_diag", n), ("c_off", n - 1)):
            band = getattr(self.bands, name)
            if np.shape(band) != (size,) or not np.isfinite(band).all():
                raise ValueError(f"bands.{name} must hold {size} finite values "
                                 f"for {n} nodes")

    @property
    def dim(self) -> int:
        return len(self.node_positions)

    @property
    def cap(self) -> np.ndarray:
        """Dense C, formed on each access."""
        return _tridiagonal(self.bands.c_diag, self.bands.c_off)

    @property
    def inv_ind(self) -> np.ndarray:
        """Dense K, formed on each access."""
        return _tridiagonal(self.bands.k_diag, self.bands.k_off)


def _lhtl_bands(c_cells: np.ndarray, l_cells: np.ndarray) -> NetworkBands:
    """Bands of a bare left-handed ladder, N cells and N+1 nodes: cell j puts
    its series capacitor between nodes j and j+1 and its shunt inductor on
    node j+1, so node 0 ends in a bare series capacitor.  Leading axes of
    the (same-shape) cell arrays carry through."""
    c_cells = np.asarray(c_cells, dtype=float)
    c_diag = np.concatenate([c_cells[..., :1], c_cells[..., :-1] + c_cells[..., 1:],
                             c_cells[..., -1:]], axis=-1)
    k_diag = np.concatenate([np.zeros(c_cells.shape[:-1] + (1,)),
                             1.0 / np.asarray(l_cells, dtype=float)], axis=-1)
    return NetworkBands(k_diag=k_diag, k_off=np.zeros(c_cells.shape),
                        c_diag=c_diag, c_off=-c_cells)


def _rhtl_bands(c_per_len: float, l_per_len: float, length: float,
                n_cells: int) -> NetworkBands:
    """Bands of a bare strip of n_cells cells with open ends; each end node
    takes half a cell of shunt capacitance, so the total is c_per_len*length."""
    delta = length / n_cells
    y = 1.0 / (l_per_len * delta)
    k_diag = np.full(n_cells + 1, 2.0 * y)
    k_diag[0] = k_diag[-1] = y
    c_diag = np.full(n_cells + 1, c_per_len * delta)
    c_diag[0] *= 0.5
    c_diag[-1] *= 0.5
    return NetworkBands(k_diag=k_diag, k_off=np.full(n_cells, -y),
                        c_diag=c_diag, c_off=np.zeros(n_cells))


def network_bands(spec: CircuitSpec) -> NetworkBands:
    """Bands of the full network matrices of the coupled device.

    The ladder and the strip are joined by identifying the ladder's last
    node with the strip's node 0; terminating capacitors, when present,
    add to the outermost diagonal entries.  A spec with a leading device
    axis (``CircuitSpec.devices``) gives bands with that axis, each
    device's the same values as its own spec's, the strip's rows repeated
    in every device.
    """
    left = _lhtl_bands(*spec.cell_values())
    right = _rhtl_bands(spec.c_right_per_len, spec.l_right_per_len,
                        spec.rhtl_length, spec.n_right)

    def strip(b: np.ndarray) -> np.ndarray:
        return np.broadcast_to(b, left.c_diag.shape[:-1] + b.shape)

    def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        b = strip(b)
        return np.concatenate([a[..., :-1], a[..., -1:] + b[..., :1], b[..., 1:]], axis=-1)

    c_diag = join(left.c_diag, right.c_diag)
    if spec.c_end_left is not None:
        c_diag[..., 0] += spec.c_end_left
    if spec.c_end_right is not None:
        c_diag[..., -1] += spec.c_end_right
    return NetworkBands(k_diag=join(left.k_diag, right.k_diag),
                        k_off=np.concatenate([left.k_off, strip(right.k_off)], axis=-1),
                        c_diag=c_diag,
                        c_off=np.concatenate([left.c_off, strip(right.c_off)], axis=-1))


def build_matrices(spec: CircuitSpec) -> NetworkMatrices:
    """Network matrices of the coupled device: ``network_bands(spec)``, with
    node positions, the ladder at x < 0 and the strip on [0, rhtl_length].

    O(n) memory; only the dense eigensolver forms the n x n matrices.
    ValueError for a stack of devices (``CircuitSpec.devices``).
    """
    if spec.devices:
        raise ValueError(f"build_matrices takes one device, not a stack of {spec.devices}")
    nl, nr = spec.n_left, spec.n_right
    positions = np.concatenate([
        (np.arange(nl) - nl) * spec.cell_pitch,
        np.arange(nr + 1) * spec.dx_right,
    ])
    return NetworkMatrices(bands=network_bands(spec), node_positions=positions,
                           interface_index=nl)


def _normal_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF by Wichura's AS241 (Appl. Statist. 37,
    1988), the algorithm of ``statistics.NormalDist.inv_cdf``.

    Only AS241's two inner branches are kept, so ``p`` must lie in
    [exp(-25), 1 - exp(-25)] (|x| up to about 7); the relative error
    there is about 1e-16.
    """
    q = p - 0.5
    r = 0.180625 - q * q
    central = q * np.polyval(_AS241_CENTRAL[0], r) / np.polyval(_AS241_CENTRAL[1], r)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p))) - 1.6
    tail = np.copysign(np.polyval(_AS241_TAIL[0], r) / np.polyval(_AS241_TAIL[1], r), q)
    return np.where(np.abs(q) <= 0.425, central, tail)


def apply_disorder(spec: CircuitSpec, relative_sigma: float,
                   seed: int | Sequence[int]) -> CircuitSpec:
    """Scatter every ladder C and L independently by (1 + eps).

    eps is zero-mean normal with standard deviation ``relative_sigma``,
    truncated at +-3 sigma, so sigma must stay below 1/3 for every
    element to remain positive.  Deterministic for a fixed seed.

    The 2 n_left draws are inverse-CDF samples: uniforms u from
    ``numpy.random.default_rng(seed)`` mapped through
    eps = sigma Phi^-1(Phi(-3) + u (Phi(3) - Phi(-3))), with Phi^-1 from
    ``_normal_ppf`` (AS241).  This is the stream of
    ``scipy.stats.truncnorm.rvs(-3, 3, scale=sigma, random_state=rng)``,
    which draws the same uniforms; the two agree to about 1e-14 sigma.

    ``seed`` may also be a sequence of seeds (``range(50)``, say): the
    result is then one spec whose cell arrays carry a leading device axis,
    device i drawn from ``default_rng(seed[i])`` as above, and
    ``network_bands`` of it equals ``NetworkBands.stack`` of the seeds'
    bands bit for bit; ``_normal_ppf`` runs once over all the draws.
    """
    if not 0 <= relative_sigma < MAX_SIGMA:
        raise ValueError(
            f"relative_sigma must lie in [0, 1/3), got {relative_sigma}")
    c_cells, l_cells = spec.cell_values()
    n = spec.n_left
    u = np.array([np.random.default_rng(s).uniform(size=2 * n)
                  for s in ([seed] if np.ndim(seed) == 0 else seed)]
                 ).reshape(np.shape(seed) + (2 * n,))
    eps = relative_sigma * _normal_ppf(_PHI_LO + u * (_PHI_HI - _PHI_LO))
    return replace(spec, c_left_cells=c_cells * (1.0 + eps[..., :n]),
                   l_left_cells=l_cells * (1.0 + eps[..., n:]))
