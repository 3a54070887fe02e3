"""Independent brute-force oracles the library code must agree with.

These deliberately avoid the closed forms and iteration schemes used by
the package: states are propagated by complex products on an
eigendecomposition of their own, entropies come from explicit density
matrices and partial traces in the full qubit x modes tensor space, the
renormalization fixed point from a dense scan over candidate splittings
and from the plain monotone iteration, the localization boundary by
bisection on labels from that iteration, the jumps of the fixed point by
one scalar bisection per grid step on that iteration, the network
matrices from per-element stamping loops, bare-line frequencies from the
closed-form ladder dispersions, the mode density of the uncoupled lines
from the slope of the ladder's inverse dispersion, footprint-averaged
currents and sign changes one mode at a time, mode counts from a dense
eigenvalue solve of the symmetrically reduced pencil and from a scalar
pivot loop per shift, single eigenvalues from a 40-digit bisection and
from multisection on that pivot loop,
eigenvectors refined by long-double inverse iteration with pivoted
Gaussian elimination, and CSV bytes from a writer that formats every
value with its own call.
"""

import numpy as np


def embed_full_state(c0: complex, c: np.ndarray) -> np.ndarray:
    """One-excitation amplitudes -> vector in the 2^(N+1) tensor space.

    Subsystem 0 is the qubit, subsystems 1..N the modes, each truncated to
    two levels (enough for a single excitation).
    """
    n = len(c)
    vec = np.zeros(2 ** (n + 1), dtype=complex)
    # axis 0 is the most significant bit; basis |qubit, n_1, ..., n_N>
    vec[1 << n] = c0                      # qubit excited, all modes vacuum
    for m in range(n):
        vec[1 << (n - 1 - m)] = c[m]      # photon in mode m
    return vec


def entropy_after_tracing(c0: complex, c: np.ndarray, traced: list[int]) -> float:
    """Von Neumann entropy (nats) of the state left after tracing ``traced``.

    ``traced`` lists subsystem indices (0 = qubit, 1+m = mode m) of the
    parts traced out; the reduced density matrix of the remaining parts is
    formed explicitly and diagonalized.
    """
    n = len(c)
    dims = n + 1
    vec = embed_full_state(c0, c).reshape((2,) * dims)
    keep = [ax for ax in range(dims) if ax not in traced]
    # rho_keep[i, j] = sum_t psi[i, t] conj(psi[j, t])
    psi = np.transpose(vec, keep + sorted(traced))
    psi = psi.reshape(2 ** len(keep), 2 ** len(traced))
    rho = psi @ psi.conj().T
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


def grid_search_fixed_point(omega: np.ndarray, g: np.ndarray, delta0: float,
                            variant: str = "standard", npts: int = 200_000) -> float:
    """Largest self-consistent splitting by dense scan, no iteration.

    The dressing sum is a step function of the candidate splitting, so on
    the bracketing grid interval the mapped value itself is the exact
    fixed point.
    """
    lam2 = (g / omega) ** 2 if variant == "standard" else (g / omega) ** 4
    order = np.argsort(omega)
    omega_sorted = omega[order]
    tail = np.concatenate([np.cumsum(lam2[order][::-1])[::-1], [0.0]])

    grid = np.linspace(delta0 * 1e-9, delta0, npts)
    s_of = tail[np.searchsorted(omega_sorted, grid, side="right")]
    mapped = delta0 * np.exp(-2.0 * s_of)
    feasible = mapped >= grid
    i = int(np.max(np.nonzero(feasible)[0]))
    return float(mapped[i])


def iterate_fixed_point(omega: np.ndarray, g: np.ndarray, delta0: float,
                        variant: str = "standard",
                        max_iterations: int = 10_000) -> float:
    """Dressing sum at the largest fixed point, by the monotone iteration.

    Starts at Delta_0 and re-evaluates the sum over the modes faster than
    the current iterate until the splitting stops moving; the iterate is
    non-increasing, so it stops at the largest fixed point.
    """
    lam2 = (g / omega) ** 2 if variant == "standard" else (g / omega) ** 4
    delta = float(delta0)
    s = 0.0
    for _ in range(max_iterations):
        s = float(lam2[omega > delta].sum())
        new = delta0 * np.exp(-2.0 * s)
        if new == delta or abs(new - delta) <= 1e-10 * abs(delta):
            return s
        delta = new
    raise RuntimeError("fixed-point iteration did not settle")


def bisect_jumps(omega: np.ndarray, profile: np.ndarray, delta0: float,
                 g_grid, variant: str = "standard", factor: float = 10.0,
                 rel_tol: float = 1e-4) -> list[tuple[float, float]]:
    """(g_star, drop_factor) of each jump of the largest fixed point along
    the ascending ``g_grid``, one scalar bisection per grid step.

    Dressing sums come from ``iterate_fixed_point`` with couplings
    g * profile.  A grid step whose Delta_eff falls by more than ``factor``
    is halved, keeping the half that falls more, until it is ``rel_tol``
    wide relative to its top; if it still falls by more than ``factor``,
    it is a jump at its midpoint.
    """
    def cat(g):
        return iterate_fixed_point(omega, g * profile, delta0, variant)

    cats = [cat(g) for g in g_grid]
    jumps = []
    for i in range(len(g_grid) - 1):
        g_lo, g_hi, cat_lo, cat_hi = g_grid[i], g_grid[i + 1], cats[i], cats[i + 1]
        if not 2.0 * (cat_hi - cat_lo) > np.log(factor):
            continue
        while (g_hi - g_lo) > rel_tol * g_hi:
            g_mid = 0.5 * (g_lo + g_hi)
            cat_mid = cat(g_mid)
            if (cat_mid - cat_lo) >= (cat_hi - cat_mid):
                g_hi, cat_hi = g_mid, cat_mid
            else:
                g_lo, cat_lo = g_mid, cat_mid
        if 2.0 * (cat_hi - cat_lo) > np.log(factor):
            jumps.append((0.5 * (g_lo + g_hi), float(np.exp(2.0 * (cat_hi - cat_lo)))))
    return jumps


def boundary_bracket(omega: np.ndarray, profile: np.ndarray, delta0: float,
                     g_grid: np.ndarray, variant: str = "standard",
                     threshold: float = 1e-3, rel_tol: float = 1e-4):
    """Bracket (g_lo, g_hi) of the coupling where Delta_eff/Delta_0 first
    falls below ``threshold``, bisected to ``rel_tol`` relative in g.

    Labels come from ``iterate_fixed_point`` with couplings g * profile.
    The bracket starts at the grid step where the label flips; it is
    (g_grid[0], g_grid[0]) for a row localized from the first point and
    None for a row that never localizes on the grid.
    """
    log_thr = -0.5 * np.log(threshold)

    def localized(g):
        return iterate_fixed_point(omega, g * profile, delta0, variant) > log_thr

    flips = [i for i, g in enumerate(g_grid) if localized(g)]
    if not flips:
        return None
    i = flips[0]
    if i == 0:
        return float(g_grid[0]), float(g_grid[0])
    g_lo, g_hi = g_grid[i - 1], g_grid[i]
    while (g_hi - g_lo) > rel_tol * g_hi:
        g_mid = 0.5 * (g_lo + g_hi)
        if localized(g_mid):
            g_hi = g_mid
        else:
            g_lo = g_mid
    return float(g_lo), float(g_hi)


def stamped_lhtl(c_cells, l_cells) -> tuple[np.ndarray, np.ndarray]:
    """Dense (cap, inv_ind) of a bare left-handed ladder, N cells and N+1
    nodes: cell j adds its series capacitor to the 2x2 block of nodes j and
    j+1 and its shunt inductor to the diagonal of node j+1."""
    n = len(c_cells)
    cap = np.zeros((n + 1, n + 1))
    inv_ind = np.zeros((n + 1, n + 1))
    for j in range(n):
        c = c_cells[j]
        cap[j, j] += c
        cap[j + 1, j + 1] += c
        cap[j, j + 1] -= c
        cap[j + 1, j] -= c
        inv_ind[j + 1, j + 1] += 1.0 / l_cells[j]
    return cap, inv_ind


def stamped_rhtl(c_per_len, l_per_len, length, n_cells) -> tuple[np.ndarray, np.ndarray]:
    """Dense (cap, inv_ind) of a bare strip of ``n_cells`` segments with open
    ends: every segment adds 1/(l dx) to the 2x2 block of its two nodes and
    half a cell of capacitance to each node."""
    cap = np.zeros((n_cells + 1, n_cells + 1))
    inv_ind = np.zeros((n_cells + 1, n_cells + 1))
    delta = length / n_cells
    y = 1.0 / (l_per_len * delta)
    for j in range(n_cells):
        inv_ind[j, j] += y
        inv_ind[j + 1, j + 1] += y
        inv_ind[j, j + 1] -= y
        inv_ind[j + 1, j] -= y
        cap[j, j] += 0.5 * c_per_len * delta
        cap[j + 1, j + 1] += 0.5 * c_per_len * delta
    return cap, inv_ind


def stamped_matrices(spec) -> tuple[np.ndarray, np.ndarray]:
    """Dense (cap, inv_ind) of a CircuitSpec, stamped element by element.

    The ladder (``stamped_lhtl``) and the strip (``stamped_rhtl``) add
    their matrices to the blocks of their nodes, sharing the interface
    node; the terminating capacitors add to the outermost diagonal entries.
    """
    nl, nr = spec.n_left, spec.n_right
    dim = nl + nr + 1
    cap = np.zeros((dim, dim))
    inv_ind = np.zeros((dim, dim))
    for nodes, (c, k) in (
            (slice(0, nl + 1), stamped_lhtl(*spec.cell_values())),
            (slice(nl, dim), stamped_rhtl(spec.c_right_per_len, spec.l_right_per_len,
                                          spec.rhtl_length, nr))):
        cap[nodes, nodes] += c
        inv_ind[nodes, nodes] += k
    if spec.c_end_left is not None:
        cap[0, 0] += spec.c_end_left
    if spec.c_end_right is not None:
        cap[-1, -1] += spec.c_end_right
    return cap, inv_ind


def omega_rhtl(k, c_right: float, l_right: float, dx: float):
    """Right-handed ladder dispersion (2/sqrt(C L)) sin(k dx / 2).

    ``c_right`` and ``l_right`` are the lumped per-cell values; for a
    discretized strip use C = c_r*dx, L = l_r*dx, which recovers the
    continuum k/sqrt(c_r l_r) for k dx << 1.
    """
    k = np.asarray(k, dtype=float)
    kdx = k * dx
    if np.any(kdx < 0) or np.any(kdx > np.pi + 1e-12):
        raise ValueError("k dx must lie in [0, pi] (first Brillouin zone)")
    out = (2.0 / np.sqrt(c_right * l_right)) * np.sin(kdx / 2.0)
    return float(out) if out.ndim == 0 else out


def omega_lhtl(k, c_left: float, l_left: float, dx: float):
    """Left-handed ladder dispersion omega_ir / sin(k dx / 2), falling in k."""
    k = np.asarray(k, dtype=float)
    kdx = k * dx
    if np.any(kdx <= 0):
        raise ValueError("frequency diverges as k -> 0; k dx must be positive")
    if np.any(kdx > np.pi + 1e-12):
        raise ValueError("k dx must lie in (0, pi] (first Brillouin zone)")
    omega_ir = 1.0 / (2.0 * np.sqrt(c_left * l_left))
    out = omega_ir / np.sin(kdx / 2.0)
    return float(out) if out.ndim == 0 else out


def uncoupled_mode_density(omega, spec) -> np.ndarray:
    """Modes per unit angular frequency of the strip and the ladder, summed
    one frequency at a time.

    The strip adds its one-way delay over pi at every frequency.  Above the
    cutoff the ladder's N_l cells add N_l dx / pi |dk/domega| of the branch
    k = (2/dx) arcsin(omega_ir/omega), i.e. 2 N_l s / (pi omega sqrt(1 - s^2))
    with s = omega_ir/omega.
    """
    delay = spec.rhtl_length * np.sqrt(spec.l_right_per_len * spec.c_right_per_len)
    omega_ir = 1.0 / (2.0 * np.sqrt(spec.c_left * spec.l_left))
    out = []
    for w in np.atleast_1d(np.asarray(omega, dtype=float)).tolist():
        density = delay / np.pi
        if w > omega_ir:
            s = omega_ir / w
            density += 2.0 * spec.n_left * s / (np.pi * w * np.sqrt((1.0 - s) * (1.0 + s)))
        out.append(density)
    return np.array(out)


def sign_changes(values: np.ndarray) -> int:
    """Number of sign alternations along a vector, ignoring exact zeros."""
    s = np.sign(values)
    s = s[s != 0]
    if len(s) < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))


def current_average(modes, spec, n: int, x0: float, extent: float) -> float:
    """Magnitude of the mode-n strip current averaged over [x0, x0+extent].

    Branch currents, flux differences over l dx, live at the segment
    midpoints and are interpolated linearly in between; the average is the
    integral mean of that piecewise-linear shape by the trapezoid rule on
    its knots.  ``extent`` = 0 returns the pointwise magnitude at x0.
    """
    flux = modes.profiles[modes.interface_index:, n]
    currents = (flux[:-1] - flux[1:]) / (spec.l_right_per_len * spec.dx_right)
    mids = (np.arange(spec.n_right) + 0.5) * spec.dx_right
    if extent == 0:
        return float(abs(np.interp(x0, mids, currents)))
    inner = mids[(mids > x0) & (mids < x0 + extent)]
    knots = np.concatenate([[x0], inner, [x0 + extent]])
    vals = np.interp(knots, mids, currents)
    return float(abs(np.trapezoid(vals, knots) / extent))


def evolve(h: np.ndarray, psi0: np.ndarray, times) -> list[np.ndarray]:
    """States exp(-i h t) psi0 of a real symmetric ``h`` at each of ``times``,
    by complex products on numpy's eigendecomposition of ``h``."""
    evals, evecs = np.linalg.eigh(h)
    coeffs = evecs.T @ np.asarray(psi0, dtype=complex)
    return [evecs @ (np.exp(-1j * evals * t) * coeffs) for t in times]


def long_double_populations(evals, evecs, times) -> np.ndarray:
    """|<j| exp(-i h t) |0>|^2 of the eigendecomposition (evals, evecs) of
    h, one column per time, with phases, sums and squares in long double."""
    e, v = np.asarray(evals, np.longdouble), np.asarray(evecs, np.longdouble)
    phase = np.outer(e, np.asarray(times, np.longdouble))
    amps = v[0][:, None]
    return (v @ (np.cos(phase) * amps)) ** 2 + (v @ (np.sin(phase) * amps)) ** 2


def long_double_entropy(p) -> np.ndarray:
    """H2(p) in long double, with H2(0) = H2(1) = 0."""
    p = np.clip(np.asarray(p, np.longdouble), 0, 1)
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    out[inner] = -p[inner] * np.log(p[inner]) - (1 - p[inner]) * np.log1p(-p[inner])
    return out


def pencil_eigenvalues(cap: np.ndarray, inv_ind: np.ndarray) -> np.ndarray:
    """Ascending generalized eigenvalues of (inv_ind, cap).

    Reduces the pencil with the symmetric inverse square root of cap, from
    its own eigendecomposition, and diagonalizes the reduced symmetric
    matrix C^{-1/2} K C^{-1/2}.
    """
    s, u = np.linalg.eigh(cap)
    root = (u / np.sqrt(s)) @ u.T
    return np.linalg.eigvalsh(root @ inv_ind @ root)


def dense_count(cap: np.ndarray, inv_ind: np.ndarray, lam) -> np.ndarray:
    """Number of generalized eigenvalues of (inv_ind, cap) below each lam."""
    return np.searchsorted(pencil_eigenvalues(cap, inv_ind),
                           np.asarray(lam, dtype=float), side="left")


def sturm_count_reference(bands, lam) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal pencil (K, C) below each
    shift, one shift and one node at a time in Python floats.

    The LDL^T pivots d_i = (k_i - lam c_i) - b_{i-1}^2 / d_{i-1}, with
    b_i = k_off_i - lam c_off_i, follow LAPACK dstebz: a pivot smaller in
    magnitude than pivmin = tiny * max(1, max_i b_i^2), zero included,
    becomes -pivmin.  ``bands`` has 1-D ``k_diag``, ``k_off``, ``c_diag``
    and ``c_off``; ``lam`` is 1-D.
    """
    kd, ko, cd, co = (np.asarray(x, dtype=float).tolist() for x in
                      (bands.k_diag, bands.k_off, bands.c_diag, bands.c_off))
    tiny = float(np.finfo(float).tiny)
    counts = []
    for shift in np.asarray(lam, dtype=float).tolist():
        b2 = [(k - shift * c) * (k - shift * c) for k, c in zip(ko, co)]
        pivmin = tiny * max([1.0] + b2)
        below, d = 0, None
        for i, (k, c) in enumerate(zip(kd, cd)):
            d = k - shift * c if i == 0 else (k - shift * c) - b2[i - 1] / d
            if abs(d) < pivmin:
                d = -pivmin
            below += d < 0
        counts.append(below)
    return np.array(counts)


def multisection_eigenvalue(bands, index: int, lo: float, hi: float,
                            shifts: int = 3) -> float:
    """Eigenvalue number ``index`` (0-based, ascending) of the pencil (K,
    C) given by tridiagonal bands, by multisection on
    ``sturm_count_reference`` from the bracket [lo, hi] (AssertionError
    unless its counts hold the eigenvalue): each round counts ``shifts``
    evenly spaced shifts inside the bracket and keeps the part between the
    last counted at or below ``index`` and the first counted above, until
    the bracket is no wider than 2 eps hi.  Returns its midpoint."""
    assert sturm_count_reference(bands, [lo])[0] <= index < sturm_count_reference(bands, [hi])[0]
    eps = float(np.finfo(float).eps)
    while hi - lo > 2.0 * eps * hi:
        points = [lo + (hi - lo) * (i + 1) / (shifts + 1) for i in range(shifts)]
        counts = sturm_count_reference(bands, points).tolist()
        lo = max([lo] + [x for x, c in zip(points, counts) if c <= index])
        hi = min([hi] + [x for x, c in zip(points, counts) if c > index and x > lo])
    return 0.5 * (lo + hi)


def mp_pencil_eigenvalue(bands, index: int, digits: int = 40, bracket=None):
    """Eigenvalue number ``index`` (0-based, ascending) of the pencil
    (K, C) given by tridiagonal bands, as an mpmath number.

    Bisection on the number of negative pivots of K - lam C, every pivot
    carried in ``digits``-digit arithmetic, from ``bracket`` = (lo, hi)
    when given (AssertionError unless its counts hold the eigenvalue) and
    else from [0, 1] widened 4-fold.  It stops once both ends round to one
    double, which is then the correctly rounded eigenvalue and the
    ``float`` of the result, or at 30 significant digits (an eigenvalue
    that close to half-way between two doubles).
    """
    import mpmath   # only this oracle needs it

    with mpmath.workdps(digits):
        kd, ko, cd, co = ([mpmath.mpf(float(v)) for v in arr] for arr in
                          (bands.k_diag, bands.k_off, bands.c_diag, bands.c_off))
        n = len(kd)

        def below(lam):
            count, d = 0, None
            for i in range(n):
                d = kd[i] - lam * cd[i] - (0 if i == 0 else
                                           (ko[i - 1] - lam * co[i - 1]) ** 2 / d)
                if d == 0:
                    d = -mpmath.mpf(10) ** (-2 * digits)
                count += d < 0
            return count

        if bracket is None:
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            while below(hi) <= index:
                lo, hi = hi, 4 * hi
        else:
            lo, hi = (mpmath.mpf(float(x)) for x in bracket)
            assert below(lo) <= index < below(hi)
        while float(lo) != float(hi) and hi - lo > mpmath.mpf(10) ** -30 * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) > index else (mid, hi)
        return (lo + hi) / 2


def _pivoted_tridiagonal_solve(diag, off, rhs):
    """x with T x = rhs column by column, T symmetric tridiagonal with
    diagonal ``diag`` (n, m) and off-diagonal ``off`` (n-1, m).

    Gaussian elimination with partial pivoting, the scheme of LAPACK
    dgtsv: at each step the row with the larger entry in the pivot column
    leads, and an exchange gives U a second superdiagonal.  A zero pivot
    is replaced by the rounding level of T.
    """
    n = len(diag)
    d, du, b = diag.copy(), off.copy(), rhs.copy()
    du2 = np.zeros_like(off)
    zero = np.zeros_like(d[0])
    # a zero pivot (a shift on an eigenvalue to the last bit) takes the
    # rounding level of T, as in inverse iteration
    tiny = np.finfo(d.dtype).eps * np.abs(diag).max()
    for i in range(n - 1):
        swap = np.abs(d[i]) < np.abs(off[i])
        nxt = du[i + 1] if i < n - 2 else zero
        # the pivot row is [piv, u1, u2], the row it eliminates [o0, o1, o2]
        piv = np.where(swap, off[i], d[i])
        piv[piv == 0] = tiny
        u1, u2 = np.where(swap, d[i + 1], du[i]), np.where(swap, nxt, zero)
        o0 = np.where(swap, d[i], off[i])
        o1, o2 = np.where(swap, du[i], d[i + 1]), np.where(swap, zero, nxt)
        b_piv, b_other = np.where(swap, b[i + 1], b[i]), np.where(swap, b[i], b[i + 1])
        fact = o0 / piv
        d[i], du[i], du2[i] = piv, u1, u2
        d[i + 1] = o1 - fact * u1
        if i < n - 2:
            du[i + 1] = o2 - fact * u2
        b[i], b[i + 1] = b_piv, b_other - fact * b_piv
    d[-1] = np.where(d[-1] == 0, tiny, d[-1])
    x = np.empty_like(b)
    x[-1] = b[-1] / d[-1]
    x[-2] = (b[-2] - du[-1] * x[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        x[i] = (b[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


def refined_pencil_modes(bands, vecs, steps: int = 3):
    """Eigenpairs of the pencil (K, C) given by tridiagonal bands, refined
    from approximate eigenvectors (the columns of ``vecs``) by ``steps``
    steps of inverse iteration in long double.

    Each step solves (K - rho C) x = C v with rho the Rayleigh quotient of
    v, by ``_pivoted_tridiagonal_solve``.  Returns the Rayleigh quotients
    and the C-normalized vectors, both in long double.
    """
    kd, ko, cd, co = (np.asarray(band, dtype=np.longdouble) for band in
                      (bands.k_diag, bands.k_off, bands.c_diag, bands.c_off))

    def times(diag, off, x):
        out = diag[:, None] * x
        out[:-1] += off[:, None] * x[1:]
        out[1:] += off[:, None] * x[:-1]
        return out

    v = np.asarray(vecs, dtype=np.longdouble)
    for step in range(steps + 1):
        cv = times(cd, co, v)
        scale = 1 / np.sqrt(np.sum(v * cv, axis=0))
        v, cv = v * scale, cv * scale
        rho = np.sum(v * times(kd, ko, v), axis=0)
        if step < steps:
            v = _pivoted_tridiagonal_solve(kd[:, None] - rho * cd[:, None],
                                           ko[:, None] - rho * co[:, None], cv)
    return rho, v


def csv_value(value) -> str:
    """One CSV value on its own: labels verbatim, integers in full, and
    anything else as a float with 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".11e")


def write_csv(path, columns, rows, comments, block_comments=None) -> None:
    """The CLI's CSV layout, written one value at a time: '# ' comment
    lines, the header, then the rows with ``block_comments[i]`` as a
    comment line before row i."""
    with open(path, "w", newline="\n") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(",".join(columns) + "\n")
        for i, row in enumerate(rows):
            if block_comments and i in block_comments:
                f.write(f"# {block_comments[i]}\n")
            f.write(",".join(csv_value(v) for v in row) + "\n")
