"""Independent brute-force oracles the library code must agree with.

These deliberately avoid the closed forms and iteration schemes used by
the package: entropies come from explicit density matrices and partial
traces in the full qubit x modes tensor space, the renormalization
fixed point from a dense scan over candidate splittings and from the
plain monotone iteration, the localization boundary by bisection on
labels from that iteration, the network
matrices from per-element stamping loops, mode counts from a dense
eigenvalue solve of the symmetrically reduced pencil, and CSV bytes from
a writer that formats every value with its own call.
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


def stamped_matrices(spec) -> tuple[np.ndarray, np.ndarray]:
    """Dense (cap, inv_ind) of a CircuitSpec, stamped element by element.

    Every ladder cell adds its series capacitor to the 2x2 block of its
    two nodes and its shunt inductor to the diagonal of its right node;
    every strip segment adds 1/(l dx) to the 2x2 block of its two nodes
    and half a cell of capacitance to each node; the terminating
    capacitors add to the outermost diagonal entries.
    """
    c_cells, l_cells = spec.cell_values()
    nl, nr = spec.n_left, spec.n_right
    dim = nl + nr + 1
    cap = np.zeros((dim, dim))
    inv_ind = np.zeros((dim, dim))
    for j in range(nl):
        c = c_cells[j]
        cap[j, j] += c
        cap[j + 1, j + 1] += c
        cap[j, j + 1] -= c
        cap[j + 1, j] -= c
        inv_ind[j + 1, j + 1] += 1.0 / l_cells[j]
    delta = spec.rhtl_length / nr
    y = 1.0 / (spec.l_right_per_len * delta)
    for j in range(nl, nl + nr):
        inv_ind[j, j] += y
        inv_ind[j + 1, j + 1] += y
        inv_ind[j, j + 1] -= y
        inv_ind[j + 1, j] -= y
        cap[j, j] += 0.5 * spec.c_right_per_len * delta
        cap[j + 1, j + 1] += 0.5 * spec.c_right_per_len * delta
    if spec.c_end_left is not None:
        cap[0, 0] += spec.c_end_left
    if spec.c_end_right is not None:
        cap[-1, -1] += spec.c_end_right
    return cap, inv_ind


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
