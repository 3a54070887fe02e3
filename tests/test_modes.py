import dataclasses
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

from metaline import (CouplingSpectrum, IllConditionedCircuitError,
                      ModeSet, NetworkBands, QubitSpec,
                      apply_disorder, band_edges, build_matrices,
                      coupling_spectrum, dom_numeric, find_current_antinode,
                      footprint_at_antinode, footprint_weights, network_bands,
                      rhtl_from_impedance, solve_modes, sturm_count)
from metaline.config import GHZ, parse_config
import metaline.modes as modes
from metaline.modes import _column_sign_changes
from conftest import (OMEGA_IR, TWO_PI, ULTRASTRONG_BAND, WINDOW,
                      make_band_edge_spec, wrap_dense)
from oracles import (current_average, dense_count, mp_pencil_eigenvalue, omega_lhtl,
                     omega_rhtl, pencil_eigenvalues, sign_changes, stamped_lhtl,
                     stamped_matrices, stamped_rhtl, sturm_count_reference)


def _wrap(cap, inv_ind, length=None, interface=0):
    n = cap.shape[0]
    pos = np.linspace(0.0, length if length else 1.0, n)
    return wrap_dense(cap, inv_ind, pos, interface)


class TestSolveModes:
    def test_single_lc_cell(self):
        c, l = 4e-13, 1e-9
        ms = solve_modes(_wrap(np.array([[c]]), np.array([[1.0 / l]])))
        assert len(ms) == 1
        npt.assert_allclose(ms.frequencies[0], 1.0 / np.sqrt(l * c), rtol=1e-12)
        npt.assert_allclose(ms.profiles[0, 0] ** 2 * c, 1.0, rtol=1e-12)

    def test_pure_rhtl_matches_ladder_dispersion(self):
        c_r, l_r, ell, n = 1.6667e-10, 4.1667e-7, 0.03, 300
        cap, ki = stamped_rhtl(c_r, l_r, ell, n)
        ms = solve_modes(_wrap(cap, ki, length=ell))
        delta = ell / n
        k = np.arange(1, 11) * np.pi / ell
        exact = omega_rhtl(k, c_r * delta, l_r * delta, delta)
        npt.assert_allclose(ms.frequencies[:10], exact, rtol=1e-3)

    def test_pure_lhtl_matches_ladder_dispersion(self):
        spec = make_band_edge_spec()
        n = spec.n_left
        cap, ki = stamped_lhtl(*spec.cell_values())
        cap = cap + np.eye(n + 1) * spec.c_left * 1e-9   # stray regularizer
        ms = solve_modes(_wrap(cap, ki, length=n * spec.cell_pitch))
        k = np.arange(n - 1, n - 11, -1) * np.pi / (n * spec.cell_pitch)
        exact = np.sort(omega_lhtl(k, spec.c_left, spec.l_left, spec.cell_pitch))
        npt.assert_allclose(ms.frequencies[:10], exact, rtol=1e-3)

    def test_band_edge_and_cluster(self, band_spec, band_modes):
        w = band_modes.frequencies
        assert OMEGA_IR < w[0] < 1.005 * OMEGA_IR
        # quasi-degenerate cluster just above the edge
        assert w[9] < 1.01 * OMEGA_IR

    def test_capacitance_orthonormality(self, band_matrices, band_modes):
        gram = band_modes.profiles.T @ band_matrices.cap @ band_modes.profiles
        off = gram - np.eye(len(band_modes))
        assert np.abs(off).max() <= 1e-10

    def test_eigen_residuals(self, band_matrices, band_modes):
        for n in range(0, len(band_modes), 23):
            v = band_modes.profiles[:, n]
            lhs = band_matrices.inv_ind @ v
            rhs = band_modes.frequencies[n] ** 2 * (band_matrices.cap @ v)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)

    def test_spectral_completeness(self, band_spec, band_matrices):
        ms = solve_modes(band_matrices)      # no window
        dim = band_spec.n_left + band_spec.n_right + 1
        nullity = int(np.sum(np.abs(np.linalg.eigvalsh(band_matrices.inv_ind))
                             < 1e-9 * np.abs(band_matrices.inv_ind).max()))
        assert len(ms) == dim - nullity
        assert nullity == 1                  # the bare-capacitor end node

    def test_interface_sign_fixed(self, band_modes):
        iface = band_modes.interface_index
        assert np.all(band_modes.profiles[iface, :] >= 0)

    def test_window_filters(self, band_matrices):
        ms = solve_modes(band_matrices, (TWO_PI * 4.119e9, TWO_PI * 5.039e9))
        assert np.all(ms.frequencies >= TWO_PI * 4.119e9)
        assert np.all(ms.frequencies <= TWO_PI * 5.039e9)

    def test_ill_conditioned_error_names_pivot(self):
        cap = np.array([[1e-13, 2e-13], [2e-13, 1e-13]])   # indefinite
        ki = np.eye(2) * 1e9
        with pytest.raises(IllConditionedCircuitError,
                           match=r"^capacitance matrix is not positive definite \(pivot"):
            solve_modes(_wrap(cap, ki))


    @pytest.mark.parametrize("spoil", ["first", "middle", "last", "tiny", "nan"])
    def test_one_device_pivots_as_a_stack_of_one(self, band_matrices, spoil):
        # the Python-float loop for one device and the numpy recurrence for
        # a stack name the same pivot
        c_diag = band_matrices.bands.c_diag.copy()
        i = len(c_diag) - 1 if spoil == "last" else 0 if spoil == "first" else 100
        if spoil == "tiny":     # on the ladder: a pivot of about 1e-300 F, then a huge one
            c_diag[i - 1:i + 1] = 1e300, 1e-300
        else:
            c_diag[i] = np.nan if spoil == "nan" else -c_diag[i]
        bands = dataclasses.replace(band_matrices.bands, c_diag=c_diag)
        messages = []
        for each in (bands, NetworkBands.stack([bands])):
            with pytest.raises(IllConditionedCircuitError) as err:
                modes._check_capacitance(each)
            messages.append(str(err.value).replace(" of device 0", ""))
        assert messages[0] == messages[1]
        modes._check_capacitance(band_matrices.bands)
        modes._check_capacitance(NetworkBands.stack([band_matrices.bands]))


class TestColumnSignChanges:
    """The all-columns count against the 1-D ``sign_changes``."""

    @pytest.mark.parametrize("zeros", [0.0, 0.05, 0.6])
    def test_matches_per_column_count(self, zeros):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, k = rng.integers(0, 12), rng.integers(0, 8)
            a = rng.normal(size=(m, k))
            a[rng.random((m, k)) < zeros] = 0.0
            if k and m > 2:
                a[:2, 0] = 0.0                  # leading zeros
                a[-2:, -1] = 0.0                # trailing zeros
            got = _column_sign_changes(a)
            assert got.shape == (k,)
            assert np.issubdtype(got.dtype, np.integer)
            assert got.tolist() == [sign_changes(a[:, i]) for i in range(k)]

    def test_zero_runs_and_empty_columns(self):
        a = np.array([[0.0, 0.0, 1.0],
                      [2.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0],
                      [-1.0, 0.0, -5e-324],
                      [0.0, 0.0, 3.0]])
        assert _column_sign_changes(a).tolist() == [1, 0, 2]

    def test_band_device_profiles(self, band_matrices):
        ms = solve_modes(band_matrices)
        v = ms.profiles
        assert _column_sign_changes(v).tolist() == [
            sign_changes(v[:, i]) for i in range(v.shape[1])]


def _spy_guarded_pivots(monkeypatch) -> list:
    """The all-zero rows of b2 (the cut edges) of each guarded block rerun
    of ``sturm_count`` from now on."""
    calls, pivots = [], modes._pivots

    def spy(d, b2, pivmin=None):
        if pivmin is not None:
            calls.append(tuple(np.flatnonzero(~b2.reshape(len(b2), -1).any(axis=1))))
        pivots(d, b2, pivmin)

    monkeypatch.setattr(modes, "_pivots", spy)
    return calls


class TestSturmCount:
    @pytest.mark.parametrize("end_caps", [False, True])
    def test_matches_dense_count_oracle(self, end_caps):
        rng = np.random.default_rng(5 if end_caps else 4)
        for _ in range(6):
            spec = make_band_edge_spec(int(rng.integers(1, 60)),
                                       int(rng.integers(2, 80)))
            spec = apply_disorder(spec, 0.25, int(rng.integers(1000)))
            if end_caps:
                spec = dataclasses.replace(
                    spec, c_end_left=spec.c_left * 10 ** rng.uniform(-2, 1),
                    c_end_right=spec.c_left * 10 ** rng.uniform(-2, 1))
            cap, inv_ind = stamped_matrices(spec)
            evals = pencil_eigenvalues(cap, inv_ind)
            # every count from 0 to n, at shifts well clear of the eigenvalues
            mids = 0.5 * (evals[1:] + evals[:-1])
            clear = np.diff(evals) > 1e-9 * evals[-1]
            random = evals[-1] * 10 ** rng.uniform(-8, 0.5, 40)
            random = random[np.min(np.abs(random[:, None] - evals), axis=1)
                            > 1e-9 * evals[-1]]
            lam = np.concatenate([[-evals[-1]], mids[clear], random,
                                  [2 * evals[-1]]])
            npt.assert_array_equal(sturm_count(network_bands(spec), lam),
                                   dense_count(cap, inv_ind, lam))

    def test_zero_pivot_counts_as_negative(self):
        # K - lam C = diag(-1, 0, 1) at lam = 1: the zero pivot is replaced
        # by -pivmin as in dstebz, so an eigenvalue equal to the shift counts
        bands = NetworkBands(k_diag=np.array([0.0, 1.0, 2.0]), k_off=np.zeros(2),
                             c_diag=np.ones(3), c_off=np.zeros(2))
        npt.assert_array_equal(sturm_count(bands, [0.5, 1.0, 1.5]), [1, 2, 2])

    def test_leading_axes_broadcast(self, band_spec):
        stack = NetworkBands.stack([network_bands(apply_disorder(band_spec, 0.05, s))
                                    for s in range(3)])
        lam = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]) * OMEGA_IR ** 2
        counts = sturm_count(stack, lam)
        assert counts.shape == (3, 2)
        for s in range(3):
            npt.assert_array_equal(counts[s], sturm_count(self._device(stack, s), lam[s]))

    @staticmethod
    def _random_bands(rng, shape) -> NetworkBands:
        n = shape[-1]
        return NetworkBands(k_diag=rng.normal(size=shape),
                            k_off=rng.normal(size=shape[:-1] + (n - 1,)),
                            c_diag=rng.uniform(0.5, 2.0, shape),
                            c_off=0.2 * rng.normal(size=shape[:-1] + (n - 1,)))

    @staticmethod
    def _device(bands, s) -> NetworkBands:
        return NetworkBands(bands.k_diag[s], bands.k_off[s], bands.c_diag[s],
                            bands.c_off[s])

    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_matches_scalar_oracle_per_device(self, n):
        rng = np.random.default_rng(n)
        bands = self._random_bands(rng, (3, n))
        lam = 3.0 * rng.normal(size=(3, 40))
        counts = sturm_count(bands, lam)
        for s in range(3):
            npt.assert_array_equal(counts[s], sturm_count_reference(
                self._device(bands, s), lam[s]))

    def test_blocks_match_scalar_oracle(self):
        # so many shifts that a block holds 5 nodes: 17 nodes take blocks
        # of 5, 5, 5 and 2
        rng = np.random.default_rng(7)
        lam = 3.0 * rng.normal(size=modes._BLOCK_VALUES // 5)
        assert modes._BLOCK_VALUES // len(lam) == 5
        bands = self._random_bands(rng, (17,))
        npt.assert_array_equal(sturm_count(bands, lam),
                               sturm_count_reference(bands, lam))

    @pytest.mark.parametrize("devices,shifts", [(50, 7), (5, 1)])
    def test_more_devices_than_shifts(self, devices, shifts):
        # the shift-major layout puts the devices on the inner axis
        rng = np.random.default_rng(devices)
        bands = self._random_bands(rng, (devices, 23))
        lam = 3.0 * rng.normal(size=(devices, shifts))
        counts = sturm_count(bands, lam)
        shared = sturm_count(bands, lam[0])     # one row of shifts for all
        assert counts.shape == shared.shape == (devices, shifts)
        for s in range(devices):
            device = self._device(bands, s)
            npt.assert_array_equal(counts[s], sturm_count_reference(device, lam[s]))
            npt.assert_array_equal(shared[s], sturm_count_reference(device, lam[0]))

    # the zero pivot sits first, in the middle and last in the third of the
    # blocks of 5 nodes (nodes 10-14); cutting the edge after it too makes
    # the unguarded pivot after it 0/0
    @pytest.mark.parametrize("cut", [(9,), (9, 10), (11, 12), (13,)])
    def test_zero_pivot_reruns_only_its_block(self, monkeypatch, cut):
        # node j = cut[0] + 1, cut from node j - 1, has a_j = 0 - 0 * c_j = 0
        # at the shift 0, column 50 of 400; on one device, and on the last
        # device of a stack of 3 whose devices all have the edges cut
        rng = np.random.default_rng(8)
        j = cut[0] + 1
        guarded = _spy_guarded_pivots(monkeypatch)
        for lead, last in (((), ()), ((3,), (-1,))):
            bands = self._random_bands(rng, lead + (17,))
            bands.k_off[..., list(cut)] = bands.c_off[..., list(cut)] = 0.0
            bands.k_diag[last + (j,)] = 0.0
            lam = 3.0 * rng.normal(size=lead + (400,))
            lam[last + (50,)] = 0.0
            monkeypatch.setattr(modes, "_BLOCK_VALUES", 5 * lam.size)
            guarded.clear()
            counts = sturm_count(bands, lam)
            # one rerun, of the third block: its b2 rows are edges 9-13
            assert guarded == [tuple(e - 9 for e in cut if e <= 13)]
            for s in np.ndindex(lead):
                npt.assert_array_equal(counts[s], sturm_count_reference(
                    self._device(bands, s), lam[s]))

    def test_fig2_solve_needs_no_guarded_rerun(self, monkeypatch):
        # the solve takes its counts in closed form; band_edges takes them
        # from sturm_count's blocked sweep on the same bands (over the ladder
        # rows only, once the strip is split off)
        guarded = _spy_guarded_pivots(monkeypatch)
        cfg = parse_config(resources.files("metaline") / "configs" / "fig2.cfg")
        mat = build_matrices(cfg.circuit_spec())
        assert len(solve_modes(mat, cfg.freq_window()))
        edge, _ = band_edges(NetworkBands.stack([mat.bands]), cfg.freq_window(),
                             ULTRASTRONG_BAND)
        assert np.isfinite(edge).all()
        assert guarded == []


@pytest.fixture(scope="module")
def disordered_devices():
    """Fifty disordered dim-201 devices and their full spectra, solved once
    on the default path (dense eigh: they are off the two-segment pattern).
    A window only filters a dense solve, so each window's reference is the
    full spectrum inside it."""
    base = make_band_edge_spec(n_left=80, n_right=120)
    specs = [apply_disorder(base, 0.05, seed) for seed in range(1, 51)]
    return specs, [solve_modes(build_matrices(s)).frequencies for s in specs]


@pytest.fixture(scope="module")
def ensemble_devices(band_spec):
    """The ensemble benchmark workload's stack (the dim-501 bath device at
    sigma 0.02, disorder seeds 1-50) and each device's full spectrum."""
    specs = [apply_disorder(band_spec, 0.02, seed) for seed in range(1, 51)]
    return (NetworkBands.stack([network_bands(s) for s in specs]),
            [solve_modes(build_matrices(s)).frequencies for s in specs])


def _edge_and_count(f, window, band):
    f = f[(f >= window[0]) & (f <= window[1])]
    edge = f[0] if len(f) else np.nan
    return edge, int(np.sum((f >= band[0]) & (f <= band[1])))


def _spy_counts(monkeypatch) -> list:
    """The path of every count from now on: "plain" for each ``sturm_count``
    call, "strip" for each strip counted in closed form (``_advance``), and
    "narrow" as each multisection round starts."""
    events = []
    for name, event in (("sturm_count", "plain"), ("_advance", "strip"),
                        ("_narrow", "narrow")):
        def spy(*args, step=getattr(modes, name), event=event, **kwargs):
            events.append(event)
            return step(*args, **kwargs)
        monkeypatch.setattr(modes, name, spy)
    return events


def _plain_sweep(monkeypatch) -> None:
    """Sends every later ``band_edges`` count to ``sturm_count``: no stack
    shares a strip."""
    monkeypatch.setattr(modes, "_strip_start", lambda bands: bands.k_diag.shape[-1] - 1)


class TestBandEdges:
    @pytest.mark.parametrize("window,band", [
        (WINDOW, ULTRASTRONG_BAND),
        ((0.0, TWO_PI * 13e9), (0.0, TWO_PI * 5.039e9)),        # gauge rule
        ((TWO_PI * 4.5e9, TWO_PI * 4.8e9), ULTRASTRONG_BAND),   # band cut by window
    ])
    def test_matches_dense_over_50_seeds(self, disordered_devices, window, band):
        specs, spectra = disordered_devices
        edges, counts = band_edges(
            NetworkBands.stack([network_bands(s) for s in specs]), window, band)
        dense = np.array([_edge_and_count(f, window, band) for f in spectra])
        npt.assert_array_equal(counts, dense[:, 1])
        npt.assert_allclose(edges, dense[:, 0], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("lo", [WINDOW[0], 0.0],
                             ids=["window-from-3.8GHz", "window-from-0"])
    def test_one_plain_count_then_split_rounds(self, monkeypatch, ensemble_devices, lo):
        # the gauge modes come from K's structure, not from a count.  Every
        # count, the first one of the window's and band's ends included,
        # counts the strip in closed form, but from 0 Hz, where the strip is
        # evanescent at the first count's lowest shift: that one count takes
        # the plain sweep
        stack, spectra = ensemble_devices
        events = _spy_counts(monkeypatch)
        window = (lo, WINDOW[1])
        edges, counts = band_edges(stack, window, ULTRASTRONG_BAND)
        rounds = events.count("narrow")
        assert rounds > 10
        first = "plain" if lo == 0.0 else "strip"
        assert events == [first] + ["narrow", "strip"] * rounds
        dense = np.array([_edge_and_count(f, window, ULTRASTRONG_BAND) for f in spectra])
        npt.assert_array_equal(counts, dense[:, 1])
        npt.assert_allclose(edges, dense[:, 0], rtol=1e-10, atol=0)

    @staticmethod
    def _split_matches_reference(events, rng, specs, shifts):
        """The split count of the stack of ``specs`` at up to ``shifts``
        midpoints between eigenvalues and ``shifts`` random shifts, all in
        the strip's passband and clear of every eigenvalue, is the guarded
        recurrence's count, and each call counts the strip in closed form
        (``events`` from ``_spy_counts``)."""
        stack = NetworkBands.stack([network_bands(s) for s in specs])
        split = modes._StackCount(stack)
        assert split.strip is not None and split.strip.steps == specs[0].n_right
        strip = split.strip
        cutoff = (2.0 * strip.k_o + strip.k_d) / (strip.c_d - 2.0 * strip.c_o)     # q = 0
        events.clear()
        for s, device in enumerate(specs):
            evals = pencil_eigenvalues(*stamped_matrices(device))
            mids = 0.5 * (evals[1:] + evals[:-1])
            mids = mids[mids < cutoff]
            lam = np.concatenate([rng.choice(mids, min(shifts, len(mids)), replace=False),
                                  cutoff * 10 ** rng.uniform(-6, 0, shifts)])
            lam = lam[(lam < cutoff) & (np.min(np.abs(lam[:, None] - evals), axis=1)
                                        > 1e-9 * evals[-1])]
            npt.assert_array_equal(split(lam)[s],
                                   sturm_count_reference(network_bands(device), lam))
        assert events == ["strip"] * len(specs)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_split_count_matches_reference(self, monkeypatch, name):
        # disordered stacks of each bundled design
        spec = parse_config(resources.files("metaline") / "configs" / f"{name}.cfg"
                            ).circuit_spec()
        rng = np.random.default_rng(int(name[-1]))
        self._split_matches_reference(_spy_counts(monkeypatch), rng, [
            apply_disorder(spec, sigma, int(rng.integers(1000))) for sigma in (0.02, 0.05, 0.2)],
            40)

    @pytest.mark.parametrize("end_caps", [False, True])
    def test_split_count_matches_reference_at_random_sizes(self, monkeypatch, end_caps):
        # one-cell ladders and two-cell strips included, and end caps, which
        # change the last row's (h_k, h_c)
        rng = np.random.default_rng(12 if end_caps else 13)
        events = _spy_counts(monkeypatch)
        sizes = [(1, 2), (1, 40), (30, 2)] + [tuple(rng.integers(1, 80, 2) + [0, 1])
                                              for _ in range(3)]
        for n_left, n_right in sizes:
            spec = make_band_edge_spec(int(n_left), int(n_right))
            if end_caps:
                spec = dataclasses.replace(
                    spec, c_end_left=spec.c_left * 10 ** rng.uniform(-2, 1),
                    c_end_right=spec.c_left * 10 ** rng.uniform(-2, 1))
            self._split_matches_reference(events, rng, [
                apply_disorder(spec, 0.25, int(rng.integers(1000))) for _ in range(3)], 20)

    @pytest.mark.parametrize("lo,rtol", [(WINDOW[0], 8 * np.finfo(float).eps), (0.0, 1e-11)],
                             ids=["window-from-3.8GHz", "window-from-0"])
    def test_edges_match_plain_sweep(self, monkeypatch, ensemble_devices, lo, rtol):
        # the two counts round differently only within a few ulps of a root,
        # and from 0 Hz about the lowest kept mode (0.93 GHz): the plain
        # sweep leaves it up to 3.5e-12 from the 40-digit root, the split
        # count within 7e-16 (test_lowest_mode_from_0_is_the_exact_root)
        stack, _ = ensemble_devices
        window = (lo, WINDOW[1])
        edges, counts = band_edges(stack, window, ULTRASTRONG_BAND)
        _plain_sweep(monkeypatch)
        plain_edges, plain_counts = band_edges(stack, window, ULTRASTRONG_BAND)
        npt.assert_array_equal(counts, plain_counts)
        npt.assert_allclose(edges, plain_edges, rtol=rtol, atol=0)

    def test_lowest_mode_from_0_is_the_exact_root(self, ensemble_devices):
        # the edge from 0 Hz lies within 1e-14 of the 40-digit root, where
        # the plain sweep's lay up to 3.5e-12 from it
        import mpmath

        stack, _ = ensemble_devices
        edges, _ = band_edges(stack, (0.0, WINDOW[1]), ULTRASTRONG_BAND)
        for s in range(3):
            bands, lam = TestSturmCount._device(stack, s), edges[s] ** 2
            bracket = (lam * (1 - 1e-9), lam * (1 + 1e-9))
            root = mp_pencil_eigenvalue(bands, int(sturm_count_reference(bands, bracket[:1])[0]),
                                        bracket=bracket)
            assert abs(edges[s] / float(mpmath.sqrt(root)) - 1) < 1e-14

    @pytest.mark.parametrize("case", ["unshared-strip", "evanescent-window"])
    def test_plain_sweep_without_a_passband_strip(self, monkeypatch, band_spec, case):
        # a stack whose devices do not share the strip (device 2's at 55
        # ohm), and a window above the strip's cutoff (382 GHz), where the
        # strip is evanescent at every shift: every count is the plain sweep's
        specs = [apply_disorder(band_spec, 0.02, seed) for seed in range(1, 6)]
        window = WINDOW
        if case == "unshared-strip":
            c_r, l_r = rhtl_from_impedance(55.0, 0.03 * 4e9)
            specs[2] = dataclasses.replace(specs[2], c_right_per_len=c_r, l_right_per_len=l_r)
        else:
            window = (TWO_PI * 400e9, TWO_PI * 1000e9)
        stack = NetworkBands.stack([network_bands(s) for s in specs])
        events = _spy_counts(monkeypatch)
        edges, counts = band_edges(stack, window, window)
        assert "strip" not in events and events.count("plain") > 10
        _plain_sweep(monkeypatch)
        plain_edges, plain_counts = band_edges(stack, window, window)
        npt.assert_array_equal(edges, plain_edges)
        npt.assert_array_equal(counts, plain_counts)
        dense = np.array([_edge_and_count(solve_modes(build_matrices(s)).frequencies,
                                          window, window) for s in specs])
        npt.assert_array_equal(counts, dense[:, 1])
        npt.assert_allclose(edges, dense[:, 0], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("k_off", [False, True], ids=["ladder", "ladder-with-k_off"])
    def test_stack_count_matches_sturm_count(self, monkeypatch, ensemble_devices, k_off):
        # the t = d/lam sweep of the ladder rows, at 10^k for k = -300..30
        # one shift per call (the tiny ones, where k/lam overflows, take the
        # plain sweep) and at random shifts in the strip's passband; a stack
        # whose ladder rows carry k_off counts by the plain sweep alone
        stack, _ = ensemble_devices
        strip = modes._StackCount(stack).strip
        if k_off:
            ko = stack.k_off.copy()
            ko[:, 1:100] = -1e-3 * stack.k_diag[:, 1:100]
            stack = dataclasses.replace(stack, k_off=ko)
        count = modes._StackCount(stack)
        cutoff = (2.0 * strip.k_o + strip.k_d) / (strip.c_d - 2.0 * strip.c_o)     # q = 0
        rng = np.random.default_rng(34)
        shifts = [np.full((len(stack.k_diag), 1), 10.0 ** k) for k in range(-300, 31)]
        shifts += [cutoff * 10.0 ** rng.uniform(-8, 0, (len(stack.k_diag), 7)) for _ in range(20)]
        events = _spy_counts(monkeypatch)
        for lam in shifts:
            npt.assert_array_equal(count(lam), modes.sturm_count(stack, lam))
        split = events.count("strip")
        assert split == 0 if k_off else split > 300

    def test_brackets_start_at_tightest_counted_shifts(self, monkeypatch, ensemble_devices):
        # the first multisection round starts each device that has a mode at
        # the highest of the window's and band's ends counted at or below
        # its index and the lowest counted above; the others keep the window
        stack, _ = ensemble_devices
        bounds = np.square([*WINDOW, *ULTRASTRONG_BAND])
        starts = []

        def narrow(count, index, lo, hi, step=modes._narrow):
            starts.append((lo.copy(), hi.copy()))
            return step(count, index, lo, hi)
        monkeypatch.setattr(modes, "_narrow", narrow)
        band_edges(stack, WINDOW, ULTRASTRONG_BAND)
        lo, hi = starts[0]
        assert set(lo) <= set(bounds) and set(hi) <= set(bounds)
        for s in range(len(lo)):
            counts = sturm_count_reference(TestSturmCount._device(stack, s), bounds)
            index = max(counts[0], 1)       # one gauge mode
            if index < counts[1]:
                assert lo[s] == bounds[counts <= index].max()
                assert hi[s] == bounds[counts > index].min()
            else:
                assert (lo[s], hi[s]) == tuple(bounds[:2])
        assert (lo > bounds[0]).any() or (hi < bounds[1]).any()

    @pytest.mark.parametrize("lo,ulps", [(WINDOW[0], 1), (0.0, 3), (TWO_PI * 4.5e9, 1)],
                             ids=["window-from-3.8GHz", "window-from-0", "window-4.5-4.8GHz"])
    def test_edges_within_ulps_of_exact_root(self, ensemble_devices, lo, ulps):
        # the edges of 12 devices against the 40-digit root, no farther than
        # the edges from window-wide brackets and plain pivots were: 1, 3
        # and 1 ulps.  The index is the lowest kept mode's, above one gauge
        # mode (the plain count near the mode from 0 is not exact)
        import mpmath

        stack, _ = ensemble_devices
        window = (lo, WINDOW[1] if lo != TWO_PI * 4.5e9 else TWO_PI * 4.8e9)
        edges, _ = band_edges(stack, window, ULTRASTRONG_BAND)
        eps = np.finfo(float).eps
        for s in range(12):
            bands, lam = TestSturmCount._device(stack, s), edges[s] ** 2
            index = max(1, int(sturm_count_reference(bands, [lo ** 2])[0]))
            root = mp_pencil_eigenvalue(bands, index,
                                        bracket=(lam * (1 - 64 * eps), lam * (1 + 64 * eps)))
            exact = float(mpmath.sqrt(root))
            assert abs(edges[s] - exact) <= ulps * np.spacing(exact)

    def test_ensemble_stack_narrows_on_split_count(self, monkeypatch, ensemble_devices):
        # the first count (the window's and band's ends) and every
        # multisection round after it count the strip in closed form
        stack, _ = ensemble_devices
        events = _spy_counts(monkeypatch)
        band_edges(stack, WINDOW, ULTRASTRONG_BAND)
        rounds = events.count("narrow")
        assert rounds > 10
        assert events == ["strip"] + ["narrow", "strip"] * rounds

    def test_empty_window_is_nan(self, band_spec):
        bands = NetworkBands.stack([network_bands(band_spec)])
        far = (TWO_PI * 1000e9, TWO_PI * 1001e9)
        edges, counts = band_edges(bands, far, far)
        assert np.isnan(edges[0]) and counts[0] == 0

    @pytest.mark.parametrize("factor", [1 - 1e-4, 1 + 1e-4])
    def test_gauge_threshold_edge_case(self, factor):
        # a mode on either side of 1e-6 of the largest frequency is kept:
        # only node 0's zero row of K makes a gauge mode
        k = np.array([0.0, 1e-12 * factor, 1.0])
        bands = NetworkBands(k_diag=k, k_off=np.zeros(2), c_diag=np.ones(3),
                             c_off=np.zeros(2))
        window = (0.0, 10.0)
        edges, counts = band_edges(NetworkBands.stack([bands]), window, window)
        dense = solve_modes(_wrap(np.eye(3), np.diag(k)), window).frequencies
        assert counts[0] == len(dense) == 2
        npt.assert_allclose(edges[0], dense[0], rtol=1e-12)
        npt.assert_allclose(dense, np.sqrt(k[1:]), rtol=1e-12)

    @pytest.mark.parametrize("shifts", [1, 7, 31])
    def test_bracket_closes_on_lowest_kept_mode(self, monkeypatch, band_spec, shifts):
        # edge^2 (1 -+ 4 eps) straddles the index of the lowest kept mode,
        # whatever the multisection width; that mode is the first above the
        # window's lower end, as the gauge modes lie far below it
        monkeypatch.setattr(modes, "_SHIFTS", shifts)
        specs = [apply_disorder(band_spec, 0.02, seed) for seed in range(1, 51)]
        edges, _ = band_edges(NetworkBands.stack([network_bands(s) for s in specs]),
                              WINDOW, ULTRASTRONG_BAND)
        eps = np.finfo(float).eps
        for spec, edge in zip(specs, edges):
            below, first, above = sturm_count_reference(
                network_bands(spec),
                [edge ** 2 * (1 - 4 * eps), WINDOW[0] ** 2, edge ** 2 * (1 + 4 * eps)])
            assert below <= first < above

    def test_indefinite_capacitance_names_device(self, band_spec):
        stack = NetworkBands.stack([network_bands(apply_disorder(band_spec, 0.02, s))
                                    for s in range(1, 4)])
        stack.c_off[1, 7] = 2.0 * stack.c_diag[1, 7]     # indefinite in device 1
        with pytest.raises(IllConditionedCircuitError, match="device 1 .*pivot") as err:
            band_edges(stack, WINDOW, ULTRASTRONG_BAND)
        # the pivot is the one solve_modes names for that device alone
        device = build_matrices(apply_disorder(band_spec, 0.02, 2))
        device = dataclasses.replace(device, bands=NetworkBands(
            *(getattr(stack, name)[1] for name in ("k_diag", "k_off", "c_diag", "c_off"))))
        with pytest.raises(IllConditionedCircuitError) as alone:
            solve_modes(device)
        assert str(err.value).replace(" of device 1", "") == str(alone.value)

    def test_rejects_nonfinite_input(self, band_spec):
        bands = NetworkBands.stack([network_bands(band_spec)])
        with pytest.raises(ValueError):
            band_edges(bands, (np.nan, 1e11), ULTRASTRONG_BAND)


class TestVoltageProfile:
    """Node-voltage shapes of the modes, omega_n times their flux profiles."""

    @staticmethod
    def _voltage(modes, n):
        return modes.frequencies[n] * modes.profiles[:, n]

    def test_real_and_interface_nonnegative(self, band_modes):
        v = self._voltage(band_modes, 0)
        assert np.isrealobj(v)
        assert v[band_modes.interface_index] >= 0

    def test_strip_profiles_nearly_identical(self, band_modes):
        iface = band_modes.interface_index
        cols = [self._voltage(band_modes, n)[iface:] for n in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                cos = cols[i] @ cols[j] / (np.linalg.norm(cols[i])
                                           * np.linalg.norm(cols[j]))
                assert cos >= 0.99

    def test_ladder_nodes_differ_by_one_sign_change(self, band_modes):
        iface = band_modes.interface_index
        counts = [sign_changes(band_modes.profiles[:iface, n]) for n in range(3)]
        diffs = np.diff(counts)
        assert np.all(np.abs(diffs) == 1)
        assert len(set(np.sign(diffs))) == 1   # monotone: one node per step


class TestCurrentAverage:
    def test_footprint_on_node_vs_antinode(self, band_spec, band_modes):
        n = int(np.argmin(np.abs(band_modes.frequencies - TWO_PI * 4.579e9)))
        anti = find_current_antinode(band_modes, band_spec, n)
        v_anti = current_average(band_modes, band_spec, n, anti - 0.25e-3, 0.5e-3)
        # locate a current node: sign change of the branch currents
        iface = band_modes.interface_index
        flux = band_modes.profiles[iface:, n]
        cur = flux[:-1] - flux[1:]
        mids = (np.arange(band_spec.n_right) + 0.5) * band_spec.dx_right
        flips = np.where(np.sign(cur[1:]) != np.sign(cur[:-1]))[0]
        node = 0.5 * (mids[flips[len(flips) // 2]] + mids[flips[len(flips) // 2] + 1])
        v_node = current_average(band_modes, band_spec, n, node - 0.25e-3, 0.5e-3)
        assert v_node <= 0.05 * v_anti

    def test_zero_extent_is_pointwise(self, band_spec, band_modes):
        n = 40
        x0 = 0.011
        point = current_average(band_modes, band_spec, n, x0, 0.0)
        tiny = current_average(band_modes, band_spec, n, x0, 1e-6)
        npt.assert_allclose(tiny, point, rtol=1e-4)

    def test_uniform_current_toy_mode(self, band_spec):
        mat = build_matrices(band_spec)
        grad = 3.7e-7
        profile = np.where(mat.node_positions >= 0,
                           1e-3 - grad * mat.node_positions, 1e-3)
        ms = ModeSet(frequencies=np.array([OMEGA_IR]),
                     profiles=profile[:, None],
                     node_positions=mat.node_positions,
                     interface_index=mat.interface_index)
        expected = grad / band_spec.l_right_per_len
        for x0, ext in [(0.001, 0.004), (0.02, 0.0003), (0.0, 0.03)]:
            strip = profile[mat.interface_index:]
            npt.assert_allclose(abs(footprint_weights(band_spec, x0, ext) @ strip),
                                expected, rtol=1e-9)
            npt.assert_allclose(current_average(ms, band_spec, 0, x0, ext),
                                expected, rtol=1e-9)

    def test_footprint_outside_strip(self, band_spec):
        for x0 in (0.0299, -1e-4):
            with pytest.raises(ValueError, match="outside"):
                footprint_weights(band_spec, x0, 0.5e-3)
        with pytest.raises(ValueError, match="positive"):
            footprint_weights(band_spec, 0.01, 0.0)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_weights_product_matches_loop(self, name):
        """|w . flux| over all modes equals the per-mode average on every
        bundled config."""
        with resources.as_file(resources.files("metaline") / "configs"
                               / f"{name}.cfg") as path:
            cfg = parse_config(path)
        spec = cfg.circuit_spec()
        ms = solve_modes(build_matrices(spec), cfg.freq_window())
        extent = cfg["qubit.extent_m"]
        x0 = cfg["qubit.position_m"]
        if x0 is None:
            x0 = footprint_at_antinode(ms, spec, cfg["qubit.target_mode_ghz"] * GHZ,
                                       extent)
        product = np.abs(footprint_weights(spec, x0, extent)
                         @ ms.profiles[ms.interface_index:, :])
        loop = [current_average(ms, spec, n, x0, extent) for n in range(len(ms))]
        npt.assert_allclose(product, loop, rtol=1e-13, atol=0)


class TestCouplingSpectrum:
    def test_zero_global_coupling(self, band_spec, band_modes, band_qubit):
        silent = dataclasses.replace(band_qubit, g_global=0.0)
        cs = coupling_spectrum(band_modes, band_spec, silent)
        assert np.all(cs.g == 0)
        assert cs.relative_profile.max() == 1.0

    def test_scaling_leaves_profile_and_argmax(self, band_spec, band_modes, band_qubit):
        cs1 = coupling_spectrum(band_modes, band_spec, band_qubit)
        doubled = dataclasses.replace(band_qubit, g_global=2 * band_qubit.g_global)
        cs2 = coupling_spectrum(band_modes, band_spec, doubled)
        npt.assert_allclose(cs2.relative_profile, cs1.relative_profile, rtol=1e-12)
        npt.assert_allclose(cs2.g, 2 * cs1.g, rtol=1e-12)
        assert cs1.relative_profile.argmax() == cs2.relative_profile.argmax()

    def test_edge_modes_couple_nearly_equally(self, band_couplings):
        g = band_couplings.g[:11]
        rel_steps = np.abs(np.diff(g)) / g[:-1]
        assert np.all(rel_steps <= 0.05)

    def test_deep_minimum_above_the_peak(self, band_couplings):
        in_band = band_couplings.frequencies <= 3 * OMEGA_IR
        prof = band_couplings.relative_profile[in_band]
        freqs = band_couplings.frequencies[in_band]
        assert prof.min() <= 0.05 * prof.max()
        assert freqs[prof.argmin()] > freqs[prof.argmax()]

    def test_ultrastrong_band_population(self, band_couplings):
        # tuned so the mode nearest 4.579 GHz couples at 460 MHz
        w = band_couplings.frequencies
        n_t = int(np.argmin(np.abs(w - TWO_PI * 4.579e9)))
        npt.assert_allclose(band_couplings.g[n_t], TWO_PI * 0.46e9, rtol=1e-9)
        inwin = (w >= TWO_PI * 4.119e9) & (w <= TWO_PI * 5.039e9)
        g_win = band_couplings.g[inwin]
        lo, hi = g_win.min() * 0.9, g_win.max() * 1.1
        assert np.sum((g_win >= lo) & (g_win <= hi)) >= 45
        assert np.all(g_win >= TWO_PI * 0.15e9)

    def test_spatial_normalization_variant(self, band_spec, band_modes, band_qubit):
        cs = coupling_spectrum(band_modes, band_spec, band_qubit,
                               normalization="spatial")
        assert cs.relative_profile.max() == 1.0
        # bare averages rise with frequency; the band edge is suppressed
        assert cs.relative_profile[0] < 0.01

    def test_empty_mode_set_rejected(self, band_spec, band_matrices, band_qubit):
        empty = solve_modes(band_matrices, (1e15, 2e15))
        with pytest.raises(ValueError, match="empty"):
            coupling_spectrum(empty, band_spec, band_qubit)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            CouplingSpectrum(frequencies=np.ones(3), relative_profile=np.ones(2),
                             g=np.ones(3))

    @pytest.mark.parametrize("kw", [dict(delta0=0.0), dict(extent=0.0),
                                    dict(g_global=-1.0)])
    def test_qubit_spec_validation(self, kw):
        base = dict(delta0=1.0, position=0.01, extent=5e-4, g_global=0.1)
        with pytest.raises(ValueError):
            QubitSpec(**{**base, **kw})



class TestDomNumeric:
    def _synthetic(self, freqs):
        freqs = np.asarray(freqs, dtype=float)
        return ModeSet(frequencies=freqs, profiles=np.eye(len(freqs)),
                       node_positions=np.linspace(0, 1, len(freqs)),
                       interface_index=0)

    def test_uniform_comb(self):
        s = 2 * np.pi * 1e8
        ms = self._synthetic((np.arange(200) + 0.5) * s)
        npt.assert_allclose(dom_numeric(ms), 1.0 / s, rtol=1e-12)

    def test_doubling_cells_doubles_density(self, band_modes):
        big = make_band_edge_spec(n_left=400)
        ms2 = solve_modes(build_matrices(big), WINDOW)
        at = TWO_PI * 6e9
        d1 = np.interp(at, band_modes.frequencies, dom_numeric(band_modes))
        d2 = np.interp(at, ms2.frequencies, dom_numeric(ms2))
        assert 1.8 < d2 / d1 < 2.2

    def test_input_validation(self):
        for freqs in ([], [1.0]):
            with pytest.raises(ValueError, match="at least 2 modes"):
                dom_numeric(self._synthetic(freqs))
