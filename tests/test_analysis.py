"""Reductions, fidelities, phase-space pictures, and ensemble plumbing."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from conftest import (
    cat_state,
    ensemble_average,
    excited_state_evolved,
    fock_state,
    partial_trace,
    random_coeffs,
)
from dicke2p import analysis, scans
from dicke2p.analysis import DensityMatrix, fidelity, sample_rng, wigner
from dicke2p.dynamics import revival_time
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    bell_state,
    coherent_state,
    hermite_sum,
    tensor,
)

VACUUM_PEAK = 0.6366197723675814  # 2/pi
# Oracle checks compare point by point, so their sparse grids need not resolve fringes.
POINTWISE = pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")


def wigner_oracle(rho, beta_re, beta_im):
    """Closed form W(beta) = (2/pi) sum_mn rho_mn <n|D(2 beta) Pi|m>, with
    <n|D(2 beta) Pi|m> = (-1)^m sqrt(m!/n!) (2 beta)^(n-m) e^(-2|beta|^2)
    L_m^(n-m)(4|beta|^2) for n >= m and the rest by Hermiticity."""
    beta = beta_re[None, :] + 1j * beta_im[:, None]
    r2 = 4.0 * np.abs(beta) ** 2
    log_2b = np.log(np.maximum(2.0 * np.abs(beta), 1e-300))
    phase = np.exp(1j * np.angle(beta))
    total = np.zeros(beta.shape)
    for m in range(rho.shape[0]):
        for n in range(m, rho.shape[0]):
            k = n - m
            mag = np.exp(k * log_2b + 0.5 * (gammaln(m + 1) - gammaln(n + 1)) - 0.5 * r2)
            elem = (-1) ** m * mag * phase**k * eval_genlaguerre(m, k, r2)
            total += (1.0 if k == 0 else 2.0) * np.real(rho[m, n] * elem)
    return (2.0 / math.pi) * total


def entangled_pair_state(cutoff):
    """(|gg>|0> + |ee>|2>)/sqrt(2): maximally mixed on either side."""
    amps = np.zeros(4 * cutoff.dim, dtype=np.complex128)
    amps[0] = 1 / math.sqrt(2)
    amps[3 * cutoff.dim + 2] = 1 / math.sqrt(2)
    return StateVector(amps, (2, 2, cutoff.dim))


class TestFidelity:
    def test_pure_overlap(self):
        a = bell_state("psi+")
        b = bell_state("psi-")
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_density_matrix_expectation(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        assert fidelity(rho, bell_state("phi+", 0.2)) == pytest.approx(0.25)

    def test_space_mismatch_rejected(self, small_cutoff):
        with pytest.raises(ValueError):
            fidelity(bell_state("psi+"), fock_state(0, small_cutoff))

    def test_bare_array_rejected(self):
        with pytest.raises(TypeError, match="StateVector or DensityMatrix"):
            fidelity(np.ones(4) / 2, bell_state("psi+"))


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex), (2, 2))

    def test_outer_product_checks_the_norm(self):
        v = bell_state("psi+").amplitudes * (1.0 + 1e-6)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.outer(v, (2, 2))
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix.outer(bell_state("psi+").amplitudes[:3], (2, 2))

    def test_purity_of_pure_state(self):
        rho = DensityMatrix.outer(bell_state("psi+").amplitudes, (2, 2))
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)


class TestPartialTrace:
    def test_product_state_stays_pure(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), coherent_state(1.2, small_cutoff))
        rho_at = partial_trace(psi, keep="atoms")
        assert rho_at.matrix.shape == (4, 4)
        purity = np.trace(rho_at.matrix @ rho_at.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho_at, mixed_coeffs.to_state()) == pytest.approx(1.0, abs=1e-12)

    def test_entangled_state_mixes_both_sides(self, small_cutoff):
        psi = entangled_pair_state(small_cutoff)
        rho_at = partial_trace(psi, keep="atoms")
        np.testing.assert_allclose(np.diag(rho_at.matrix).real, [0.5, 0, 0, 0.5], atol=1e-12)
        rho_f = partial_trace(psi, keep="field")
        assert rho_f.matrix.shape == (small_cutoff.dim,) * 2
        assert rho_f.matrix[0, 0].real == pytest.approx(0.5)
        assert rho_f.matrix[2, 2].real == pytest.approx(0.5)
        # coherences between the branches must vanish in both reductions
        assert abs(rho_at.matrix[0, 3]) < 1e-12
        assert abs(rho_f.matrix[0, 2]) < 1e-12

    def test_density_matrix_input(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), fock_state(1, small_cutoff))
        via_dm = partial_trace(DensityMatrix.outer(psi.amplitudes, psi.dims), keep="atoms")
        via_sv = partial_trace(psi, keep="atoms")
        np.testing.assert_allclose(via_dm.matrix, via_sv.matrix, atol=1e-12)

    @pytest.mark.parametrize("keep", ["atoms", "field"])
    def test_pure_state_reduction_runs_no_eigvalsh(self, small_cutoff, keep, monkeypatch):
        """M M^dag and M^T M* are positive by construction: the reduction of
        a state vector checks its trace only, and equals the fully checked
        density matrix."""
        coeffs = random_coeffs(np.random.default_rng(4))
        psi = tensor(coeffs.to_state(), coherent_state(1.2 - 0.4j, small_cutoff))
        m = psi.amplitudes.reshape(4, small_cutoff.dim)
        if keep == "atoms":
            checked = DensityMatrix(m @ m.conj().T, (2, 2))
        else:
            checked = DensityMatrix(m.T @ m.conj(), (small_cutoff.dim,))
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or [])
        rho = partial_trace(psi, keep=keep)
        assert not calls and rho.dims == checked.dims
        np.testing.assert_array_equal(rho.matrix, checked.matrix)
        assert not rho.matrix.flags.writeable

    def test_keep_label_guard(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), fock_state(0, small_cutoff))
        with pytest.raises(ValueError):
            partial_trace(psi, keep="cavity")


class TestWigner:
    def field_dm(self, state):
        return DensityMatrix.outer(state.amplitudes, state.dims)

    def test_vacuum_peak_and_norm(self, small_cutoff):
        axes = np.linspace(-4.0, 4.0, 161)
        grid = wigner(self.field_dm(fock_state(0, small_cutoff)), axes, axes)
        assert grid.values[80, 80] == pytest.approx(VACUUM_PEAK, rel=1e-9)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    def test_coherent_peak_follows_amplitude(self, small_cutoff):
        alpha = 1.0 + 0.5j
        axes = np.linspace(-4.0, 4.0, 161)
        grid = wigner(self.field_dm(coherent_state(alpha, small_cutoff)), axes, axes)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.beta_re[j] == pytest.approx(1.0, abs=0.06)
        assert grid.beta_im[i] == pytest.approx(0.5, abs=0.06)

    def test_parity_sign_at_origin(self, small_cutoff):
        axes = np.linspace(-0.1, 0.1, 3)
        even = wigner(self.field_dm(cat_state(1.4, "+", small_cutoff)), axes, axes)
        odd = wigner(self.field_dm(cat_state(1.4, "-", small_cutoff)), axes, axes)
        assert even.values[1, 1] > 0.5  # photon parity +1
        assert odd.values[1, 1] < -0.5  # photon parity -1

    def test_default_grid_covers_state(self, small_cutoff):
        grid = wigner(self.field_dm(coherent_state(1.5, small_cutoff)))
        assert grid.beta_re.size == 201
        assert grid.beta_re.max() == pytest.approx(math.sqrt(2.25) + 5.0)
        assert grid.integral() == pytest.approx(1.0, abs=1e-4)

    def test_coarse_grid_warns(self):
        cut = FockCutoff.for_mean_photon(36.0)
        rho = self.field_dm(cat_state(6.0, "+", cut))
        with pytest.warns(UserWarning, match="fringe"):
            wigner(rho, np.linspace(-8, 8, 9), np.linspace(-8, 8, 9))

    def test_coarse_descending_grid_warns(self):
        cut = FockCutoff.for_mean_photon(36.0)
        rho = self.field_dm(cat_state(6.0, "+", cut))
        with pytest.warns(UserWarning, match="fringe"):
            wigner(rho, np.linspace(8, -8, 9), np.linspace(8, -8, 9))

    def test_descending_axis_keeps_positive_integral(self, small_cutoff):
        axes = np.linspace(-4.0, 4.0, 161)
        grid = wigner(self.field_dm(coherent_state(0.5, small_cutoff)), axes[::-1], axes)
        assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    def test_integral_on_nonuniform_axes(self):
        # 0.2 steps on [-6, 0], then 200 points on [0.1, 6]: a rule that
        # takes the first step of each axis reads 22.9 here
        axis = np.concatenate([np.linspace(-6.0, 0.0, 31), np.linspace(0.1, 6.0, 200)])
        grid = wigner(self.field_dm(coherent_state(1.0, FockCutoff(30))), axis, axis)
        nested = np.trapezoid(np.trapezoid(grid.values, axis, axis=1), axis)
        assert grid.integral() == pytest.approx(nested, rel=1e-12)
        assert grid.integral() == pytest.approx(1.0, abs=2e-3)  # 0.2-step error: 1.3e-3

    def test_z_search_without_tail_raises(self, small_cutoff, monkeypatch):
        flat = lambda x, coeffs: np.ones(np.shape(x) + np.shape(coeffs)[1:])  # noqa: E731
        monkeypatch.setattr(analysis, "hermite_sum", flat)
        axes = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="above 1e-16"):
            wigner(self.field_dm(fock_state(0, small_cutoff)), axes, axes)

    @POINTWISE
    @pytest.mark.parametrize(
        "beta_re, gather",
        [
            (np.linspace(-6.0, 6.0, 41), None),
            (np.linspace(6.0, -6.0, 41), None),
            (np.array([0.7]), None),
            # steps of 0.2, then 0.1, then 0.0296: no one run, so point by point
            (np.concatenate([np.linspace(-6.0, 0.0, 31), np.linspace(0.1, 6.0, 200)]), None),
            # a spacing so far below the y step that the run goes point by point
            (np.linspace(0.3, 0.31, 11), None),
            # lattices of 300 points (2 J = 40 wavefunctions): the run in pieces
            (np.linspace(-6.0, 6.0, 41), 40 * 300),
            # point by point, with a y kernel of three blocks rebuilt for every piece
            (np.linspace(-6.0, 6.0, 41), 40 * 40),
        ],
        ids=["uniform", "descending", "one-point", "two-runs", "fine-run", "pieces", "blocks"],
    )
    def test_matches_oracle_on_full_rank_state(self, beta_re, gather, monkeypatch):
        # every eigenpair of rho enters the sum
        pieces = []
        if gather:
            monkeypatch.setattr(analysis, "_GATHER", gather)
            lattices = analysis._lattices
            monkeypatch.setattr(
                analysis, "_lattices", lambda *a: (pieces.append(p) or p for p in lattices(*a))
            )
        cut = FockCutoff(19)
        rng = np.random.default_rng(3)
        g = rng.normal(size=(cut.dim, cut.dim)) + 1j * rng.normal(size=(cut.dim, cut.dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        axes = np.linspace(-6.0, 6.0, 41)
        grid = wigner(DensityMatrix(rho, (cut.dim,)), beta_re, axes)
        np.testing.assert_allclose(
            grid.values, wigner_oracle(rho, beta_re, axes), rtol=0, atol=1e-12
        )
        if gather:
            assert len(pieces) >= 3

    @POINTWISE
    def test_matches_oracle_on_top_fock_state(self):
        # the widest wavefunction of the cutoff sets the y-range
        cut = FockCutoff(19)
        rho = self.field_dm(fock_state(cut.n_max, cut))
        axes = np.linspace(-6.5, 6.5, 53)
        grid = wigner(rho, axes, axes)
        np.testing.assert_allclose(
            grid.values, wigner_oracle(rho.matrix, axes, axes), rtol=0, atol=1e-12
        )

    def coherent_on_nonuniform_axes(self):
        # the beta_im axis reaches well past the state's support
        cut = FockCutoff.for_mean_photon(50.0)
        alpha = math.sqrt(50.0) * np.exp(-2j * math.pi / 3)
        rho = self.field_dm(coherent_state(alpha, cut))
        rng = np.random.default_rng(5)
        beta_re = np.sort(np.append(rng.uniform(-12.0, 12.0, 30), alpha.real))
        beta_im = np.concatenate(
            [-np.geomspace(24.0, 0.05, 16), [alpha.imag], np.geomspace(0.03, 24.0, 16)]
        )
        return rho, beta_re, beta_im, wigner(rho, beta_re, beta_im).values

    def half_revival_panel(self):
        # the t_r/2 panel of wigner_panels(50), read at every 10th point,
        # and the field reduced from the same evolved state
        rows = scans.wigner_panels(50.0)["tr2"].rows
        amps = excited_state_evolved(50.0, 2.0 * math.pi / 3.0, -0.002, [revival_time(-0.002) / 2])
        rho = partial_trace(StateVector(amps[0], (2, 2, amps.shape[1] // 4)), keep="field")
        values = rows[:, 2].reshape(201, 201)
        return rho, rows[:201:10, 0], rows[::2010, 1], values[::10, ::10]

    @POINTWISE
    @pytest.mark.parametrize(
        "case, peak, rel",
        [
            # a grid point sits on alpha, where W = 2/pi
            ("coherent_on_nonuniform_axes", VACUUM_PEAK, 1e-6),
            # two lobes of peak 1/pi; the 1.2 steps of the subgrid pass near one
            ("half_revival_panel", VACUUM_PEAK / 2, 0.1),
        ],
        ids=["nonuniform-axes", "half-revival-panel"],
    )
    def test_matches_oracle_at_nbar_50(self, case, peak, rel):
        rho, beta_re, beta_im, values = getattr(self, case)()
        oracle = wigner_oracle(rho.matrix, beta_re, beta_im)
        assert oracle.max() == pytest.approx(peak, rel=rel)
        np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")  # criterion 9's grid
    def test_hermite_work_stays_on_one_lattice(self, monkeypatch):
        """A criterion-9 panel (nbar = 50, 201 points) builds its Hermite
        values on one lattice of (N - 1) m + 2K + 1 points besides the
        120-point z_max search, about 157k values where a table over every
        x +- y built 10.9M."""
        built = []

        def counting(x, coeffs):
            built.append(np.size(x) * len(coeffs))
            return hermite_sum(x, coeffs)

        cut = FockCutoff.for_mean_photon(50.0)
        rho = self.field_dm(coherent_state(math.sqrt(50.0) * np.exp(2j * math.pi / 3), cut))
        axis = np.linspace(-math.sqrt(50.0) - 5.0, math.sqrt(50.0) + 5.0, 201)
        monkeypatch.setattr(analysis, "hermite_sum", counting)
        wigner(rho, axis, axis)

        zs = math.sqrt(cut.dim + 0.5) + np.arange(0.0, 6.0, 0.05)
        z_max = zs[np.argmax(np.abs(hermite_sum(zs, np.eye(cut.dim)[-1])) < 1e-16)]
        step = math.pi / (2.0 * (z_max + max(z_max, axis[-1])))
        dx = (axis[-1] - axis[0]) / (axis.size - 1)
        m = math.ceil(dx / step)
        k = math.ceil(z_max / (dx / m))
        assert sum(built) <= cut.dim * ((axis.size - 1) * m + 2 * k + 1 + zs.size)

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")  # the scale row's grid
    def test_kernel_blocks_only_reorder_the_y_sum(self, monkeypatch):
        """At nbar = 1000 on 401-point axes the y kernel takes several
        blocks of at most _GATHER entries; one block instead, on the same
        lattice pieces, moves no cell by more than rounding."""
        cut = FockCutoff.for_mean_photon(1000.0)
        field = coherent_state(math.sqrt(1000.0) * np.exp(2j * math.pi / 3), cut).amplitudes
        axis = np.linspace(-math.sqrt(1000.0) - 5.0, math.sqrt(1000.0) + 5.0, 401)
        lattices, rows = analysis._lattices, analysis._GATHER // axis.size  # kernel rows a block
        runs = []
        for gather in (analysis._GATHER, 2**20):
            pieces = []
            monkeypatch.setattr(analysis, "_GATHER", gather)
            monkeypatch.setattr(
                analysis, "_lattices", lambda *a: (pieces.append(p) or p for p in lattices(*a))
            )
            runs.append((pieces, analysis._wigner_pairs(np.ones(1), field[:, None], axis, axis)))
        (blocked, grid), (whole, one) = runs
        for p, q in zip(blocked, whole, strict=True):
            np.testing.assert_array_equal(p[2], q[2])
            assert p[:2] + p[3:] == q[:2] + q[3:]
        k_max = blocked[0][5]
        assert k_max + 1 > 5 * rows and (k_max + 1) * axis.size <= 2**20
        assert np.max(np.abs(one.values)) > 0.6
        np.testing.assert_allclose(grid.values, one.values, rtol=0, atol=1e-15)

    def test_rejects_atomic_input(self):
        with pytest.raises(ValueError):
            wigner(DensityMatrix.outer(bell_state("psi+").amplitudes, (2, 2)))


class TestRandomness:
    def test_sample_rng_reproducible(self):
        a = sample_rng(123, 7).uniform(size=4)
        b = sample_rng(123, 7).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_sample_rng_streams_differ(self):
        a = sample_rng(123, 0).uniform(size=4)
        b = sample_rng(123, 1).uniform(size=4)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_haar_state_normalized(self):
        atoms = analysis._haar_atoms([sample_rng(9, 0)])
        assert atoms.shape == (1, 4)
        assert np.linalg.norm(atoms[0]) == pytest.approx(1.0, abs=1e-12)

    def test_haar_first_moments_uniform(self):
        # E|c_i|^2 = 1/4; with N=2000 the standard error is ~0.004
        atoms = analysis._haar_atoms(sample_rng(31, k) for k in range(2000))
        np.testing.assert_allclose(np.mean(np.abs(atoms) ** 2, axis=0), 0.25, atol=0.02)


class TestThreadStream:
    """The library's internal draws: one Philox generator per thread, reset
    to each shot's key, must be the public stream sample_rng."""

    @pytest.mark.parametrize(
        "seed,index",
        [(0, 0), (12345, 7), (-3, 5), (9, 2**64 + 11), (0, -1), (-1, 2**63), (2**63, 2**64 - 1),
         (2**64 - 1, 0)],
    )
    def test_reset_stream_is_sample_rng(self, seed, index):
        """The reset generator and sample_rng both give the stream of a
        Philox generator keyed [seed, index] mod 2**64, built here without
        the library's key (the pairs are asymmetric, so swapped parts fail),
        in a shot's draw order; random() is uniform() bit for bit."""
        from dicke2p.analysis import _thread_rng

        # leave the generator mid-stream, with a half-used 32-bit buffer
        _thread_rng(seed + 1, index).random(3, dtype=np.float32)
        key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        want = [ref.uniform(), ref.normal(), ref.uniform(), ref.random(dtype=np.float32),
                ref.integers(2**40)]
        for got in (_thread_rng(seed, index), sample_rng(seed, index)):
            draws = [got.random(), got.normal(), got.random(), got.random(dtype=np.float32),
                     got.integers(2**40)]
            assert [float(v).hex() for v in draws] == [float(v).hex() for v in want]

    def test_threads_keep_their_own_streams(self):
        """Threads sampling 200 seeded ideal and 200 homodyne shots each at
        once, more of them than cores, give the shots of a serial run."""
        from dicke2p.protocols import HomodyneConfig, run_bell_protocol

        cut = FockCutoff.for_mean_photon(20.0)
        alpha = math.sqrt(20.0) * np.exp(1j * math.pi / 8.0)
        c = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
        homodyne = HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=0.5)

        def shots(seed):
            out = []
            for det in ("ideal", homodyne):
                for i in range(200):
                    r = run_bell_protocol(c, alpha, -0.002, cut, detection=det, rng_seed=seed,
                                          shot_index=i)
                    out.append((r.outcome, r.probability, r.record_x))
            return out

        serial = {seed: shots(seed) for seed in (1, 2, 3, 4)}
        start, found = threading.Barrier(len(serial), timeout=60.0), {}

        def worker(seed):
            start.wait()
            found[seed] = shots(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between shots and within them
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in serial]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert found == serial
        assert len({o for o, *_ in serial[1]}) == 4


class TestEnsembleAverage:
    def test_matches_manual_loop(self):
        def task(rng):
            return rng.uniform()

        mean, err = ensemble_average(task, 50, master_seed=5)
        manual = np.array([sample_rng(5, i).uniform() for i in range(50)])
        assert mean == pytest.approx(manual.mean(), abs=1e-15)
        assert err == pytest.approx(manual.std(ddof=1) / math.sqrt(50), abs=1e-15)

    def test_vector_tasks_keep_shape(self):
        def task(rng):
            return rng.uniform(size=3)

        mean, err = ensemble_average(task, 20, master_seed=2)
        assert np.shape(mean) == (3,)
        assert np.shape(err) == (3,)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            ensemble_average(lambda rng: 1.0, 0, master_seed=0)
