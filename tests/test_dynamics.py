"""Exact propagation, the photon-sector block solution, and the closed-form
collapse/revival observables."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import blockwise_state, random_coeffs
from dicke2p import models
from dicke2p.dynamics import (
    SectorSpectrum,
    analytic_state,
    block_eigenvalues_approx,
    block_eigenvalues_exact,
    block_propagator,
    block_w_n,
    coherent_branch_state,
    evolve_exact,
    evolve_exact_many,
    rabi_see_analytic,
    revival_time,
    sector_spectrum,
)
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    Operator,
    bell_state,
    coherent_state,
    tensor,
    two_qubit_tag,
)
from dicke2p.models import (
    EffectiveModelParams,
    FullModelParams,
    constant_of_motion,
    embed_two_level_state,
    full_hamiltonian,
    two_photon_w,
)


@pytest.fixture(scope="module")
def w_small():
    return two_photon_w(EffectiveModelParams(g=1.0, cutoff=FockCutoff(24)))


class TestBlocks:
    def test_couplings_at_n10(self):
        m = block_w_n(1.0, 10).matrix
        assert m[0, 1] == pytest.approx(13.416407864998739, abs=1e-12)
        assert m[1, 2] == pytest.approx(10.583005244258363, abs=1e-12)

    def test_hermitian(self):
        m = block_w_n(0.7, 9).matrix
        np.testing.assert_allclose(m, m.conj().T)

    def test_low_sectors_decouple_third_slot(self):
        for n in (2, 3):
            m = block_w_n(1.0, n).matrix
            assert m[1, 2] == 0.0 and m[2, 1] == 0.0

    def test_rejects_tiny_sector(self):
        with pytest.raises(ValueError):
            block_w_n(1.0, 1)

    def test_exact_eigenvalues_at_n4(self):
        zero, minus, plus = block_eigenvalues_exact(1.0, 4)
        assert zero == 0.0
        assert plus == pytest.approx(5.291502622129181, abs=1e-12)
        assert minus == pytest.approx(-plus)

    @pytest.mark.parametrize("n", [4, 7, 23, 120])
    def test_exact_matches_numeric(self, n):
        numeric = np.linalg.eigvalsh(block_w_n(0.31, n).matrix)
        expected = np.sort(block_eigenvalues_exact(0.31, n))
        np.testing.assert_allclose(numeric, expected, rtol=1e-12, atol=1e-12)

    def test_approx_frequency(self):
        assert block_eigenvalues_approx(1.0, 10) == (0.0, -17.0, 17.0)

    @pytest.mark.parametrize("n", [8, 20, 60, 200])
    def test_asymptotic_eigenvectors(self, n):
        """The fixed large-n frame diagonalizes the sector up to a relative
        error that dies off as 1/n (the two pair couplings differ by O(1))."""
        sq = 1 / math.sqrt(2)
        frame = np.array([[sq, 0, -sq], [0.5, -sq, 0.5], [0.5, sq, 0.5]])
        rotated = frame @ block_w_n(1.0, n).matrix @ frame.T
        _, minus, plus = block_eigenvalues_approx(1.0, n)
        off = np.max(np.abs(rotated - np.diag([0.0, minus, plus])))
        assert off / plus < 5.0 / n


class TestBlockPropagator:
    def test_identity_at_t0(self):
        np.testing.assert_allclose(block_propagator(1.0, 9, 0.0).matrix, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("n,t", [(5, 0.4), (17, 2.3)])
    def test_unitary(self, n, t):
        u = block_propagator(0.9, n, t).matrix
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_low_sector_keeps_third_slot(self):
        u = block_propagator(1.0, 2, 0.3).matrix
        np.testing.assert_allclose(u[2], [0.0, 0.0, 1.0], atol=1e-14)

    def test_approaches_exact_exponential(self):
        # the linearized spectrum converges to the true one as n grows
        def gap(n, t):
            u = block_propagator(1.0, n, t).matrix
            return np.max(np.abs(u - expm(-1j * block_w_n(1.0, n).matrix * t)))

        assert gap(400, 0.05) < 5e-3
        assert gap(2000, 0.01) < gap(400, 0.05) / 3.0


class TestEvolveExact:
    def test_t0_identity(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        out = evolve_exact(w_small, psi0, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi0.amplitudes, atol=1e-12)

    def test_unitary_norm(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        out = evolve_exact(w_small, psi0, math.pi)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_excitation_number_conserved(self, w_small, mixed_coeffs):
        cut = FockCutoff(24)
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, cut))
        i2 = constant_of_motion(cut, levels=2).matrix
        before = np.vdot(psi0.amplitudes, i2 @ psi0.amplitudes).real
        amps = evolve_exact(w_small, psi0, 2.7).amplitudes
        after = np.vdot(amps, i2 @ amps).real
        assert after == pytest.approx(before, abs=1e-9)

    def test_rejects_unflagged_operator(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        bare = Operator(w_small.matrix, w_small.space, hermitian=False)
        with pytest.raises(ValueError, match="hermitian"):
            evolve_exact(bare, psi0, 0.1)

    def test_many_matches_single(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        times = np.array([0.0, 0.3, 1.1])
        traj = evolve_exact_many(w_small, psi0, times)
        for row, t in zip(traj, times):
            np.testing.assert_allclose(
                row, evolve_exact(w_small, psi0, float(t)).amplitudes, atol=1e-12
            )


def _dense_evolution(op, psi, times):
    vals, vecs = np.linalg.eigh(op.matrix)
    weights = vecs.conj().T @ psi
    return np.array([vecs @ (np.exp(-1j * vals * t) * weights) for t in times])


class TestSectorSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st.integers(1, 12),
        omega=st.floats(-2.0, 2.0),
        delta=st.floats(0.1, 50.0),
        g_g=st.floats(0.05, 3.0),
        g_e=st.floats(0.05, 3.0),
        g=st.floats(0.05, 3.0),
        g_sign=st.sampled_from((1.0, -1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_eigh(self, n_max, omega, delta, g_g, g_e, g, g_sign, seed):
        """Sector engine against the dense eigendecomposition of both
        reference operators: random cutoff, couplings, detuning, state and
        times."""
        rng = np.random.default_rng(seed)
        cut = FockCutoff(n_max)
        times = rng.uniform(-5.0, 5.0, size=4)
        for params, dense in (
            (FullModelParams(omega, delta, g_g, g_e, cut), full_hamiltonian),
            (EffectiveModelParams(g_sign * g, cut), two_photon_w),
        ):
            op = dense(params)
            psi = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            psi /= np.linalg.norm(psi)
            expected = _dense_evolution(op, psi, times)
            got = sector_spectrum(params).propagate(psi, times)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_sector_sizes(self):
        cut = FockCutoff.for_mean_photon(20.0)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
        w = sector_spectrum(EffectiveModelParams(-0.002, cut))
        assert full.index.shape == (cut.dim + 4, 9)
        assert w.index.shape == (cut.dim + 4, 4)
        assert full.vectors.shape == (cut.dim + 4, 9, 9)

    def test_from_operator_matches_parameters(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        built = sector_spectrum(EffectiveModelParams(g=1.0, cutoff=FockCutoff(24)))
        times = np.array([0.4, 3.3])
        np.testing.assert_allclose(
            SectorSpectrum.from_operator(w_small).propagate(psi0.amplitudes, times),
            built.propagate(psi0.amplitudes, times),
            atol=1e-12,
        )

    def test_cross_sector_element_raises(self, w_small, mixed_coeffs):
        mat = np.array(w_small.matrix)
        nf = 25
        # |gg,0> <-> |ee,0> differ by four excitations
        mat[0, 3 * nf] = mat[3 * nf, 0] = 1e-3
        leaky = Operator(mat, w_small.space, hermitian=True)
        with pytest.raises(ValueError, match="excitation sectors"):
            SectorSpectrum.from_operator(leaky)
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        with pytest.raises(ValueError, match="excitation sectors"):
            evolve_exact(leaky, psi0, 0.1)

    def test_rejects_mismatched_space(self, mixed_coeffs):
        spec = sector_spectrum(EffectiveModelParams(g=1.0, cutoff=FockCutoff(24)))
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.0, FockCutoff(12)))
        with pytest.raises(ValueError, match="different spaces"):
            evolve_exact(spec, psi0, 0.1)

    def test_nbar_1000_without_dense_matrices(self, monkeypatch):
        """Three-level dimension 11,322: a dense matrix would take 2 GB."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("dense builder called on the sector path")

        for name in ("full_hamiltonian", "two_photon_w", "constant_of_motion"):
            monkeypatch.setattr(models, name, refuse)
        cut = FockCutoff.for_mean_photon(1000.0)
        coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        psi0 = embed_two_level_state(
            tensor(coeffs.to_state(), coherent_state(math.sqrt(1000.0), cut)), cut
        )
        times = np.linspace(0.0, revival_time(-0.002), 5)
        tracemalloc.start()
        try:
            spec = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
            traj = evolve_exact_many(spec, psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.space.dim == 11_322
        assert traj.shape == (5, 11_322)
        assert peak < 20 * 2**20  # one dense matrix would take 16 * 11322^2 B = 2 GB
        np.testing.assert_allclose(np.linalg.norm(traj, axis=1), 1.0, rtol=0, atol=1e-10)


class TestAnalyticState:
    def test_psi_minus_is_stationary(self):
        cut = FockCutoff.for_mean_photon(16.0)
        c = AtomCoeffs(0.0, 1.0, 0.0, 0.0)
        psi0 = tensor(c.to_state(), coherent_state(4.0, cut))
        out = analytic_state(c, 4.0, 1.0, 2.2, cut)
        assert abs(np.vdot(out.amplitudes, psi0.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_t0_reproduces_input(self, rng):
        cut = FockCutoff.for_mean_photon(12.0)
        c = random_coeffs(rng)
        psi0 = tensor(c.to_state(), coherent_state(2.0j + 2.0, cut))
        out = analytic_state(c, 2.0j + 2.0, 0.7, 0.0, cut)
        assert np.linalg.norm(out.amplitudes - psi0.amplitudes) < 1e-10

    def test_matches_blockwise_assembly(self, rng):
        """Same closed form through two independently written code paths."""
        cut = FockCutoff.for_mean_photon(14.0)
        for _ in range(3):
            c = random_coeffs(rng)
            t = float(rng.uniform(0.1, 3.0))
            direct = analytic_state(c, math.sqrt(14.0), 1.0, t, cut).amplitudes
            assembled = blockwise_state(c, math.sqrt(14.0), 1.0, t, cut)
            assert np.linalg.norm(direct - assembled) < 1e-10

    def test_tracks_exact_evolution_at_high_photon_number(self):
        cut = FockCutoff.for_mean_photon(100.0)
        w = two_photon_w(EffectiveModelParams(g=1.0, cutoff=cut))
        c = AtomCoeffs.normalized(0.5, 0.1, 0.6, 0.45)
        psi0 = tensor(c.to_state(), coherent_state(10.0, cut))
        for t in (0.3 * math.pi, 0.8 * math.pi):
            exact = evolve_exact(w, psi0, t).amplitudes
            approx = analytic_state(c, 10.0, 1.0, t, cut).amplitudes
            assert abs(np.vdot(exact, approx)) ** 2 > 0.999


class TestCoherentBranches:
    def test_t0_reconstruction(self, rng):
        cut = FockCutoff.for_mean_photon(30.0)
        c = random_coeffs(rng)
        alpha = math.sqrt(30.0)
        psi0 = tensor(c.to_state(), coherent_state(alpha, cut))
        rec = coherent_branch_state(c, alpha, 1.0, 0.0).reconstruct(cut)
        assert np.linalg.norm(rec.amplitudes - psi0.amplitudes) < 1e-10

    def test_half_revival_form(self, mixed_coeffs):
        """At t_r/2 the state splits into a stationary part riding |alpha>
        and a flipped part riding |-alpha>."""
        alpha = 5.0 * np.exp(0.45j)
        cut = FockCutoff.for_mean_photon(25.0)
        state = coherent_branch_state(mixed_coeffs, alpha, 1.0, math.pi / 2.0)
        rec = state.reconstruct(cut).amplitudes
        d_plus, d_minus = mixed_coeffs.d_pair(0.9)
        stay = (
            mixed_coeffs.c_minus * bell_state("psi-").amplitudes
            + d_minus * bell_state("phi-", 0.9).amplitudes
        )
        flip = -1j * (
            mixed_coeffs.c_plus * bell_state("phi+", 0.9).amplitudes
            + d_plus * bell_state("psi+").amplitudes
        )
        expected = np.kron(stay, coherent_state(alpha, cut).amplitudes) + np.kron(
            flip, coherent_state(-alpha, cut).amplitudes
        )
        expected /= np.linalg.norm(expected)
        assert np.linalg.norm(rec - expected) < 1e-10

    def test_warns_for_few_photons(self, mixed_coeffs):
        with pytest.warns(UserWarning, match="alpha"):
            coherent_branch_state(mixed_coeffs, 2.0, 1.0, 0.5)

    def test_branch_labels_counter_rotate(self, mixed_coeffs):
        t = 0.37
        state = coherent_branch_state(mixed_coeffs, 6.0, 1.0, t)
        assert any(abs(br.alpha - 6.0) < 1e-12 for br in state.branches)
        assert any(abs(br.alpha - 6.0 * np.exp(-2j * t)) < 1e-12 for br in state.branches)
        assert any(abs(br.alpha - 6.0 * np.exp(+2j * t)) < 1e-12 for br in state.branches)

    @pytest.mark.parametrize("nbar,floor", [(50.0, 0.975), (100.0, 0.986)])
    def test_reconstruction_accuracy_grows_with_photons(self, nbar, floor):
        from dicke2p.analysis import haar_random_two_qubit, sample_rng

        cut = FockCutoff.for_mean_photon(nbar)
        w = two_photon_w(EffectiveModelParams(g=1.0, cutoff=cut))
        alpha = math.sqrt(nbar)
        fids = []
        for k in range(8):
            c = haar_random_two_qubit(sample_rng(77, k))
            psi0 = tensor(c.to_state(), coherent_state(alpha, cut))
            for t in np.linspace(0.0, math.pi, 11):
                exact = evolve_exact(w, psi0, float(t)).amplitudes
                rec = coherent_branch_state(c, alpha, 1.0, float(t)).reconstruct(cut)
                fids.append(abs(np.vdot(exact, rec.amplitudes)) ** 2)
        assert np.mean(fids) > floor

    def test_reconstruction_has_unit_norm(self):
        # the three branch weights resolve unity; only coherent-label
        # overlaps can disturb the norm, and they are tiny already here
        for nbar, t in ((16.0, 0.8), (64.0, 1.2)):
            cut = FockCutoff.for_mean_photon(nbar)
            state = coherent_branch_state(
                AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5), math.sqrt(nbar), 1.0, t
            )
            assert state.reconstruction_defect(cut) < 1e-6


class TestRabiClosedForm:
    def test_both_excited_at_start(self):
        assert rabi_see_analytic(math.sqrt(30.0), 1.0, 0.0) == pytest.approx(2.0)

    def test_full_revival_flips_sign(self):
        # the phase drift lands on an odd multiple of pi at gt = pi
        assert rabi_see_analytic(math.sqrt(30.0), 1.0, math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_collapse_plateau(self):
        gt = np.linspace(0.3 * math.pi, 0.45 * math.pi, 40)
        vals = rabi_see_analytic(math.sqrt(30.0), 1.0, gt)
        np.testing.assert_allclose(vals, 1.0, atol=1e-3)

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 0.2, 1.4])
        vec = rabi_see_analytic(2.0, 0.7, ts)
        scal = [rabi_see_analytic(2.0, 0.7, float(t)) for t in ts]
        np.testing.assert_allclose(vec, scal, atol=1e-14)


class TestRevivalTime:
    def test_value(self):
        assert revival_time(0.002) == pytest.approx(1570.7963267948967, rel=1e-12)

    def test_sign_independent(self):
        assert revival_time(-0.002) == revival_time(0.002)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            revival_time(0.0)
