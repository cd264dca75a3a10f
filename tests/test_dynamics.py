"""Exact propagation, the photon-sector block solution, and the closed-form
collapse/revival observables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blockwise_state,
    coherent_branch_basis,
    constant_of_motion,
    embed_indices,
    embed_two_level_state,
    full_hamiltonian,
    haar_random_two_qubit,
    random_coeffs,
    three_branch_state,
    traced_peak,
    two_photon_w,
    w_sector_blocks,
)
from dicke2p.analysis import sample_rng
from dicke2p.dynamics import (
    analytic_state,
    evolve_linearized_many,
    linearized_spectrum,
    rabi_see_analytic,
    revival_time,
    sector_spectrum,
    w_spectrum,
)
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    bell_state,
    coherent_state,
    tensor,
)
from dicke2p.models import (
    FullModelParams,
    W_SLOTS,
    effective_coupling,
)


@pytest.fixture(scope="module")
def w_small():
    return w_spectrum(1.0, FockCutoff(24))


def sector_propagator(spectrum, n, t):
    """exp(-i H t) on excitation sector n of a two-level spectrum, in the
    slot order of spectrum.index[n] (gg, ge, eg, ee)."""
    v = spectrum.vectors[n]
    return (v * np.exp(-1j * spectrum.values[n] * t)) @ v.conj().T


def propagators(values, vectors, t):
    """exp(-i H t) of every sector from its eigenvalues and eigenvectors."""
    return (vectors * np.exp(-1j * values * t)[:, None, :]) @ vectors.conj().transpose(0, 2, 1)


def spectrum_blocks(spectrum):
    """Every sector block V diag(values) V^dag that a spectrum diagonalizes."""
    v = spectrum.vectors
    return (v * spectrum.values[:, None, :]) @ v.conj().transpose(0, 2, 1)


# |gg>, |psi+>, |ee> in the slot order of a full two-level sector
_SQ = 1 / math.sqrt(2.0)
_BELL3 = np.array([[1, 0, 0, 0], [0, _SQ, _SQ, 0], [0, 0, 0, 1]])


class TestBlocks:
    def test_couplings_at_n10(self):
        blocks = spectrum_blocks(w_spectrum(1.0, FockCutoff(12)))
        m = _BELL3 @ blocks[10] @ _BELL3.T
        assert m[0, 1] == pytest.approx(13.416407864998739, abs=1e-12)
        assert m[1, 2] == pytest.approx(10.583005244258363, abs=1e-12)

    def test_hermitian(self):
        """The closed-form eigenvectors are real and orthonormal in every
        sector, so the blocks they diagonalize are real symmetric."""
        spec = w_spectrum(0.7, FockCutoff(12))
        v = spec.vectors
        assert v.dtype == np.float64
        np.testing.assert_allclose(v.transpose(0, 2, 1) @ v, np.broadcast_to(np.eye(4), v.shape), atol=1e-15)
        blocks = spectrum_blocks(spec)
        np.testing.assert_allclose(blocks, blocks.transpose(0, 2, 1).conj(), rtol=0, atol=1e-14)

    def test_low_sectors_decouple_third_slot(self):
        spec = w_spectrum(1.0, FockCutoff(12))
        index, dims = spec.index, spec.dims
        for n in (2, 3):
            assert list(index[n] < math.prod(dims)) == [True, True, True, False]

    def test_exact_eigenvalues_at_n4(self):
        values = w_spectrum(1.0, FockCutoff(8)).values[4]
        np.testing.assert_allclose(values[1:3], 0.0, atol=1e-14)
        assert values[3] == pytest.approx(5.291502622129181, abs=1e-12)
        assert values[0] == pytest.approx(-values[3])

    @pytest.mark.parametrize("n", [4, 7, 23, 120])
    def test_exact_matches_numeric(self, n):
        values = w_spectrum(0.31, FockCutoff(n)).values[n]
        w = 0.31 * math.sqrt((2 * n - 3) ** 2 + 3)
        np.testing.assert_allclose(values, [-w, 0.0, 0.0, w], rtol=1e-12, atol=1e-12)

    def test_approx_frequency(self):
        values = linearized_spectrum(1.0, FockCutoff(12)).values[10]
        np.testing.assert_allclose(values, [-17.0, 0.0, 0.0, 17.0], atol=1e-13)
        # every complete sector, at a negative coupling
        n = np.arange(4, 65)
        w = 0.4 * (2 * n - 3)
        zero = np.zeros_like(w)
        expected = np.stack([-w, zero, zero, w], axis=1)
        values = linearized_spectrum(-0.4, FockCutoff(60)).values[n]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * w.max())

    @pytest.mark.parametrize("n", [8, 20, 60, 200])
    def test_asymptotic_eigenvectors(self, n):
        """The fixed large-n frame diagonalizes the sector up to a relative
        error that dies off as 1/n (the two pair couplings differ by O(1))."""
        blocks, _ = w_sector_blocks(1.0, FockCutoff(n))
        sq = 1 / math.sqrt(2)
        frame = np.array([[sq, 0, -sq], [0.5, -sq, 0.5], [0.5, sq, 0.5]])
        rotated = frame @ _BELL3 @ blocks[n] @ _BELL3.T @ frame.T
        w = 2 * n - 3
        off = np.max(np.abs(rotated - np.diag([0.0, -w, w])))
        assert off / w < 5.0 / n


class TestBlockPropagator:
    def test_identity_at_t0(self):
        spec = linearized_spectrum(1.0, FockCutoff(12))
        for n in range(spec.index.shape[0]):
            np.testing.assert_allclose(sector_propagator(spec, n, 0.0), np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("n,t", [(5, 0.4), (17, 2.3)])
    def test_unitary(self, n, t):
        u = sector_propagator(linearized_spectrum(0.9, FockCutoff(20)), n, t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_low_sector_keeps_third_slot(self):
        """Only |gg,n> and |psi+,n-2> exist for n in {2,3}; they rotate at
        g(2n-3)/sqrt(2) and the padded slot stays put."""
        spec = linearized_spectrum(1.0, FockCutoff(12))
        for n in (2, 3):
            u = sector_propagator(spec, n, 0.3)
            th = (2 * n - 3) * 0.3 / math.sqrt(2.0)
            c, s = np.cos(th), np.sin(th)
            m = _BELL3 @ u @ _BELL3.T
            np.testing.assert_allclose(m[:2, :2], [[c, -1j * s], [-1j * s, c]], atol=1e-14)
            np.testing.assert_allclose(u[3], [0.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_approaches_exact_exponential(self):
        # the linearized spectrum converges to the true one as n grows
        cut = FockCutoff(2000)
        lin = linearized_spectrum(1.0, cut)
        exact = w_spectrum(1.0, cut)

        def gap(n, t):
            return np.max(np.abs(sector_propagator(lin, n, t) - sector_propagator(exact, n, t)))

        assert gap(400, 0.05) < 5e-3
        assert gap(2000, 0.01) < gap(400, 0.05) / 3.0


class TestClosedFormSpectrum:
    """W and its linearization come in closed form; eigh of the dense
    oracle's sector blocks checks both, sector by sector, through the
    eigenvalues and the propagators on the slots the blocks hold."""

    @staticmethod
    def check_sectors(spec, blocks, real, edges):
        """Sorted eigenvalues and exp(-i H t) at three times against eigh
        of blocks, on the slots real holds; the sectors in edges first, by
        name."""
        values, vectors = np.linalg.eigh(blocks)
        scale = max(np.abs(values).max(), 1.0)  # W is zero on n_max = 1
        on = real[:, :, None] & real[:, None, :]
        got = [np.sort(spec.values, axis=1)]
        want = [values]
        for t in (0.0, 1.0 / scale, 5.0 / scale):
            got.append(propagators(spec.values, spec.vectors, t) * on)
            want.append(propagators(values, vectors, t) * on)
        for n in (*edges, *range(len(blocks))):
            np.testing.assert_allclose(got[0][n], want[0][n], rtol=0, atol=1e-14 * scale, err_msg=f"N = {n}")
            for g, w in zip(got[1:], want[1:]):
                np.testing.assert_allclose(g[n], w[n], rtol=0, atol=1e-14, err_msg=f"N = {n}")

    @pytest.mark.parametrize("n_max", [1, 4, 22, 60])
    def test_exact_w_is_eigh_of_the_truncated_oracle_blocks(self, n_max):
        """Every sector of the exact W, the truncated top sectors N = n_max
        + 1 .. n_max + 4 and the sectors N = 0, 1 that hold |gg,N> alone
        included."""
        params = (-0.7, FockCutoff(n_max))
        spec = w_spectrum(*params)
        blocks, real = w_sector_blocks(*params)
        np.testing.assert_array_equal(spec.index < math.prod(spec.dims), real)
        for n in (0, 1):
            assert list(real[n]) == [True, False, False, False]
            np.testing.assert_array_equal(spec.values[n], 0.0)
            np.testing.assert_allclose(sector_propagator(spec, n, 3.0)[0, 0], 1.0, rtol=0, atol=1e-15)
        self.check_sectors(spec, blocks, real, (0, 1, *range(n_max + 1, n_max + 5)))

    @pytest.mark.parametrize("n_max", [1, 4, 22, 60])
    def test_linearized_w_is_eigh_of_the_padded_linearized_blocks(self, n_max):
        """The linearized W on the cutoff n_max keeps the complete sectors
        N = 0 .. n_max + 4 that a state on it reaches: those of the W blocks
        on n_max + 4 with every pair coupling g(2N-3)/2, slots past n_max
        (the sentinel slots of the spectrum) included."""
        g = 0.45
        spec = linearized_spectrum(g, FockCutoff(n_max))
        _, on_cutoff = w_sector_blocks(g, FockCutoff(n_max))
        np.testing.assert_array_equal(spec.index < math.prod(spec.dims), on_cutoff)
        blocks, real = w_sector_blocks(g, FockCutoff(n_max + 4))
        blocks, real = blocks[: n_max + 5], real[: n_max + 5]
        n = np.arange(n_max + 5)[:, None, None]
        blocks = np.where(blocks != 0.0, g * (2 * n - 3) / 2.0, 0.0)
        self.check_sectors(spec, blocks, real, (0, 1, *range(n_max + 1, n_max + 5)))


class TestEvolveExact:
    def test_t0_identity(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        out = w_small.propagate(psi0.amplitudes, [0.0])[0]
        np.testing.assert_allclose(out, psi0.amplitudes, atol=1e-12)

    def test_unitary_norm(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        out = w_small.propagate(psi0.amplitudes, [math.pi])[0]
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_excitation_number_conserved(self, w_small, mixed_coeffs):
        cut = FockCutoff(24)
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, cut))
        i2 = constant_of_motion(cut, levels=2).matrix
        before = np.vdot(psi0.amplitudes, i2 @ psi0.amplitudes).real
        amps = w_small.propagate(psi0.amplitudes, [2.7])[0]
        after = np.vdot(amps, i2 @ amps).real
        assert after == pytest.approx(before, abs=1e-9)

    def test_many_matches_single(self, w_small, mixed_coeffs):
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.5, FockCutoff(24)))
        times = np.array([0.0, 0.3, 1.1])
        traj = w_small.propagate(psi0.amplitudes, times)
        for row, t in zip(traj, times):
            np.testing.assert_allclose(
                row, w_small.propagate(psi0.amplitudes, [t])[0], atol=1e-12
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
        full = FullModelParams(omega, delta, g_g, g_e, cut)
        for op, spec in (
            (full_hamiltonian(full), sector_spectrum(full)),
            (two_photon_w(g_sign * g, cut), w_spectrum(g_sign * g, cut)),
        ):
            psi = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            psi /= np.linalg.norm(psi)
            expected = _dense_evolution(op, psi, times)
            got = spec.propagate(psi, times)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("omega", [0.0, 0.7])
    @pytest.mark.parametrize(
        "cut", [FockCutoff(1), FockCutoff(6), FockCutoff.for_mean_photon(20.0)], ids=["1", "6", "nbar20"]
    )
    def test_edge_sectors_on_fixed_slots(self, cut, omega):
        """The rows N = 0 .. 3 and N > n_max hold sentinel slots among their
        real ones.  Every eigenvector column of those sectors is supported
        on the real slots or is a unit vector on sentinel slots alone: on
        one (gg, ii or ee) or, as a swap-symmetric or antisymmetric pair, on
        two, each entry 0, +-1 or +-sqrt(1/2).  The real columns rebuild the
        dense full_hamiltonian on the sector's real states.  At omega = 0 a
        zero eigenvalue of a real state meets the zero ones of the sentinel
        slots."""
        params = FullModelParams(omega, 500.0, 1.0, 1.0, cut)
        spec = sector_spectrum(params)
        dense = full_hamiltonian(params).matrix.real
        scale = np.abs(dense).max()
        for n in sorted({*range(4), *range(cut.n_max + 1, cut.n_max + 5)}):
            real = spec.index[n] < math.prod(spec.dims)
            v = spec.vectors[n]
            on, off = np.sum(v[real] ** 2, axis=0), np.sum(v[~real] ** 2, axis=0)
            assert np.minimum(on, off).max() <= 1e-15, f"N = {n}"
            sentinel = off > 0.5
            assert sentinel.sum() == (~real).sum(), f"N = {n}"
            np.testing.assert_allclose(off[sentinel], 1.0, rtol=0, atol=1e-15)
            entries = np.abs(v[~real][:, sentinel])
            assert np.all(np.isin(entries, [0.0, 1.0, math.sqrt(0.5)])), f"N = {n}"
            sel, u = spec.index[n][real], v[real][:, ~sentinel]
            rebuilt = (u * spec.values[n][~sentinel]) @ u.T
            np.testing.assert_allclose(rebuilt, dense[np.ix_(sel, sel)], rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize(
        "cut, omega, delta, g_g, g_e",
        [(FockCutoff(1), 0.0, 500.0, 1.0, 1.0), (FockCutoff(6), 0.7, 500.0, 1.0, 1.0),
         (FockCutoff(30), 0.7, 3.0, 1.1, 1.3), (FockCutoff.for_mean_photon(100.0), 0.0, 500.0, 1.0, 1.0)],
        ids=["1", "6", "30", "nbar100"],
    )
    def test_every_eigenvector_is_swap_symmetric_or_antisymmetric(self, cut, omega, delta, g_g, g_e):
        """The atoms couple alike, so each sector's eigenvectors split under
        the swap of the atoms (slot 3a + b to 3b + a): the first 6 columns
        are exactly symmetric and the last 3 exactly antisymmetric, bit for
        bit, on every row, sentinel columns included."""
        spec = sector_spectrum(FullModelParams(omega, delta, g_g, g_e, cut))
        swap = [3 * b + a for a in range(3) for b in range(3)]
        np.testing.assert_array_equal(spec.vectors[:, swap, :6], spec.vectors[:, :, :6])
        np.testing.assert_array_equal(spec.vectors[:, swap, 6:], -spec.vectors[:, :, 6:])

    @pytest.mark.parametrize("omega", [0.0, 0.7])
    @pytest.mark.parametrize("cut", [FockCutoff(1), FockCutoff(6), FockCutoff(30)], ids=["1", "6", "30"])
    def test_values_match_the_dense_oracle(self, cut, omega):
        """The eigenvalues of the columns on real slots are those of the
        dense full_hamiltonian, to 1e-12 of its largest one, at delta 500
        and at a detuning comparable to the couplings."""
        for delta, g_g, g_e in ((500.0, 1.0, 1.0), (3.0, 1.1, 1.3)):
            params = FullModelParams(omega, delta, g_g, g_e, cut)
            spec = sector_spectrum(params)
            want = np.linalg.eigvalsh(full_hamiltonian(params).matrix)
            real = spec.index < math.prod(spec.dims)
            on_real = np.sum(spec.vectors**2 * real[:, :, None], axis=1) > 0.5
            got = np.sort(spec.values[on_real])
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_sector_sizes(self):
        cut = FockCutoff.for_mean_photon(20.0)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
        w = w_spectrum(-0.002, cut)
        assert full.index.shape == (cut.dim + 4, 9)
        assert w.index.shape == (cut.dim + 4, 4)
        assert full.vectors.shape == (cut.dim + 4, 9, 9)

    @pytest.mark.parametrize("kind", ["w", "linearized", "full"])
    def test_wrong_state_length_raises(self, kind):
        """project and propagate refuse a state whose length is not the
        spectrum's dimension: one amplitude, one too few or one too many,
        and a three-level state on W's two-level space."""
        cut = FockCutoff(6)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
        spec = {
            "w": w_spectrum(-0.002, cut),
            "linearized": linearized_spectrum(-0.002, cut),
            "full": full,
        }[kind]
        dim = math.prod(spec.dims)
        lengths = [1, dim - 1, dim + 1] + ([math.prod(full.dims)] if kind != "full" else [])
        for n in lengths:
            for call in (spec.project, lambda psi: spec.propagate(psi, [0.5])):
                with pytest.raises(ValueError, match=rf"\({n},\).*\b{dim}\b"):
                    call(np.ones(n))

    def test_nbar_1000_without_dense_matrices(self):
        """Three-level dimension 11,322: a dense matrix would take 2 GB."""
        cut = FockCutoff.for_mean_photon(1000.0)
        coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        psi0 = embed_two_level_state(
            tensor(coeffs.to_state(), coherent_state(math.sqrt(1000.0), cut)), cut
        )
        times = np.linspace(0.0, revival_time(-0.002), 5)
        with traced_peak() as mem:
            spec = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
            traj = spec.propagate(psi0.amplitudes, times)
        assert math.prod(spec.dims) == 11_322
        assert traj.shape == (5, 11_322)
        assert mem.peak < 20 * 2**20  # one dense matrix would take 16 * 11322^2 B = 2 GB
        np.testing.assert_allclose(np.linalg.norm(traj, axis=1), 1.0, rtol=0, atol=1e-10)


def dense_vectors(spectrum):
    """The sector eigenvectors as the columns of one flat matrix, column
    s * m + k for eigenvector k of sector s; padded slots stay zero."""
    sectors, m = spectrum.index.shape
    out = np.zeros((math.prod(spectrum.dims) + 1, sectors * m))
    cols = np.arange(sectors * m).reshape(sectors, 1, m)
    out[spectrum.index[:, :, None], cols] = spectrum.vectors
    return out[:-1]


class TestSectorOverlaps:
    def test_maps_match_dense_overlap(self):
        """Every map V_W^dag V_full[W_SLOTS] of row N is the block (N, N) of
        V_W^dag P V_full, built densely from index and vectors through the
        embedding P, on the full model's columns supported on real slots;
        its other columns are unit vectors on sentinel slots, so no
        two-level state has weight on them, and every block (N, M != N) of
        the dense overlap is zero."""
        cut = FockCutoff.for_mean_photon(4.0)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cut))
        w = w_spectrum(effective_coupling(1.0, 1.0, 500.0), cut)
        embed = np.zeros((math.prod(w.dims), math.prod(full.dims)))
        embed[np.arange(math.prod(w.dims)), embed_indices(cut)] = 1.0
        rows = cut.dim + 4
        dense = (dense_vectors(w).T @ embed @ dense_vectors(full)).reshape(rows, 4, rows, 9)

        maps = w.vectors.conj().mT @ full.vectors[:, W_SLOTS]
        assert maps.shape == (rows, 4, 9)
        real = full.index < math.prod(full.dims)
        on_real = np.sum(full.vectors**2 * real[:, :, None], axis=1) > 0.5
        n = np.arange(rows)
        np.testing.assert_allclose(maps * on_real[:, None], dense[n, :, n], rtol=0, atol=1e-14)
        sentinel_on_real = real[:, :, None] & ~on_real[:, None, :]
        np.testing.assert_array_equal(np.where(sentinel_on_real, full.vectors, 0.0), 0.0)
        dense[n, :, n] = 0.0
        np.testing.assert_array_equal(dense, 0.0)

    def test_dropped_weight_is_a_quadratic_form(self):
        """The linearized weight past the cutoff, V^dag V on the sentinel
        slots of the four sectors past it (fidelity_scan takes the same
        weight as a quadratic form in its inputs), equals the flat weight past the cutoff of the same evolution on a
        cutoff four photons larger, and the norm that propagate loses, for
        |ee> at half a revival on the tightest cutoff at nbar = 4, where it
        is large enough to raise.  The sentinel slots of the sectors N < 4,
        states of negative photon number, hold no weight."""
        g, cut = -0.002, FockCutoff(22)
        t = np.array([revival_time(g) / 2.0])
        psi0 = np.kron([0, 0, 0, 1], coherent_state(2.0, cut).amplitudes)
        padded = np.zeros((4, cut.dim + 4), dtype=np.complex128)
        padded[3, : cut.dim] = coherent_state(2.0, cut).amplitudes
        flat = linearized_spectrum(g, FockCutoff(26)).propagate(padded.ravel(), t)
        expected = np.sum(np.abs(flat.reshape(4, cut.dim + 4)[:, cut.dim :]) ** 2)

        lin = linearized_spectrum(g, cut)
        off = lin.index == math.prod(lin.dims)
        np.testing.assert_array_equal(np.flatnonzero(off.any(axis=1)), [0, 1, 2, 3, 23, 24, 25, 26])
        u = lin.phases(t)[0] * lin.project(psi0)
        dropped = {}
        for name, pairs in (("past", np.arange(23, 27)), ("low", np.arange(4))):
            v = lin.vectors[pairs]
            maps = v.transpose(0, 2, 1) @ (off[pairs, :, None] * v)
            dropped[name] = np.einsum("pk,pkl,pl->", u[pairs].conj(), maps, u[pairs])
        assert 1.3e-8 < expected < 1.5e-8
        assert dropped["past"].real == pytest.approx(expected, rel=1e-9)
        assert abs(dropped["past"].imag) < 1e-20
        assert dropped["low"] == 0.0
        lost = 1.0 - np.sum(np.abs(lin.propagate(psi0, t)) ** 2)
        assert lost == pytest.approx(expected, rel=1e-6)

    def test_project_takes_a_batch_of_states(self, rng):
        w = w_spectrum(1.0, FockCutoff(9))
        shape = (3, 2, math.prod(w.dims))
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        batch = w.project(amps)
        assert batch.shape == (3, 2) + w.index.shape
        for i, j in np.ndindex(3, 2):
            np.testing.assert_allclose(batch[i, j], w.project(amps[i, j]), rtol=0, atol=1e-14)


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
        w = w_spectrum(1.0, cut)
        c = AtomCoeffs.normalized(0.5, 0.1, 0.6, 0.45)
        psi0 = tensor(c.to_state(), coherent_state(10.0, cut))
        for t in (0.3 * math.pi, 0.8 * math.pi):
            exact = w.propagate(psi0.amplitudes, [t])[0]
            approx = analytic_state(c, 10.0, 1.0, t, cut).amplitudes
            assert abs(np.vdot(exact, approx)) ** 2 > 0.999


class TestLinearizedEvolution:
    def test_many_matches_single(self, rng):
        cut = FockCutoff.for_mean_photon(20.0)
        c = random_coeffs(rng)
        alpha = math.sqrt(20.0) * np.exp(0.4j)
        psi0 = tensor(c.to_state(), coherent_state(alpha, cut))
        times = np.linspace(0.0, revival_time(-0.002), 7)
        many = evolve_linearized_many(linearized_spectrum(-0.002, cut), psi0, times)
        assert many.shape == (7, psi0.dim)
        for row, t in zip(many, times):
            single = analytic_state(c, alpha, -0.002, float(t), cut).amplitudes
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-14)

    def test_dropped_weight_raises(self):
        """At nbar = 4 the smallest cutoff coherent_state accepts (n_max = 22)
        leaves the |ee> tail within four photons of the edge; half a revival
        moves 1.4e-8 of it past the cutoff."""
        cut = FockCutoff(22)
        c = AtomCoeffs(0.0, 0.0, 0.0, 1.0)
        assert analytic_state(c, 2.0, -0.002, 0.0, cut).dim == 4 * cut.dim
        with pytest.raises(ValueError, match=r"weight 1\.\d+e-08 past the cutoff n_max=22"):
            analytic_state(c, 2.0, -0.002, revival_time(-0.002) / 2.0, cut)
        cut = FockCutoff.for_mean_photon(4.0)
        analytic_state(c, 2.0, -0.002, revival_time(-0.002) / 2.0, cut)

    def test_rejects_spectrum_of_another_cutoff(self, mixed_coeffs):
        cut = FockCutoff(24)
        psi0 = tensor(mixed_coeffs.to_state(), coherent_state(1.0, cut))
        with pytest.raises(ValueError, match="cutoff"):
            evolve_linearized_many(linearized_spectrum(1.0, FockCutoff(28)), psi0, [0.1])


def branch_states(coeffs, alpha, g, times, cutoff):
    """The three-branch form of |atoms>|alpha> at each t, normalized, and
    the |1 - norm| defects of the unnormalized sums; (T, dim) and (T,)."""
    basis = coherent_branch_basis(alpha, g, times, cutoff)
    amps = np.tensordot(coeffs.to_state().amplitudes, basis, axes=(0, 1)).reshape(len(times), -1)
    norms = np.linalg.norm(amps, axis=1)
    return amps / norms[:, None], np.abs(1.0 - norms)


class TestCoherentBranches:
    @pytest.mark.parametrize("nbar", [20.0, 50.0, 100.0])
    def test_basis_matches_per_time_oracle(self, nbar):
        cut = FockCutoff.for_mean_photon(nbar)
        alpha = math.sqrt(nbar) * np.exp(0.7j)
        times = np.linspace(0.0, revival_time(-0.002), 50)
        basis = coherent_branch_basis(alpha, -0.002, times, cut)
        assert basis.shape == (50, 4, 4, cut.dim)
        for j, atoms in enumerate(np.eye(4)):
            c = AtomCoeffs.from_state(StateVector(atoms, (2, 2)))
            for k, t in enumerate(times):
                oracle = three_branch_state(c, alpha, -0.002, t, cut)
                np.testing.assert_allclose(basis[k, j].ravel(), oracle, rtol=0, atol=1e-13)

    def test_t0_reconstruction(self, rng):
        cut = FockCutoff.for_mean_photon(30.0)
        c = random_coeffs(rng)
        alpha = math.sqrt(30.0)
        psi0 = tensor(c.to_state(), coherent_state(alpha, cut))
        rec, _ = branch_states(c, alpha, 1.0, [0.0], cut)
        assert np.linalg.norm(rec[0] - psi0.amplitudes) < 1e-10

    def test_half_revival_form(self, mixed_coeffs):
        """At t_r/2 the state splits into a stationary part riding |alpha>
        and a flipped part riding |-alpha>."""
        alpha = 5.0 * np.exp(0.45j)
        cut = FockCutoff.for_mean_photon(25.0)
        rec, _ = branch_states(mixed_coeffs, alpha, 1.0, [math.pi / 2.0], cut)
        cg, ce = mixed_coeffs.c_g, mixed_coeffs.c_e
        d_plus = (cg * np.exp(0.9j) + ce * np.exp(-0.9j)) / np.sqrt(2)
        d_minus = (cg * np.exp(0.9j) - ce * np.exp(-0.9j)) / np.sqrt(2)
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
        assert np.linalg.norm(rec[0] - expected) < 1e-10

    def test_warns_for_few_photons(self):
        with pytest.warns(UserWarning, match="alpha"):
            coherent_branch_basis(2.0, 1.0, [0.5], FockCutoff(24))

    def test_branch_labels_counter_rotate(self):
        """|psi-> keeps the label alpha; |psi+> moves onto the labels
        e^{-+2igt} alpha and nothing else."""
        t, alpha = 0.37, 6.0
        cut = FockCutoff.for_mean_photon(36.0)
        basis = coherent_branch_basis(alpha, 1.0, [t], cut)[0]
        psi_minus, psi_plus = (bell_state(k).amplitudes for k in ("psi-", "psi+"))
        field = coherent_state(alpha, cut).amplitudes
        np.testing.assert_allclose(
            np.tensordot(psi_minus, basis, 1), np.outer(psi_minus, field), rtol=0, atol=1e-12
        )
        moved = np.tensordot(psi_plus, basis, 1)  # (atoms, field)
        labels = np.stack([coherent_state(alpha * np.exp(s * 2j * t), cut).amplitudes for s in (-1, 1)])
        q, _ = np.linalg.qr(labels.T)
        assert np.linalg.norm(moved) > 0.5
        assert np.max(np.abs(moved - (moved @ q.conj()) @ q.T)) < 1e-12

    @pytest.mark.parametrize("nbar,floor", [(50.0, 0.975), (100.0, 0.986)])
    def test_reconstruction_accuracy_grows_with_photons(self, nbar, floor):
        cut = FockCutoff.for_mean_photon(nbar)
        w = w_spectrum(1.0, cut)
        alpha = math.sqrt(nbar)
        times = np.linspace(0.0, math.pi, 11)
        fids = []
        for k in range(8):
            c = haar_random_two_qubit(sample_rng(77, k))
            psi0 = tensor(c.to_state(), coherent_state(alpha, cut))
            rec, _ = branch_states(c, alpha, 1.0, times, cut)
            for t, row in zip(times, rec):
                exact = w.propagate(psi0.amplitudes, [t])[0]
                fids.append(abs(np.vdot(exact, row)) ** 2)
        assert np.mean(fids) > floor

    def test_reconstruction_has_unit_norm(self):
        # the three branch weights resolve unity; only coherent-label
        # overlaps can disturb the norm, and they are tiny already here
        for nbar, t in ((16.0, 0.8), (64.0, 1.2)):
            cut = FockCutoff.for_mean_photon(nbar)
            c = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
            _, defect = branch_states(c, math.sqrt(nbar), 1.0, [t], cut)
            assert defect[0] < 1e-6


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
