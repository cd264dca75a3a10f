"""Three-level model, its conserved excitation number, and the reduction to
the two-photon interaction plus Stark shifts."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    DENSE_DIM_LIMIT,
    constant_of_motion,
    dispersive_generator,
    embed_indices,
    embed_two_level_state,
    excitation_labels,
    fock_state,
    full_hamiltonian,
    stark_shift,
    traced_peak,
    trapped_ion_coupling,
    two_photon_w,
)
from dicke2p.dynamics import sector_spectrum
from dicke2p.hilbert import FockCutoff, tensor
from dicke2p.models import (
    EffectiveModelParams,
    FullModelParams,
    VALIDITY_MARGIN,
    W_SLOTS,
    effective_coupling,
    sector_blocks,
    sector_index,
    validity_report,
)


@pytest.fixture(scope="module")
def full_params():
    return FullModelParams(
        omega=1.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=FockCutoff(20)
    )


@pytest.fixture(scope="module")
def eff_params():
    return EffectiveModelParams(g=-0.002, cutoff=FockCutoff(20))


def max_commutator(a, b):
    return float(np.max(np.abs(a @ b - b @ a)))


class TestCouplings:
    def test_effective_coupling_value(self):
        assert effective_coupling(1.0, 1.0, 500.0) == pytest.approx(-0.002)

    def test_effective_coupling_product(self):
        assert effective_coupling(2.0, 3.0, 10.0) == pytest.approx(-0.6)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            effective_coupling(1.0, 1.0, 0.0)

    def test_negative_detuning_rejected_as_in_the_full_model(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            effective_coupling(1.0, 1.0, -500.0)

    def test_trapped_ion_magnitude(self):
        # Omega eta^2 / 2 at Omega = 2 pi kHz, eta = 1e-2
        g = trapped_ion_coupling(2.0 * math.pi * 1e3, 1e-2)
        assert abs(g) == pytest.approx(0.3141592653589793, rel=1e-12)

    def test_trapped_ion_vanishes_without_confinement(self):
        assert trapped_ion_coupling(2.0 * math.pi * 1e3, 0.0) == 0.0


class TestFullModel:
    def test_hermitian(self, full_params):
        h = full_hamiltonian(full_params).matrix
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_conserves_excitation_number(self, full_params):
        h = full_hamiltonian(full_params).matrix
        i3 = constant_of_motion(full_params.cutoff, levels=3).matrix
        assert max_commutator(h, i3) < 1e-10

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError):
            FullModelParams(omega=0.0, delta=500.0, g_g=0.0, g_e=1.0, cutoff=FockCutoff(8))


class TestTwoPhotonW:
    def test_hermitian(self, eff_params):
        w = two_photon_w(eff_params).matrix
        np.testing.assert_allclose(w, w.conj().T, atol=1e-14)

    def test_conserves_excitation_number(self, eff_params):
        w = two_photon_w(eff_params).matrix
        i2 = constant_of_motion(eff_params.cutoff, levels=2).matrix
        assert max_commutator(w, i2) < 1e-12

    def test_pair_exchange_element(self):
        # <psi+, 2| W |gg, 4> = g sqrt(2) sqrt(4*3) at unit coupling
        w = two_photon_w(EffectiveModelParams(g=1.0, cutoff=FockCutoff(8))).matrix
        nf = 9
        gg4 = np.zeros(4 * nf)
        gg4[4] = 1.0
        psi_plus_2 = np.zeros(4 * nf)
        psi_plus_2[nf + 2] = 1 / math.sqrt(2)
        psi_plus_2[2 * nf + 2] = 1 / math.sqrt(2)
        assert psi_plus_2 @ w @ gg4 == pytest.approx(4.898979485566356, abs=1e-12)

    def test_block_assembly_matches(self, eff_params):
        """The interaction decomposes exactly into the photon-sector blocks
        of the paper: couplings g sqrt(2) sqrt(n^2-n) and
        g sqrt(2) sqrt(n^2-5n+6) in the layout {|gg,n>, |psi+,n-2>, |ee,n-4>}."""
        w = two_photon_w(eff_params).matrix
        nf = eff_params.cutoff.dim
        n_max = eff_params.cutoff.n_max
        sq = 1 / math.sqrt(2)
        rebuilt = np.zeros_like(w)
        for n in range(2, n_max + 5):
            basis = []
            for level, offset in ((0, 0), (None, 2), (3, 4)):
                idx_f = n - offset
                vec = np.zeros(4 * nf)
                if 0 <= idx_f <= n_max:
                    if level is None:  # symmetric one-excitation pair
                        vec[1 * nf + idx_f] = sq
                        vec[2 * nf + idx_f] = sq
                    else:
                        vec[level * nf + idx_f] = 1.0
                basis.append(vec)
            b = np.stack(basis, axis=1)
            upper = eff_params.g * math.sqrt(2.0) * math.sqrt(n * n - n)
            lower = eff_params.g * math.sqrt(2.0) * math.sqrt(n * n - 5 * n + 6)
            block = np.array([[0.0, upper, 0.0], [upper, 0.0, lower], [0.0, lower, 0.0]])
            rebuilt += b @ block @ b.T
        np.testing.assert_allclose(rebuilt, w, atol=1e-14)


class TestExcitationSectors:
    @pytest.mark.parametrize("levels", [2, 3])
    def test_labels_are_the_constant_of_motion(self, levels):
        cut = FockCutoff(7)
        np.testing.assert_array_equal(
            excitation_labels(cut, levels), np.diag(constant_of_motion(cut, levels).matrix).real
        )

    def test_one_layout_for_both_models(self):
        """W's layout is the full model's slots W_SLOTS on the same rows,
        the flat two-level index mapped by the two-to-three-level embedding
        and the sentinel to the sentinel, on every row: N < 4, where some
        photon numbers are negative, and N > n_max included.  Every row of
        both layouts holds the states of excitation N alone."""
        for cut in (FockCutoff(1), FockCutoff(3), FockCutoff(9)):
            two, three = sector_index(cut, 2), sector_index(cut, 3)
            assert two.shape == (cut.dim + 4, 4) and three.shape == (cut.dim + 4, 9)
            embed = np.append(embed_indices(cut), 9 * cut.dim)  # the sentinel 4 dim -> 9 dim
            np.testing.assert_array_equal(three[:, W_SLOTS], embed[two])
            for levels, index in ((2, two), (3, three)):
                dim = levels * levels * cut.dim
                real = index < dim
                labels = np.append(excitation_labels(cut, levels), -1)[index]
                rows = np.broadcast_to(np.arange(len(index))[:, None], index.shape)
                np.testing.assert_array_equal(labels[real], rows[real])
                np.testing.assert_array_equal(np.sort(index[real]), np.arange(dim))

    @pytest.mark.parametrize("which", ["full", "w"])
    def test_blocks_equal_dense_operator_per_sector(self, which):
        cut = FockCutoff(11)
        if which == "full":
            params = FullModelParams(omega=0.7, delta=3.0, g_g=1.1, g_e=0.6, cutoff=cut)
            dense = full_hamiltonian(params).matrix
            index, blocks, dims = sector_blocks(params)
        else:
            # W has no blocks: its closed-form spectrum rebuilds them
            params = EffectiveModelParams(g=-0.8, cutoff=cut)
            dense = two_photon_w(params).matrix
            spec = sector_spectrum(params)
            index, dims = spec.index, spec.dims
            blocks = (spec.vectors * spec.values[:, None, :]) @ spec.vectors.transpose(0, 2, 1)
        assert math.prod(dims) == dense.shape[0]
        assert index.shape[1] == (9 if which == "full" else 4)
        real = index < dense.shape[0]
        np.testing.assert_array_equal(np.sort(index[real]), np.arange(dense.shape[0]))
        labels = np.diag(constant_of_motion(cut, 3 if which == "full" else 2).matrix).real
        if which == "full":  # the rows and columns of sentinel slots come zeroed
            np.testing.assert_array_equal(blocks * ~(real[:, :, None] & real[:, None, :]), 0.0)
        for row, block, ok in zip(index, blocks, real):
            sel = row[ok]
            assert np.all(labels[sel] == labels[sel[0]])
            np.testing.assert_allclose(
                block[np.ix_(ok, ok)], dense[np.ix_(sel, sel)], rtol=0, atol=1e-14
            )


class TestDenseGuard:
    @pytest.mark.parametrize(
        "build,dim",
        [
            (lambda c: full_hamiltonian(FullModelParams(0.0, 500.0, 1.0, 1.0, c)), 9009),
            (lambda c: two_photon_w(EffectiveModelParams(-0.002, c)), 4004),
            (lambda c: stark_shift(FullModelParams(0.0, 500.0, 1.0, 1.0, c)), 4004),
            (lambda c: dispersive_generator(FullModelParams(0.0, 500.0, 1.0, 1.0, c)), 9009),
            (lambda c: constant_of_motion(c, levels=3), 9009),
        ],
        ids=["full", "w", "stark", "dispersive", "constant"],
    )
    def test_refuses_before_allocating(self, build, dim):
        assert dim > DENSE_DIM_LIMIT
        with traced_peak() as mem, pytest.raises(ValueError) as exc:
            build(FockCutoff(1000))
        msg = str(exc.value)
        assert f"dimension {dim}" in msg
        assert f"{16 * dim * dim:,} bytes" in msg
        assert "sector" in msg
        assert mem.peak < 2**20

    def test_limit_admits_the_three_level_model_at_nbar_100(self):
        assert 9 * FockCutoff.for_mean_photon(100.0).dim <= DENSE_DIM_LIMIT


class TestStarkShift:
    def test_diagonal(self, full_params):
        s = stark_shift(full_params).matrix
        assert np.max(np.abs(s - np.diag(np.diag(s)))) == 0.0

    @pytest.mark.parametrize(
        "block,extra",
        [(0, 0.0), (1, 1.0), (2, 1.0), (3, 2.0)],
        ids=["gg", "ge", "eg", "ee"],
    )
    def test_balanced_coupling_levels(self, full_params, block, extra):
        # with g_g = g_e the shift per level is -(g^2/delta)(2n + 2*n_e) + 3(g^2/delta) n_e
        s = np.diag(stark_shift(full_params).matrix).real
        nf = full_params.cutoff.dim
        n = np.arange(nf)
        scale = full_params.g_g**2 / full_params.delta
        expected = -scale * (2 * n + 4 * extra) + 3 * scale * extra
        np.testing.assert_allclose(s[block * nf : (block + 1) * nf], expected, atol=1e-14)

    def test_photon_dependent_part_needs_imbalance(self):
        cut = FockCutoff(12)
        balanced = stark_shift(
            FullModelParams(omega=0.0, delta=100.0, g_g=1.0, g_e=1.0, cutoff=cut)
        ).matrix
        skewed = stark_shift(
            FullModelParams(omega=0.0, delta=100.0, g_g=1.0, g_e=1.2, cutoff=cut)
        ).matrix
        diff = np.diag(skewed - balanced).real
        nf = cut.dim
        # the imbalance term grows linearly in n on excited blocks only
        assert np.ptp(diff[:nf]) == pytest.approx(0.0, abs=1e-14)
        assert np.ptp(diff[3 * nf :]) > 0.01


class TestDispersiveReduction:
    def test_transformed_model_matches_reduction(self):
        """Rotating out the far-detuned level reproduces the two-photon model
        plus Stark shifts on the populated photon range."""
        nbar = 20.0
        cut = FockCutoff.for_mean_photon(nbar)
        params = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=cut)
        h = full_hamiltonian(params).matrix
        u = expm(dispersive_generator(params))
        idx = embed_indices(cut)
        transformed = (u @ h @ u.conj().T)[np.ix_(idx, idx)]
        w = two_photon_w(
            EffectiveModelParams(g=effective_coupling(1.0, 1.0, 500.0), cutoff=cut)
        ).matrix
        target = stark_shift(params).matrix + w
        # compare where a state of mean photon number nbar actually lives;
        # the top Fock level only misses its clipped upward pathway
        keep = int(2 * nbar)
        nf = cut.dim
        sel = np.concatenate([np.arange(b * nf, b * nf + keep) for b in range(4)])
        resid = np.max(np.abs((transformed - target)[np.ix_(sel, sel)]))
        tol = 5.0 * (params.g_e**2 * nbar / params.delta**2) * np.linalg.norm(w, 2)
        assert resid < tol

    def test_generator_antihermitian(self, full_params):
        g = dispersive_generator(full_params)
        np.testing.assert_allclose(g, -g.conj().T, atol=1e-14)

    def test_embedding_round_trip(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), fock_state(2, small_cutoff))
        lifted = embed_two_level_state(psi, small_cutoff)
        assert lifted.dims == (3, 3, small_cutoff.dim)
        back = lifted.amplitudes[embed_indices(small_cutoff)]
        np.testing.assert_allclose(back, psi.amplitudes, atol=1e-14)


class TestValidityReport:
    def test_balanced_couplings_cancel_stark(self):
        p = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=FockCutoff(8))
        assert validity_report(p, 10.0).stark_closeness_ok

    def test_revival_outside_horizon(self):
        p = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=FockCutoff(8))
        report = validity_report(p, 50.0)
        # 50 pi > margin * delta = 50
        assert not report.revival_reachable_ok
        assert not report.ok

    def test_horizon_scales_inversely_with_photons(self):
        p = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=FockCutoff(8))
        t1 = validity_report(p, 10.0).time_horizon
        t2 = validity_report(p, 20.0).time_horizon
        assert t1 == pytest.approx(2.0 * t2)
        assert t1 == pytest.approx(VALIDITY_MARGIN * 500.0**2 / 10.0)

    def test_report_carries_the_numbers_it_compares(self):
        p = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.1, cutoff=FockCutoff(8))
        report = validity_report(p, 10.0)
        assert report.stark_shift == abs(1.1**2 - 1.0)
        assert report.stark_limit == 1.1**3 / 500.0
        assert report.revival_phase == 1.1 * 10.0 * math.pi
        assert report.revival_limit == VALIDITY_MARGIN * 500.0
        assert not report.stark_closeness_ok and report.revival_reachable_ok

    @pytest.mark.parametrize("nbar", [0.0, -1.0, math.nan])
    def test_refuses_nonpositive_photon_number(self, nbar):
        p = FullModelParams(omega=0.0, delta=500.0, g_g=1.0, g_e=1.0, cutoff=FockCutoff(8))
        with pytest.raises(ValueError, match="nbar must be positive"):
            validity_report(p, nbar)


class TestModelGuards:
    @pytest.mark.parametrize("delta", [0.0, -500.0])
    def test_full_model_needs_a_positive_detuning(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            FullModelParams(omega=0.0, delta=delta, g_g=1.0, g_e=1.0, cutoff=FockCutoff(8))

    @pytest.mark.parametrize("levels", [1, 4])
    def test_labels_know_two_and_three_levels_only(self, levels):
        with pytest.raises(ValueError, match="levels must be 2 or 3"):
            sector_index(FockCutoff(4), levels=levels)

    def test_blocks_need_model_parameters(self):
        """Only the full model has blocks; W's spectrum is in closed form."""
        for params in (FockCutoff(4), EffectiveModelParams(1.0, FockCutoff(4))):
            with pytest.raises(TypeError, match="expected FullModelParams"):
                sector_blocks(params)
