"""State and operator construction on the atom-atom-field spaces."""

import math

import numpy as np
import pytest

from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    Operator,
    StateVector,
    annihilation_op,
    atom_tag,
    bell_state,
    cat_state,
    coherent_state,
    collective_op,
    creation_op,
    fock_state,
    identity_op,
    number_op,
    tensor,
    tripartite_tag,
    two_qubit_tag,
)

SQRT12 = 3.4641016151377544  # sqrt(12), the |4> -> |2> pair-lowering element


class TestFockCutoff:
    def test_dim_counts_vacuum(self):
        assert FockCutoff(7).dim == 8

    @pytest.mark.parametrize(
        "nbar,expected", [(4.0, 26), (20.0, 60), (50.0, 111), (100.0, 184)]
    )
    def test_mean_photon_rule(self, nbar, expected):
        # ceil(nbar + 8 sqrt(nbar)) + 4 from nbar = 10 on; at nbar = 4 the
        # Poisson weight above ceil(4 + 16) = 20 is 1.9e-9, above 22 it is 6e-11
        assert FockCutoff.for_mean_photon(nbar).n_max == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FockCutoff.for_mean_photon(-1.0)


class TestFieldStates:
    def test_fock_is_basis_vector(self, small_cutoff):
        v = fock_state(3, small_cutoff)
        assert v.amplitudes[3] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1

    def test_coherent_poisson_profile(self, small_cutoff):
        alpha = 1.3 * np.exp(0.4j)
        amps = coherent_state(alpha, small_cutoff).amplitudes
        n = np.arange(small_cutoff.dim)
        fact = np.array([math.factorial(int(k)) for k in n], dtype=np.float64)
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(fact)
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    def test_coherent_mean_photon(self, small_cutoff):
        amps = coherent_state(1.4, small_cutoff).amplitudes
        nbar = float(np.sum(np.arange(small_cutoff.dim) * np.abs(amps) ** 2))
        assert nbar == pytest.approx(1.96, abs=1e-9)

    def test_coherent_cutoff_guard(self):
        with pytest.raises(ValueError, match="too small"):
            coherent_state(3.0, FockCutoff(10))

    def test_cat_parity_support(self, small_cutoff):
        even = cat_state(1.0, "+", small_cutoff).amplitudes
        odd = cat_state(1.0, "-", small_cutoff).amplitudes
        assert np.max(np.abs(even[1::2])) < 1e-15
        assert np.max(np.abs(odd[0::2])) < 1e-15
        assert np.linalg.norm(even) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(odd) == pytest.approx(1.0, abs=1e-12)

    def test_cat_rejects_other_labels(self, small_cutoff):
        with pytest.raises(ValueError):
            cat_state(1.0, "even", small_cutoff)

    def test_opposite_cats_are_orthogonal(self, small_cutoff):
        plus = cat_state(1.2, "+", small_cutoff).amplitudes
        minus = cat_state(1.2, "-", small_cutoff).amplitudes
        assert abs(np.vdot(plus, minus)) < 1e-12


class TestFieldOperators:
    def test_annihilation_rule(self, small_cutoff):
        a = annihilation_op(small_cutoff).matrix
        v = a @ fock_state(4, small_cutoff).amplitudes
        assert v[3] == pytest.approx(2.0)
        assert np.linalg.norm(v) == pytest.approx(2.0)

    def test_pair_lowering_element(self, small_cutoff):
        a = annihilation_op(small_cutoff).matrix
        assert (a @ a)[2, 4] == pytest.approx(SQRT12, abs=1e-12)

    def test_number_is_ad_a(self, small_cutoff):
        a = annihilation_op(small_cutoff).matrix
        ad = creation_op(small_cutoff).matrix
        np.testing.assert_allclose(ad @ a, number_op(small_cutoff).matrix, atol=1e-14)

    def test_commutator_away_from_edge(self, small_cutoff):
        a = annihilation_op(small_cutoff).matrix
        ad = creation_op(small_cutoff).matrix
        comm = a @ ad - ad @ a
        # identity except the clipped top level
        np.testing.assert_allclose(comm[:-1, :-1], np.eye(small_cutoff.dim - 1), atol=1e-14)
        assert comm[-1, -1] == pytest.approx(-small_cutoff.n_max)


class TestAtomicOperators:
    def test_collective_excited_counter(self):
        s_ee = collective_op("e", "e").matrix
        np.testing.assert_allclose(np.diag(s_ee), [0.0, 1.0, 1.0, 2.0])

    def test_collective_raising_elements(self):
        s_eg = collective_op("e", "g").matrix
        gg, ge, eg, ee = np.eye(4)
        assert s_eg @ gg == pytest.approx(ge + eg)
        assert s_eg @ (ge + eg) == pytest.approx(2 * ee)

    def test_adjoint_pair(self):
        np.testing.assert_allclose(
            collective_op("g", "e").matrix,
            collective_op("e", "g").matrix.conj().T,
        )

    def test_three_level_dims(self):
        op = collective_op("i", "g", levels_per_atom=3)
        assert op.matrix.shape == (9, 9)

    def test_identity(self):
        assert np.array_equal(identity_op(two_qubit_tag()).matrix, np.eye(4))


class TestBellStates:
    def test_orthonormal_family(self):
        kinds = ("psi+", "psi-", "phi+", "phi-")
        mat = np.stack([bell_state(k, 0.7).amplitudes for k in kinds])
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)

    def test_phi_carries_field_phase(self):
        amps = bell_state("phi+", 0.3).amplitudes
        assert amps[0] == pytest.approx(np.exp(-0.3j) / np.sqrt(2))
        assert amps[3] == pytest.approx(np.exp(+0.3j) / np.sqrt(2))
        assert amps[1] == amps[2] == 0

    def test_psi_ignores_phase(self):
        np.testing.assert_allclose(
            bell_state("psi-", 0.0).amplitudes, bell_state("psi-", 1.1).amplitudes
        )


class TestTensorAndTags:
    def test_state_tensor_dims(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), coherent_state(1.0, small_cutoff))
        assert psi.space.dims == (2, 2, small_cutoff.dim)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_operator_tensor_is_kron(self, small_cutoff):
        left = collective_op("e", "e")
        right = number_op(small_cutoff)
        prod = tensor(left, right)
        np.testing.assert_allclose(prod.matrix, np.kron(left.matrix, right.matrix))

    def test_mixed_tensor_rejected(self, small_cutoff):
        with pytest.raises(TypeError):
            tensor(collective_op("e", "e"), fock_state(0, small_cutoff))

    def test_tripartite_tag_dims(self, small_cutoff):
        assert tripartite_tag(small_cutoff).dims == (2, 2, small_cutoff.dim)
        assert tripartite_tag(small_cutoff, levels=3).dims == (3, 3, small_cutoff.dim)
        assert atom_tag(3).dims == (3,)


class TestStateVector:
    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector.normalized(np.zeros(4), two_qubit_tag())

    def test_normalized_rescales(self):
        v = StateVector.normalized(np.array([3.0, 0, 0, 4.0]), two_qubit_tag())
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0)

    def test_operator_hermitian_flag(self, small_cutoff):
        assert number_op(small_cutoff).hermitian is True
        assert annihilation_op(small_cutoff).hermitian is not True


class TestAtomCoeffs:
    def test_round_trip_through_product_basis(self, mixed_coeffs):
        back = AtomCoeffs.from_state(mixed_coeffs.to_state())
        np.testing.assert_allclose(back.as_array(), mixed_coeffs.as_array(), atol=1e-12)

    def test_norm_guard(self):
        with pytest.raises(ValueError):
            AtomCoeffs(0.9, 0.0, 0.0, 0.0)

    def test_bell_component_extraction(self):
        psi_minus = AtomCoeffs.from_state(bell_state("psi-"))
        np.testing.assert_allclose(psi_minus.as_array(), [0, 1, 0, 0], atol=1e-12)

    def test_d_pair_formula(self, mixed_coeffs):
        d_plus, d_minus = mixed_coeffs.d_pair(0.6)
        cg, ce = mixed_coeffs.c_g, mixed_coeffs.c_e
        assert d_plus == pytest.approx((cg * np.exp(0.6j) + ce * np.exp(-0.6j)) / np.sqrt(2))
        assert d_minus == pytest.approx((cg * np.exp(0.6j) - ce * np.exp(-0.6j)) / np.sqrt(2))
