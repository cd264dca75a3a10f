"""State and operator construction on the atom-atom-field spaces."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

import dicke2p
from conftest import annihilation_op, cat_state, collective_op, creation_op, fock_state, number_op
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    Operator,
    StateVector,
    bell_state,
    coherent_state,
    tensor,
)
from dicke2p.analysis import DensityMatrix
from dicke2p.dynamics import revival_time
from dicke2p.models import EffectiveModelParams, FullModelParams, effective_coupling
from dicke2p.protocols import bell_outcome_table, measurement_operator

SQRT12 = 3.4641016151377544  # sqrt(12), the |4> -> |2> pair-lowering element


class TestFockCutoff:
    def test_dim_counts_vacuum(self):
        assert FockCutoff(7).dim == 8

    @pytest.mark.parametrize(
        "nbar,expected", [(4.0, 26), (20.0, 60), (50.0, 111), (100.0, 184), (0.0, 4)]
    )
    def test_mean_photon_rule(self, nbar, expected):
        # ceil(nbar + 8 sqrt(nbar)) + 4 from nbar = 10 on; at nbar = 4 the
        # Poisson weight above ceil(4 + 16) = 20 is 1.9e-9, above 22 it is 6e-11;
        # the vacuum has no tail and keeps only the pad
        assert FockCutoff.for_mean_photon(nbar).n_max == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FockCutoff.for_mean_photon(-1.0)

    @pytest.mark.parametrize("n_max,shown", [(2.5, "2.5"), (math.nan, "nan"), ("3", "'3'")])
    def test_rejects_non_integral_n_max(self, n_max, shown):
        """A float or string cutoff would reach the Fock kernels as a float
        dim; it is refused at construction, naming the value."""
        with pytest.raises(ValueError, match=f"^n_max must be an integer >= 1, got {shown}$"):
            FockCutoff(n_max)

    def test_accepts_numpy_integers(self):
        assert FockCutoff(np.int64(40)).dim == 41

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, nbar):
        with pytest.raises(ValueError, match="^nbar must be finite and non-negative$"):
            FockCutoff.for_mean_photon(nbar)

    @staticmethod
    def gammainc_cutoff(nbar):
        """The rule with the Poisson tail above top as P(top + 1, nbar)."""
        top = int(math.ceil(nbar + 8.0 * math.sqrt(nbar)))
        while gammainc(top + 1, nbar) > 1e-10:
            top += 1
        return top + 4

    # the grid holds 0.5, 1 and 2, and every nbar the suite builds a cutoff
    # for: 4, 6, 10, 12, 14, 16, 20, 25, 30, 36, 50, 64, 100 and 1000
    def test_matches_gammainc_oracle_on_a_grid(self):
        grid = np.arange(0.0, 1000.25, 0.25)
        got = [FockCutoff.for_mean_photon(float(x)).n_max for x in grid]
        want = [self.gammainc_cutoff(float(x)) for x in grid]
        assert got == want


def test_runtime_imports_numpy_only():
    """The package, its CLI and its scans load without SciPy, and with
    numpy.random already in place for the first seeded draw."""
    src = str(Path(dicke2p.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, dicke2p, dicke2p.cli, dicke2p.scans;"
        "print('scipy' in sys.modules, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


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

    @pytest.mark.parametrize("nbar,rtol", [(4.0, 1e-13), (20.0, 1e-13), (50.0, 1e-13),
                                           (100.0, 1e-13), (1000.0, 1e-12)])
    def test_coherent_matches_gammaln_oracle(self, nbar, rtol):
        """max|delta| / max|amp| against the log-domain form with gammaln."""
        cut = FockCutoff.for_mean_photon(nbar)
        n = np.arange(cut.dim)
        for k in range(7):
            alpha = cmath.rect(math.sqrt(nbar), 2.0 * math.pi * k / 7)
            r = abs(alpha)
            logmag = -0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1)
            ref = np.exp(logmag + 1j * n * cmath.phase(alpha))
            ref /= np.linalg.norm(ref)
            amps = coherent_state(alpha, cut).amplitudes
            assert np.max(np.abs(amps - ref)) <= rtol * np.max(np.abs(ref))

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

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state kind 'psi'"):
            bell_state("psi")

    def test_psi_ignores_phase(self):
        np.testing.assert_allclose(
            bell_state("psi-", 0.0).amplitudes, bell_state("psi-", 1.1).amplitudes
        )


class TestTensorAndTags:
    def test_state_tensor_dims(self, small_cutoff, mixed_coeffs):
        psi = tensor(mixed_coeffs.to_state(), coherent_state(1.0, small_cutoff))
        assert psi.dims == (2, 2, small_cutoff.dim)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    def test_mixed_tensor_rejected(self, small_cutoff):
        with pytest.raises(TypeError):
            tensor(measurement_operator(0.0, "+"), fock_state(0, small_cutoff))


class TestStateVector:
    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector.normalized(np.zeros(4), (2, 2))

    def test_normalized_rescales(self):
        v = StateVector.normalized(np.array([3.0, 0, 0, 4.0]), (2, 2))
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0)

    def test_normalized_owns_a_frozen_copy_and_checks_the_size(self):
        raw = np.array([1.0, 2.0j, 0.5, -1.0])
        expected = raw / np.linalg.norm(raw)
        v = StateVector.normalized(raw, (2, 2))
        raw[0] = 7.0
        assert np.array_equal(v.amplitudes, expected)
        assert not v.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="amplitude length"):
            StateVector.normalized(np.ones(3), (2, 2))

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

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 1), (2,)])
    def test_from_state_needs_two_qubits(self, dims):
        state = StateVector.normalized(np.ones(math.prod(dims)), dims)
        with pytest.raises(ValueError, match="expected a two-qubit state"):
            AtomCoeffs.from_state(state)

    def test_bell_component_extraction(self):
        psi_minus = AtomCoeffs.from_state(bell_state("psi-"))
        np.testing.assert_allclose(psi_minus.as_array(), [0, 1, 0, 0], atol=1e-12)


_CUT = FockCutoff(40)


def _full_params(**changes):
    return FullModelParams(**{"omega": 0.0, "delta": 500.0, "g_g": 1.0, "g_e": 1.0,
                              "cutoff": _CUT, **changes})


@pytest.mark.parametrize(
    "build",
    [
        lambda: AtomCoeffs(math.nan, 0, 0, 0),
        lambda: AtomCoeffs.normalized(math.nan, 1, 0, 0),
        lambda: StateVector(np.array([math.nan, 0]), (2,)),
        lambda: StateVector.normalized(np.array([math.nan, 1]), (2,)),
        lambda: DensityMatrix(np.full((2, 2), math.nan), (2,)),
        lambda: DensityMatrix.outer(np.array([math.nan, 0]), (2,)),
        lambda: coherent_state(math.nan, _CUT),
        lambda: bell_outcome_table(AtomCoeffs(1, 0, 0, 0), math.nan, -0.002, _CUT),
        lambda: EffectiveModelParams(math.nan, _CUT),
        lambda: EffectiveModelParams(math.inf, _CUT),
        lambda: _full_params(delta=math.nan),
        lambda: _full_params(g_g=math.nan),
        lambda: _full_params(g_e=math.nan),
        lambda: _full_params(omega=math.nan),
        lambda: revival_time(math.nan),
        lambda: revival_time(math.inf),
        lambda: effective_coupling(1.0, 1.0, math.nan),
    ],
    ids=["AtomCoeffs", "AtomCoeffs.normalized", "StateVector", "StateVector.normalized",
         "DensityMatrix", "DensityMatrix.outer", "coherent_state", "bell_outcome_table",
         "EffectiveModelParams-nan", "EffectiveModelParams-inf", "FullModelParams-delta",
         "FullModelParams-g_g", "FullModelParams-g_e", "FullModelParams-omega",
         "revival_time-nan", "revival_time-inf", "effective_coupling"],
)
def test_validators_refuse_non_finite_input(build):
    """Every bound is written as 'not <accept condition>', so NaN fails it,
    and the model parameters and the revival time need finite values."""
    with pytest.raises(ValueError):
        build()
