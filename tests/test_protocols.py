"""GHZ generation, the two-cavity Bell measurement, and homodyne readout."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import cavity_maps_oracle, coherent_branch_basis, traced_peak
from dicke2p.dynamics import sector_spectrum
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    bell_state,
    coherent_state,
    hermite_sum,
    tensor,
)
from dicke2p.models import EffectiveModelParams
from dicke2p.protocols import (
    ALL_OUTCOMES,
    HomodyneConfig,
    OutcomeLabel,
    ProtocolResult,
    bell_outcome_arrays,
    bell_outcome_table,
    bell_target,
    composed_measurement,
    correction_gate,
    ghz_input,
    ghz_target,
    homodyne_measure,
    homodyne_outcome_table,
    measurement_operator,
    run_bell_protocol,
    run_ghz,
)

PHI = math.pi / 8.0
G = -0.002
T_HALF = math.pi / (2.0 * abs(G))
# cavity 2's field is cavity 1's turned by pi/4: tests build its map afresh
CAVITY2_TURN = np.exp(1j * math.pi / 4.0)

# 40 seeded homodyne shots (seed 7, shots 0-39) at nbar = 20, efficiency 0.5,
# lo_phase = phi = pi/8, g = -0.002, on AtomCoeffs.normalized(0.3, 0.85, 0.35,
# 0.3): outcome indices in ALL_OUTCOMES order and record_x.hex(), as the shots
# drawn one at a time from a per-shot law gave them before the law read cavity
# 2 at every grid column.
FROZEN_HOMODYNE_SHOTS = {
    "exact": (
        "0000120301300203000000020010003000000010",
        (
            "0x1.50a630a21b433p+2", "0x1.19e8b9ba7153ap+2", "0x1.fc045e75d750ep+1",
            "0x1.c9c7bc20e29a9p+1", "0x1.0c051d1ee8cdap+2", "-0x1.1aed6a6be730ap+2",
            "0x1.e8151a03e572cp+1", "-0x1.4daae199fdb9ep+2", "0x1.1839346a5b4b1p+2",
            "0x1.07b5969b13e0fp+2", "-0x1.8346e90706b42p+2", "0x1.cbe7fe8974ca8p+1",
            "0x1.bdbdb390da2c8p+1", "-0x1.4896227e8da08p+2", "0x1.1262290ae73d7p+2",
            "-0x1.4ea2e8fbe2a1ap+2", "0x1.245d1b84922a2p+2", "0x1.7ea41c8e51873p+2",
            "0x1.64fe5fd164f72p+1", "0x1.e4462ac4faae0p+1", "0x1.3b0eb39cba35ep+2",
            "0x1.1abe1e747b1acp+2", "0x1.274504de1f45cp+2", "-0x1.3909ed74e42f3p+2",
            "0x1.4837d7a3bf44cp+2", "0x1.f7b9bc39bb49ap+1", "0x1.ff742abb05c2ep+1",
            "0x1.20767857b474ep+2", "0x1.230189ee09eb3p+2", "0x1.5af0ac69d6ec1p+2",
            "-0x1.3d6584860e2b0p+2", "0x1.38c1f9d37c0abp+2", "0x1.20149f745a22ep+2",
            "0x1.06f1d446c0f77p+2", "0x1.142614d8706fcp+2", "0x1.3dfe9ee2a3c89p+2",
            "0x1.2df26fd56f714p+2", "0x1.bc7eca4b313a5p+1", "0x1.b098fd5be9fddp+1",
            "0x1.133710a550824p+2",
        ),
    ),
    "analytic": (
        "0000120201300203000000020010003000100010",
        (
            "0x1.500aff9d91a9dp+2", "0x1.194d88b5e7ba4p+2", "0x1.fd3ac07eea83ap+1",
            "0x1.c9c7bc20e29a9p+1", "0x1.0c051d1ee8cdap+2", "-0x1.1880a659c0cafp+2",
            "0x1.e8151a03e572cp+1", "-0x1.4a07bb7ec4216p+2", "0x1.179e0365d1b19p+2",
            "0x1.0850c79f9d7a5p+2", "-0x1.7e6d60e2b9e8dp+2", "0x1.ce54c29b9b304p+1",
            "0x1.bef41599ed5f4p+1", "-0x1.47faf17a04072p+2", "0x1.11c6f8065da3fp+2",
            "-0x1.4a6491dc1f6fbp+2", "0x1.24f84c891bc38p+2", "0x1.7d6dba853e547p+2",
            "0x1.68a185ec9e8fap+1", "0x1.e4462ac4faae0p+1", "0x1.3b0eb39cba35ep+2",
            "0x1.1a22ed6ff1816p+2", "0x1.26a9d3d995ac4p+2", "-0x1.3b76b1870a94ep+2",
            "0x1.479ca69f35ab4p+2", "0x1.fa26804be1af6p+1", "0x1.005546620c7adp+2",
            "0x1.2111a95c3e0e4p+2", "0x1.230189ee09eb3p+2", "0x1.59ba4a60c3b95p+2",
            "-0x1.3a5d8f6f5e2bep+2", "0x1.3826c8cef2713p+2", "0x1.21e63281f6ef2p+2",
            "0x1.078d054b4a90dp+2", "0x1.14c145dcfa094p+2", "0x1.3d636dde1a2f3p+2",
            "0x1.2e8da0d9f90aap+2", "0x1.beeb8e5d579fdp+1", "0x1.b572858036c91p+1",
            "0x1.13d241a9da1bap+2",
        ),
    ),
}


def assert_same_result(a: ProtocolResult, b: ProtocolResult) -> None:
    """Every field equal bit for bit; a NaN fidelity equals a NaN."""
    for f in dataclasses.fields(ProtocolResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "post_state":
            np.testing.assert_array_equal(x.matrix, y.matrix)
        else:
            assert x == y or (x != x and y != y), f.name


@pytest.fixture(scope="module")
def cut20():
    return FockCutoff.for_mean_photon(20.0)


@pytest.fixture(scope="module")
def alpha20():
    return math.sqrt(20.0) * np.exp(1j * PHI)


@pytest.fixture(scope="module")
def table20(cut20, alpha20):
    c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
    return c, bell_outcome_table(c, alpha20, G, cut20)


@pytest.fixture(scope="module")
def joint20(table20, cut20, alpha20):
    """Cavity-1 joint state at t_r/2, evolved without the protocol's maps."""
    c, _ = table20
    psi0 = tensor(c.to_state(), coherent_state(alpha20, cut20))
    spectrum = sector_spectrum(EffectiveModelParams(G, cut20))
    amps = spectrum.propagate(psi0.amplitudes, [T_HALF])[0]
    return StateVector(amps, psi0.dims)


class TestGhz:
    def test_input_is_product_preparation(self):
        coeffs, single = ghz_input(0.45)
        joint = tensor(single, single)
        np.testing.assert_allclose(
            coeffs.to_state().amplitudes, joint.amplitudes, atol=1e-12
        )

    def test_target_structure(self, cut20, alpha20):
        target = ghz_target(alpha20, PHI, cut20)
        assert np.linalg.norm(target.amplitudes) == pytest.approx(1.0, abs=1e-10)
        # the |phi-> component rides |alpha>, the |phi+> one rides |-alpha>
        mat = target.amplitudes.reshape(4, cut20.dim)
        bell_m = bell_state("phi-", 2 * PHI).amplitudes
        proj = bell_m.conj() @ mat
        overlap = np.vdot(coherent_state(alpha20, cut20).amplitudes, proj)
        assert abs(overlap) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_target_rejects_bad_sign(self, cut20, alpha20):
        with pytest.raises(ValueError):
            ghz_target(alpha20, PHI, cut20, g_sign=2)

    def test_analytic_engine_hits_target_exactly(self, cut20):
        fid = run_ghz(math.sqrt(20.0), math.pi / 4, G, cut20, engine="analytic")
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_exact_fidelity_frozen_values(self):
        f10 = run_ghz(math.sqrt(10.0), math.pi / 4, G, FockCutoff.for_mean_photon(10.0))
        f20 = run_ghz(math.sqrt(20.0), math.pi / 4, G, FockCutoff.for_mean_photon(20.0))
        assert f10 == pytest.approx(0.7917574084397762, abs=1e-9)
        assert f20 == pytest.approx(0.9124782220769261, abs=1e-9)

    def test_exact_engine_evolves_no_state(self, monkeypatch):
        """run_ghz reads the cavity map, which stops at the phase table:
        with the cache cleared and propagation refused it still runs."""
        from dicke2p import protocols
        from dicke2p.dynamics import SectorSpectrum

        def refuse(*args):
            raise AssertionError("run_ghz propagated a state")

        protocols._cavity.cache_clear()
        monkeypatch.setattr(SectorSpectrum, "propagate", refuse)
        fid = run_ghz(math.sqrt(10.0), math.pi / 4, G, FockCutoff.for_mean_photon(10.0), "exact")
        assert fid == pytest.approx(0.7917574084397762, abs=1e-9)


class TestMeasurementAlgebra:
    def test_povm_completeness(self):
        total = np.zeros((4, 4), dtype=complex)
        for out in ALL_OUTCOMES:
            m = composed_measurement(0.37, out.d1, out.d2)
            total += m.conj().T @ m
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_composition_order(self):
        m = composed_measurement(PHI, "+", "-")
        manual = measurement_operator(PHI + math.pi / 4.0, "-") @ measurement_operator(PHI, "+")
        np.testing.assert_allclose(m, manual, atol=1e-14)

    def test_plus_operator_projects(self):
        m = measurement_operator(PHI, "+")
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.vdot(bell_state("psi+").amplitudes,
                           m @ bell_state("psi+").amplitudes)) < 1e-12

    def test_minus_operator_swaps_even_pair(self):
        m = measurement_operator(PHI, "-")
        out = m @ bell_state("psi+").amplitudes
        expected = -1j * bell_state("phi+", 2 * PHI).amplitudes
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_turned_atoms_read_the_second_cavity(self, sign):
        """D M_phi^s D^dag = M_{phi+pi/4}^s, with D = diag(1, i, i, -1) the
        turn by which the chain reads cavity 2 from cavity 1's map."""
        from dicke2p import protocols

        for phi in (0.0, PHI, 0.37, -1.2):
            np.testing.assert_allclose(
                protocols._turned(measurement_operator(phi, sign)),
                measurement_operator(phi + math.pi / 4.0, sign),
                rtol=0,
                atol=1e-15,
            )

    def test_correction_gates_unitary_and_local(self):
        for out in ALL_OUTCOMES:
            u = correction_gate(out, PHI)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
            # acts on atom A only: commutes with anything on atom B
            other = np.kron(np.eye(2), np.diag([1.0, -1.0]))
            np.testing.assert_allclose(u @ other, other @ u, atol=1e-12)

    def test_corrected_operators_point_at_bell_targets(self):
        for out in ALL_OUTCOMES:
            m = composed_measurement(PHI, out.d1, out.d2)
            p = correction_gate(out, PHI) @ m
            t = bell_target(out, PHI).amplitudes
            projector = p @ p.conj().T
            np.testing.assert_allclose(projector, np.outer(t, t.conj()), atol=1e-12)

    def test_operators_are_read_only_arrays(self):
        """The gates are cached and shared, so no caller may write to them."""
        ops = [measurement_operator(PHI, s) for s in ("+", "-")]
        for out in ALL_OUTCOMES:
            ops += [composed_measurement(PHI, out.d1, out.d2), correction_gate(out, PHI)]
        for m in ops:
            assert isinstance(m, np.ndarray) and m.shape == (4, 4) and m.dtype == np.complex128
            assert not m.flags.writeable

    def test_target_kind_table(self):
        assert np.allclose(
            bell_target(OutcomeLabel("+", "+"), PHI).amplitudes,
            bell_state("psi-").amplitudes,
        )
        assert np.allclose(
            bell_target(OutcomeLabel("-", "-"), PHI).amplitudes,
            bell_state("phi+", 2 * PHI).amplitudes,
        )


class TestBellOutcomeTable:
    def test_probabilities_form_distribution(self, table20):
        _, table = table20
        probs = [r.probability for r in table]
        assert all(p >= 0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_exact_run(self, table20):
        _, table = table20
        probs = [r.probability for r in table]
        fids = [r.fidelity for r in table]
        np.testing.assert_allclose(
            probs, [0.723014, 0.075942, 0.110865, 0.090178], atol=2e-6
        )
        np.testing.assert_allclose(
            fids, [0.998286, 0.996411, 0.997214, 0.967490], atol=2e-6
        )

    def test_leak_is_reported_not_hidden(self, table20):
        _, table = table20
        for r in table:
            assert 0.0 <= r.leaked_weight < 0.05
            assert r.leaked_weight == pytest.approx(table[0].leaked_weight)

    def test_analytic_leak_is_that_of_the_normalized_branch_state(self, table20, cut20, alpha20):
        """Off t_r/2 the branch form is not normalized; the leak is still
        measured on the normalized state."""
        c, _ = table20
        t = T_HALF + 0.02 / abs(G)
        atoms = c.to_state().amplitudes
        leaked = bell_outcome_arrays(atoms, alpha20, G, cut20, [t], engine="analytic")[2][0]
        basis = coherent_branch_basis(alpha20, G, [t], cut20)[0]
        psi = np.tensordot(atoms, basis, 1).ravel()
        psi /= np.linalg.norm(psi)
        refs = [coherent_state(s * alpha20, cut20).amplitudes for s in (1, -1)]
        kept = sum(np.linalg.norm(psi.reshape(4, -1) @ ref.conj()) ** 2 for ref in refs)
        assert leaked > 1e-3
        assert leaked == pytest.approx(1.0 - kept, abs=1e-12)

    def test_stationary_input_pins_first_outcome(self, cut20, alpha20):
        table = bell_outcome_table(AtomCoeffs(0, 1, 0, 0), alpha20, G, cut20)
        assert table[0].probability > 0.999
        assert table[0].fidelity > 0.9999

    def test_analytic_engine_close_to_exact(self, table20, cut20, alpha20):
        c, exact = table20
        analytic = bell_outcome_table(c, alpha20, G, cut20, engine="analytic")
        for a, b in zip(analytic, exact):
            assert a.fidelity == pytest.approx(b.fidelity, abs=0.05)

    def test_post_states_are_normalized(self, table20):
        _, table = table20
        for r in table:
            assert np.trace(r.post_state.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_post_states_are_trusted_outer_products(self, table20, cut20, alpha20):
        """Chain states skip the eigenvalue check, not its result."""
        from dicke2p import protocols
        from dicke2p.analysis import DensityMatrix

        c, table = table20
        cavity1 = protocols._cavity(alpha20, G, T_HALF, cut20.n_max)
        atoms, phi = c.to_state().amplitudes, float(np.angle(alpha20))
        states = protocols._chain(cavity1, atoms, phi)[3]
        for v, r in zip(states.reshape(4, 4), table):
            full = DensityMatrix(np.outer(v, v.conj()), (2, 2))
            np.testing.assert_array_equal(r.post_state.matrix, full.matrix)
            np.testing.assert_array_equal(DensityMatrix.outer(v, (2, 2)).matrix, full.matrix)
            assert not r.post_state.matrix.flags.writeable


class TestRunBellProtocol:
    def test_ideal_shot_reproducible(self, table20, cut20, alpha20):
        c, _ = table20
        a = run_bell_protocol(c, alpha20, G, cut20, rng_seed=3, shot_index=1)
        b = run_bell_protocol(c, alpha20, G, cut20, rng_seed=3, shot_index=1)
        assert a.outcome == b.outcome
        assert a.fidelity == b.fidelity
        assert a.record_x is None

    def test_ideal_shot_consistent_with_table(self, table20, cut20, alpha20):
        """Shots and tables share one two-cavity chain, so every shot is its
        outcome's table entry bit for bit."""
        inputs = (
            table20[0],
            AtomCoeffs.normalized(0.05, 0.99, 0.02, 0.1),  # psi- dominated
            AtomCoeffs.normalized(1.0, 0.0, 0.0, 1j),  # |gg> + i|ee>
        )
        seen = set()
        for c in inputs:
            for engine in ("exact", "analytic"):
                table = bell_outcome_table(c, alpha20, G, cut20, engine=engine)
                by_outcome = {r.outcome: r for r in table}
                for i in range(30):
                    shot = run_bell_protocol(
                        c, alpha20, G, cut20, engine=engine, rng_seed=3, shot_index=i
                    )
                    entry = by_outcome[shot.outcome]
                    seen.add(shot.outcome)
                    assert shot.probability == entry.probability
                    assert shot.fidelity == entry.fidelity
                    assert shot.leaked_weight == entry.leaked_weight
                    np.testing.assert_array_equal(
                        shot.post_state.matrix, entry.post_state.matrix
                    )
        assert seen == set(ALL_OUTCOMES)

    @pytest.mark.parametrize("engine", ["exact", "analytic"])
    def test_seeded_homodyne_shots_are_frozen(self, table20, cut20, alpha20, engine):
        """Seeded homodyne shots reproduce their outcomes and records bit for
        bit across versions, not only within one process."""
        c, _ = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        shots = [run_bell_protocol(c, alpha20, G, cut20, engine, cfg, 7, i) for i in range(40)]
        outcomes, records = FROZEN_HOMODYNE_SHOTS[engine]
        assert "".join(str(ALL_OUTCOMES.index(s.outcome)) for s in shots) == outcomes
        assert tuple(s.record_x.hex() for s in shots) == records

    def test_homodyne_shot_carries_record(self, table20, cut20, alpha20):
        c, _ = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=1.0)
        shot = run_bell_protocol(c, alpha20, G, cut20, detection=cfg, rng_seed=3, shot_index=1)
        assert shot.record_x is not None
        # the record must land near one of the two reference lobes
        assert abs(abs(shot.record_x) - math.sqrt(20.0)) < 3.0

    @pytest.mark.parametrize("detection", ["ideal", "homodyne"])
    def test_repeated_shots_evolve_nothing(
        self, table20, cut20, alpha20, joint20, monkeypatch, detection
    ):
        """The first shot projects cavity 1's references on the sector
        eigenvectors once, reads cavity 2 from the same map turned, and
        evolves no state for its readouts; homodyne detection also evolves
        the input's joint state once, for one Hermite sum.  Later shots on
        the same input
        read the cached laws only, a shot read from them equals the same
        shot built afresh, and the homodyne record is the one drawn from
        the cavity-1 joint state on the shots' grid."""
        from dicke2p import protocols
        from dicke2p.analysis import sample_rng
        from dicke2p.dynamics import SectorSpectrum

        counts = {"project": 0, "propagate": 0, "hermite": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in ("project", "propagate"):
            monkeypatch.setattr(SectorSpectrum, name, counting(name, getattr(SectorSpectrum, name)))
        monkeypatch.setattr(protocols, "hermite_sum", counting("hermite", hermite_sum))
        for cache in (protocols._cavity, protocols._ideal_law, protocols._homodyne_law):
            cache.cache_clear()
        c, _ = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        det = cfg if detection == "homodyne" else "ideal"
        fresh = run_bell_protocol(c, alpha20, G, cut20, detection=det, rng_seed=3, shot_index=1)
        # the propagation projects the joint state once
        first = {"project": 2, "propagate": 1, "hermite": 1} if detection == "homodyne" else {
            "project": 1, "propagate": 0, "hermite": 0}
        assert counts == first
        shots = [
            run_bell_protocol(c, alpha20, G, cut20, detection=det, rng_seed=3, shot_index=i)
            for i in range(1, 6)
        ]
        assert counts == first
        assert_same_result(shots[0], fresh)
        if detection == "homodyne":
            xs, amps = protocols._quadrature(abs(alpha20) + 5.0, joint20.amplitudes.reshape(4, -1), PHI)
            cdf = protocols._record_cdf(amps)
            x, _ = protocols._draw_quadrature(xs, cdf, cfg, sample_rng(3, 1))
            assert shots[0].record_x == x

    @pytest.mark.parametrize("detection", ["ideal", "homodyne"])
    def test_exact_shot_runs_no_eigh(
        self, table20, cut20, alpha20, monkeypatch, eigh_calls, fresh_caches, detection
    ):
        """An exact shot on empty caches builds W's spectrum, in closed
        form, once per cavity read: neither eigh nor eigvalsh runs."""
        from dicke2p import protocols

        builds = []
        build = protocols.sector_spectrum
        monkeypatch.setattr(protocols, "sector_spectrum", lambda p: builds.append(p) or build(p))
        det = HomodyneConfig(lo_phase=PHI, efficiency=0.5) if detection == "homodyne" else "ideal"
        run_bell_protocol(table20[0], alpha20, G, cut20, detection=det, rng_seed=3, shot_index=1)
        # the cavity map, and for homodyne detection cavity 1's record too
        assert len(builds) == (2 if detection == "homodyne" else 1)
        assert eigh_calls == []

    def test_homodyne_shot_reads_each_cavity_once(self, table20, cut20, alpha20, monkeypatch):
        """A new input reads cavity 1 once, for p1 and the leaked weight,
        and cavity 2 once, on the atoms collapsed at every grid column in
        one block; a repeated shot reads neither cavity."""
        from dicke2p import protocols

        reads = []
        read = protocols._read

        def counting(readout, rows):
            reads.append(rows.shape)
            return read(readout, rows)

        monkeypatch.setattr(protocols, "_read", counting)
        protocols._homodyne_law.cache_clear()
        c, _ = table20
        points = protocols._QUADRATURE_POINTS
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.8)
        for i in range(3):
            run_bell_protocol(c, alpha20, G, cut20, detection=cfg, rng_seed=3, shot_index=i)
        assert reads == [(1, 4), (points, 4)]
        other = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
        for i in range(2):
            run_bell_protocol(other, alpha20, G, cut20, detection=cfg, rng_seed=3, shot_index=i)
        assert reads == [(1, 4), (points, 4)] * 2

    def test_degenerate_homodyne_branch_keeps_its_record(self):
        """|psi-> never leaves |alpha>, so a misread record lands on a branch
        of vanishing weight: the result is the mixed fallback, with the
        record that was taken."""
        nbar = 20.0
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.05)
        shot = run_bell_protocol(
            AtomCoeffs(0, 1, 0, 0),
            math.sqrt(nbar) * np.exp(1j * PHI),
            G,
            FockCutoff.for_mean_photon(nbar),
            detection=cfg,
            rng_seed=0,
            shot_index=0,
        )
        assert shot.outcome == OutcomeLabel("-", "+")
        assert shot.probability < 1e-20
        assert math.isnan(shot.fidelity)
        assert isinstance(shot.record_x, float) and math.isfinite(shot.record_x)
        assert shot.record_x < 0


class TestQuadratureMap:
    """Cavity 1 read by homodyne detection as one Kraus map on the atoms,
    _record_amplitudes on the product basis, built per ensemble call."""

    @pytest.mark.parametrize("nbar", [20.0, 50.0, 1000.0])
    @pytest.mark.parametrize("engine", ["exact", "analytic"])
    def test_shot_law_and_ensemble_read_the_same_field(self, engine, nbar):
        """A shot's law reads its input's own state and an ensemble the map
        of the product basis: the same record amplitudes to 1e-15 (at most
        3.6e-16 apart on the exact engine, equal on the analytic one)."""
        from dicke2p import protocols

        atoms = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3).to_state().amplitudes
        alpha = math.sqrt(nbar) * np.exp(1j * PHI)
        n_max = FockCutoff.for_mean_photon(nbar).n_max if engine == "exact" else None
        xs, shot = protocols._record_amplitudes(alpha, G, T_HALF, n_max, PHI, atoms[None])
        grid, kraus = protocols._record_amplitudes(alpha, G, T_HALF, n_max, PHI, np.eye(4))
        np.testing.assert_array_equal(xs, grid)
        assert np.max(np.abs(shot[0] - np.tensordot(atoms, kraus, 1))) <= 1e-15

    @pytest.mark.parametrize(
        "engine, nbar, tol",
        [
            pytest.param("exact", 20.0, 1e-12, id="exact"),
            pytest.param("analytic", 20.0, 1e-12, id="analytic"),
            pytest.param("analytic", 50.0, 1e-12, id="analytic-50"),
            pytest.param("analytic", 100.0, 1e-12, id="analytic-100"),
            pytest.param("analytic", 1000.0, 1e-10, id="analytic-1000"),
        ],
    )
    def test_map_matches_the_projected_joint_state(self, table20, joint20, engine, nbar, tol):
        """The record density |K c|^2 and the collapsed atoms at every grid
        point are those of the flat joint state projected on the same grid.
        The analytic map is closed form, so its oracle is the three-branch
        form written out on a cutoff 60 photons past the working one, whose
        truncation is below 1e-14 (on the working cutoff it is 1.7e-7 at
        nbar = 20).  At nbar = 1000 the oracle's own Hermite sum over some
        1,100 photon numbers rounds to 1.5e-11 (the closed form agrees with
        a long-double evaluation of itself to 1e-16), hence its 1e-10."""
        from dicke2p import protocols

        c, _ = table20
        atoms = c.to_state().amplitudes
        alpha = math.sqrt(nbar) * np.exp(1j * PHI)
        cut = FockCutoff.for_mean_photon(nbar)
        if engine == "exact":
            n_max, flat = cut.n_max, joint20.amplitudes.reshape(4, -1)
        else:
            n_max, cut = None, FockCutoff(cut.n_max + 60)
            flat = np.tensordot(atoms, coherent_branch_basis(alpha, G, [T_HALF], cut)[0], 1)
        xs, kraus = protocols._record_amplitudes(alpha, G, T_HALF, n_max, PHI, np.eye(4))
        grid = np.linspace(-abs(alpha) - 5.0, abs(alpha) + 5.0, protocols._QUADRATURE_POINTS)
        np.testing.assert_array_equal(xs, grid)
        assert xs[-1] == abs(alpha) + 5.0
        assert kraus.shape == (4, 4, xs.size)
        rotated = flat * np.exp(-1j * PHI * np.arange(cut.dim))
        amps, ref = np.tensordot(atoms, kraus, 1), hermite_sum(grid, rotated.T).T
        density = np.sum(np.abs(amps) ** 2, axis=0)
        np.testing.assert_allclose(density, np.sum(np.abs(ref) ** 2, axis=0), rtol=0, atol=tol)
        np.testing.assert_allclose(amps, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("lo_phase", [0.7, -2.1])
    def test_analytic_map_at_t0_is_the_rotated_coherent_wavefunction(self, lo_phase):
        """At t = 0 the three branch maps sum to the identity and share the
        label alpha, so K[j, a] = delta_ja <x|alpha e^{-i lo_phase}>: the
        closed form, with its -i Re beta Im beta phase, against the Hermite
        sum of the rotated coherent amplitudes on a cutoff 60 photons past
        the working one."""
        from dicke2p import protocols

        alpha = 3.0 - 4.0j
        cut = FockCutoff(FockCutoff.for_mean_photon(abs(alpha) ** 2).n_max + 60)
        xs, kraus = protocols._record_amplitudes(alpha, G, 0.0, None, lo_phase, np.eye(4))
        rotated = coherent_state(alpha, cut).amplitudes * np.exp(-1j * lo_phase * np.arange(cut.dim))
        want = np.eye(4)[:, :, None] * hermite_sum(xs, rotated)
        np.testing.assert_allclose(kraus, want, rtol=0, atol=1e-13)


class TestRegimeWarning:
    """The analytic engine warns at |alpha|^2 < 10 exactly once per call,
    also on the second of two calls, which reads its cavity maps from the
    cache (bell_outcome_arrays caches none but builds them in chunks)."""

    @pytest.mark.parametrize("entry", ["ghz", "table", "shot", "timing"])
    def test_exactly_one_warning_per_call(self, entry):
        # 80 times build each cavity's maps in two chunks at this cutoff
        cut, alpha = FockCutoff.for_mean_photon(4.0), 2.0 * np.exp(1j * PHI)
        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        call = {
            "ghz": lambda: run_ghz(2.0, PHI, G, cut, engine="analytic"),
            "table": lambda: bell_outcome_table(c, alpha, G, cut, engine="analytic"),
            "shot": lambda: run_bell_protocol(c, alpha, G, cut, engine="analytic"),
            "timing": lambda: bell_outcome_arrays(
                c.to_state().amplitudes,
                alpha,
                G,
                cut,
                T_HALF + np.linspace(-5.0, 5.0, 80),
                engine="analytic",
            ),
        }[entry]
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [str(w.message) for w in caught] == [
                "coherent branch form assumes |alpha|^2 >> 1; got |alpha|^2 = 4"
            ]

    def test_exact_engine_does_not_warn(self):
        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bell_outcome_table(c, 2.0, G, FockCutoff.for_mean_photon(4.0))


class TestReadoutOracle:
    """The sector-eigenbasis readouts against the evolve-and-project path
    (conftest.cavity_maps_oracle) that they replace."""

    SWEEP = T_HALF + np.linspace(-0.08, 0.08, 321) / abs(G)

    @pytest.mark.parametrize("nbar", [20.0, 50.0, 100.0, 1000.0])
    def test_eigenbasis_readouts_match_the_oracle(self, nbar):
        """The exact engine's readouts (to 1e-14, at nbar 20 and 50) and the
        analytic engine's closed-form overlaps (to 1e-12) against the Fock
        form, which carries its own truncation; at nbar = 20 the analytic
        gaps read 1.7e-13 (readouts) and 2.5e-14 (Gram)."""
        from dicke2p import protocols

        n_max = FockCutoff.for_mean_photon(nbar).n_max
        for engine in ("exact", "analytic") if nbar <= 50.0 else ("analytic",):
            for turn in (1.0, CAVITY2_TURN):
                alpha = math.sqrt(nbar) * np.exp(1j * PHI) * turn
                for times in (self.SWEEP, np.array([0.0])):
                    key = n_max if engine == "exact" else None
                    got, gram = protocols._cavity_maps(alpha, G, times, key)
                    want, want_gram = cavity_maps_oracle(alpha, G, times, n_max, engine)
                    assert got.shape == want.shape == (times.size, 2, 4, 4)
                    if engine == "exact":
                        assert np.max(np.abs(got - want)) <= 1e-14
                        np.testing.assert_array_equal(gram, want_gram)
                    else:
                        assert np.max(np.abs(got - want)) <= 1e-12
                        assert np.max(np.abs(gram - want_gram)) <= 1e-12

    def test_bell_timing_rows_match_the_oracle_path(self, monkeypatch):
        from dicke2p import protocols, scans

        rows = scans.bell_timing(points=321).rows
        monkeypatch.setattr(
            protocols, "_cavity_maps", lambda *args: cavity_maps_oracle(*args, "exact")
        )
        want = scans.bell_timing(points=321).rows
        assert np.isfinite(rows).all()
        assert np.max(np.abs(rows - want)) <= 1e-14

    @pytest.mark.parametrize("engine", ["exact", "analytic"])
    def test_tables_match_the_oracle_path(self, table20, cut20, alpha20, engine, fresh_caches):
        """The analytic engine's closed-form overlaps and the truncated Fock
        form of the oracle differ by the truncation (post states up to
        2.0e-13 apart), so it has the 1e-12 of TestCavityMaps."""
        from dicke2p import protocols

        tol = 1e-14 if engine == "exact" else 1e-12
        c, _ = table20
        table = bell_outcome_table(c, alpha20, G, cut20, engine=engine)
        # the oracle builds the truncated fields, so it needs the cutoff that
        # the analytic key leaves out
        def oracle(alpha, g, times, n_max):
            return cavity_maps_oracle(alpha, g, times, cut20.n_max, engine)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "_cavity_maps", oracle)
            for cache in (protocols._cavity, protocols._ideal_law):
                cache.cache_clear()
            want = bell_outcome_table(c, alpha20, G, cut20, engine=engine)
        for a, b in zip(table, want):
            assert a.outcome == b.outcome
            assert abs(a.probability - b.probability) <= tol
            assert abs(a.fidelity - b.fidelity) <= tol
            assert abs(a.leaked_weight - b.leaked_weight) <= tol
            assert np.max(np.abs(a.post_state.matrix - b.post_state.matrix)) <= tol


class TestCavityTurn:
    """Cavity 2's readouts as the chain reads them, cavity 1's map turned by
    D = diag(1, i, i, -1), against a map built afresh at alpha e^{i pi/4}."""

    @pytest.mark.parametrize("nbar", [10.0, 20.0, 50.0, 100.0, 1000.0])
    @pytest.mark.parametrize("engine", ["exact", "analytic"])
    def test_turned_map_is_the_second_cavity(self, nbar, engine):
        """To 1e-13, or to the rounding of the exact build's own coherent
        phases n arg(alpha) up to n_max (an ulp of n_max pi): at nbar = 1000
        the exact gap reads 1.1e-13, and 1.2e-16 with those phases reduced
        exactly; elsewhere it is at most 2.5e-15."""
        from dicke2p import protocols

        n_max = FockCutoff.for_mean_photon(nbar).n_max
        alpha = math.sqrt(nbar) * np.exp(1j * PHI)
        tol = max(1e-13, float(np.spacing(n_max * math.pi)))
        key = n_max if engine == "exact" else None
        for times in (np.array([T_HALF]), TestReadoutOracle.SWEEP):
            readout, gram = protocols._cavity_maps(alpha, G, times, key)
            want, want_gram = protocols._cavity_maps(alpha * CAVITY2_TURN, G, times, key)
            assert np.max(np.abs(protocols._turned(readout) - want)) <= tol
            assert np.max(np.abs(protocols._turned(gram) - want_gram)) <= tol


class TestCavityMaps:
    """Each cavity's cached readout operators against the paper's M_phi^+-."""

    @staticmethod
    def gaps(nbar: float, engine: str) -> list[float]:
        from dicke2p import protocols

        key = FockCutoff.for_mean_photon(nbar).n_max if engine == "exact" else None
        out = []
        for phi in (PHI, PHI + math.pi / 4.0):
            alpha = math.sqrt(nbar) * np.exp(1j * phi)
            readout = protocols._cavity(alpha, G, T_HALF, key)[0]
            paper = (
                measurement_operator(phi, "+"),
                np.sign(G) * measurement_operator(phi, "-"),
            )
            out += [float(np.max(np.abs(k - m))) for k, m in zip(readout, paper)]
        return out

    @pytest.mark.parametrize("nbar", [20.0, 50.0, 100.0])
    def test_analytic_maps_are_the_paper_operators(self, nbar):
        assert max(self.gaps(nbar, "analytic")) <= 1e-12

    def test_exact_maps_approach_the_paper_operators(self):
        gaps = [max(self.gaps(nbar, "exact")) for nbar in (20.0, 50.0, 100.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] < 0.025

    @pytest.mark.parametrize("nbar", [100.0, 400.0, 1000.0])
    def test_exact_engine_converges_at_its_rates(self, nbar):
        """The exact engine approaches the analytic one at t_r/2: readouts
        as 1/nbar and Bell fidelities as 1/nbar^2.

        The largest readout gap is the gg -> gg entry of the + readout. In
        photon sector m, |gg, m> couples to the symmetric one-excitation
        state with A = g sqrt(2m(m-1)), and that to |ee, m-4> with B =
        g sqrt(2(m-2)(m-3)). At gt = pi/2 the bright pair adds
        cos(Lambda t) = +-3 pi/(8m) with a sign that alternates in m and
        averages out, so the entry is the dark weight B^2/Lambda^2 = 1/2 -
        (2m-3)/(2(m^2-3m+3)), where the linearized engine has 1/2. The gap
        is the Poisson mean of that term, 1/nbar + 5/(2 nbar^2) + ....
        The analytic fidelities are 1, so the fidelity gap is second order
        in the readout gap; its constant, 13.34 for this input, is measured."""
        from dicke2p import protocols

        cut = FockCutoff.for_mean_photon(nbar)
        alpha = math.sqrt(nbar) * np.exp(1j * PHI)
        coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        readout, fids = {}, {}
        for engine in ("exact", "analytic"):
            key = cut.n_max if engine == "exact" else None
            readout[engine] = protocols._cavity(alpha, G, T_HALF, key)[0]
            table = bell_outcome_table(coeffs, alpha, G, cut, engine)
            fids[engine] = np.array([row.fidelity for row in table])
        gap = float(np.max(np.abs(readout["exact"] - readout["analytic"])))
        m = np.arange(cut.dim)
        poisson = np.exp(m * math.log(nbar) - nbar - np.array([math.lgamma(k + 1) for k in m]))
        dark_loss = poisson @ ((2 * m - 3) / (2 * (m * m - 3 * m + 3)))
        assert gap == pytest.approx(dark_loss, rel=1e-6)
        assert 1.0 <= gap * nbar <= 1.04
        assert 13.2 <= float(np.max(np.abs(fids["exact"] - fids["analytic"]))) * nbar**2 <= 13.5

    def test_exact_gram_is_identity(self):
        """The exact map takes its Gram matrix to be the identity: the
        evolved basis is orthonormal."""
        from dicke2p import protocols

        cut = FockCutoff.for_mean_photon(50.0)
        alpha = math.sqrt(50.0) * np.exp(1j * PHI)
        gram = protocols._cavity(alpha, G, T_HALF, cut.n_max)[1]
        kets = np.kron(np.eye(4), coherent_state(alpha, cut).amplitudes)
        spectrum = sector_spectrum(EffectiveModelParams(G, cut))
        flat = np.stack([spectrum.propagate(k, [T_HALF])[0] for k in kets])
        np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(4), atol=1e-12)
        np.testing.assert_array_equal(gram, np.eye(4))

    def test_analytic_caches_ignore_the_cutoff(self, fresh_caches):
        """The analytic maps build no field, so three cutoffs share one
        cavity map, one ideal law and one homodyne law, down to a cutoff
        too small for the field at nbar = 50."""
        from dicke2p import protocols

        alpha = math.sqrt(50.0) * np.exp(1j * PHI)
        coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        cuts = [FockCutoff(n) for n in (30, 60, 80)]
        tables = [bell_outcome_table(coeffs, alpha, G, cut, "analytic") for cut in cuts]
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        shots = [
            [run_bell_protocol(coeffs, alpha, G, cut, "analytic", cfg, 7, i) for i in range(5)]
            for cut in cuts
        ]
        for rows in (tables, shots):
            for a, *others in zip(*rows):
                for b in others:
                    assert_same_result(a, b)
        assert all(shot.record_x is not None for shot in shots[0])
        assert protocols._cavity.cache_info().misses == 1
        assert protocols._ideal_law.cache_info().misses == 1
        assert protocols._homodyne_law.cache_info().misses == 1


class TestTimingSensitivity:
    @pytest.mark.parametrize(
        "entry", ["ghz", "table", "sweep", "ideal-shot", "homodyne-shot", "homodyne-table"]
    )
    def test_analytic_entries_build_no_field(self, monkeypatch, fresh_caches, entry):
        """Every analytic entry point at nbar = 50, on empty caches, reads
        the cavities from closed-form coherent overlaps and homodyne
        detection from closed-form quadrature wavefunctions: it builds no
        coherent state and sums no Hermite series.  The 321-time sweep
        also builds no Bell state."""
        from dicke2p import analysis, dynamics, hilbert, protocols

        cut = FockCutoff.for_mean_photon(50.0)
        alpha = math.sqrt(50.0) * np.exp(1j * PHI)
        protocols._corrections(np.angle(alpha))  # the outcome targets, cached per phase
        calls = {"bell_state": 0, "coherent_state": 0, "hermite_sum": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for module in (hilbert, dynamics, analysis, protocols):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        c = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        window = T_HALF + np.linspace(-0.08, 0.08, 321) / abs(G)
        {
            "ghz": lambda: run_ghz(abs(alpha), PHI, G, cut, engine="analytic"),
            "table": lambda: bell_outcome_table(c, alpha, G, cut, engine="analytic"),
            "sweep": lambda: bell_outcome_arrays(
                c.to_state().amplitudes, alpha, G, cut, window, engine="analytic"
            ),
            "ideal-shot": lambda: run_bell_protocol(c, alpha, G, cut, engine="analytic"),
            "homodyne-shot": lambda: run_bell_protocol(
                c, alpha, G, cut, engine="analytic", detection=cfg
            ),
            "homodyne-table": lambda: homodyne_outcome_table(c, alpha, G, cut, cfg, "analytic"),
        }[entry]()
        assert calls["coherent_state"] == calls["hermite_sum"] == 0
        if entry == "sweep":
            assert calls["bell_state"] == 0

    def test_analytic_memory_does_not_grow_with_nbar(self):
        """One analytic call holds no field, so its tracemalloc peak at
        nbar = 1e5 (dim 102,535) is within 1 MB of the peak at nbar = 100."""
        atoms = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3).to_state().amplitudes
        window = T_HALF + np.linspace(-0.05, 0.05, 5) / abs(G)
        peaks = []
        for nbar in (100.0, 100.0, 1e5):  # the first call fills the per-phase caches
            alpha = math.sqrt(nbar) * np.exp(1j * PHI)
            cut = FockCutoff.for_mean_photon(nbar)
            with traced_peak() as mem:
                bell_outcome_arrays(atoms, alpha, G, cut, window, engine="analytic")
            peaks.append(mem.peak)
        assert peaks[2] <= peaks[1] + 2**20

    def test_optimum_matches_table(self, table20, cut20, alpha20):
        c, table = table20
        atoms = c.to_state().amplitudes
        prob, fid, _ = bell_outcome_arrays(atoms, alpha20, G, cut20, np.array([T_HALF]))
        for k, r in enumerate(table):
            assert fid[0, k] == pytest.approx(r.fidelity, abs=1e-9)
            assert prob[0, k] == pytest.approx(r.probability, abs=1e-9)

    def test_stationary_component_is_flat(self, cut20, alpha20):
        c = AtomCoeffs.normalized(0.2, 0.9, 0.3, 0.25)
        window = T_HALF + np.linspace(-0.05, 0.05, 5) / abs(G)
        fid = bell_outcome_arrays(c.to_state().amplitudes, alpha20, G, cut20, window)[1]
        psi_minus = fid[:, ALL_OUTCOMES.index(OutcomeLabel("+", "+"))]
        assert np.ptp(psi_minus) < 1e-3


class TestBatchedChain:
    """The array-valued chain against its single-time, single-input use."""

    @pytest.mark.parametrize("engine", ["exact", "analytic"])
    def test_rows_across_a_chunk_edge_match_single_time_calls(self, cut20, alpha20, engine):
        from dicke2p import protocols

        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        # across the exact engine's phase-table chunk; the analytic engine
        # has no chunks, and its batch must match single-time calls too
        chunk = protocols._BASIS_CHUNK // sector_spectrum(EffectiveModelParams(G, cut20)).values.size
        window = T_HALF + np.linspace(-0.05, 0.05, chunk + 3) / abs(G)
        atoms = c.to_state().amplitudes
        prob, fid, leaked = bell_outcome_arrays(atoms, alpha20, G, cut20, window, engine=engine)
        for k, t in enumerate(window):
            prob1, fid1, leaked1 = bell_outcome_arrays(atoms, alpha20, G, cut20, [t], engine=engine)
            assert abs(leaked[k] - leaked1[0]) <= 1e-12
            for j in range(len(ALL_OUTCOMES)):
                assert abs(fid[k, j] - fid1[0, j]) <= 1e-12
                assert abs(prob[k, j] - prob1[0, j]) <= 1e-12

    def test_zero_reference_weight_in_a_batch_raises_as_alone(self, cut20, alpha20):
        from dicke2p import protocols

        good = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3).to_state().amplitudes
        atoms = np.stack([good, np.zeros(4), good])
        cavity1 = protocols._cavity(alpha20, G, T_HALF, cut20.n_max)
        with pytest.raises(ValueError) as alone:
            protocols._chain(cavity1, atoms[1], PHI)
        with pytest.raises(ValueError) as batch:
            bell_outcome_arrays(atoms, alpha20, G, cut20, [T_HALF])
        assert str(batch.value) == str(alone.value) == (
            "cavity field has no weight on the reference states"
        )

    def test_second_cavity_reads_only_branches_of_weight(self, cut20, alpha20):
        """An empty cavity-1 branch of probability 0.5 raises in cavity 2;
        one below the degeneracy threshold is split evenly, unread."""
        from dicke2p import protocols

        readout2 = protocols._cavity(alpha20 * CAVITY2_TURN, G, T_HALF, cut20.n_max)[0]
        branches = np.stack([np.array([0.3, 0.85, 0.35, 0.3], dtype=complex), np.zeros(4)])
        amps, raw = (arr[:, 0] for arr in protocols._read(readout2[None], branches[:, None, :]))
        with pytest.raises(ValueError, match="no weight on the reference states"):
            protocols._branch_probs(raw, np.array([0.5, 0.5]))
        p2, prob = protocols._branch_probs(raw, np.array([1.0, 0.0]))
        _, fid = protocols._corrected(*protocols._corrections(PHI), amps, raw, prob)
        np.testing.assert_array_equal(p2[1], [0.5, 0.5])
        np.testing.assert_array_equal(prob[1], [0.0, 0.0])
        assert np.isnan(fid[1]).all() and np.isfinite(fid[0]).all()


class TestQuadratureTools:
    def test_base_wavefunction_value(self):
        h = hermite_sum(np.array([0.0]), np.ones(1))
        assert h[0] == pytest.approx(0.8932438417380023, abs=1e-14)

    def test_orthonormal_family(self):
        xs = np.linspace(-8.0, 8.0, 3201)
        h = hermite_sum(xs, np.eye(12)).T
        gram = h @ h.T * (xs[1] - xs[0])
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-8)

    @pytest.mark.parametrize("dim", [800, 1258, 2000])
    def test_normalized_far_past_exp_underflow(self, dim):
        """h_n for n = dim - 1 and dim/2 keep unit norm on +-50, where
        exp(-x^2) is 0 from |x| = 27.3 on; h_{dim-1} reaches |x| = 31 at
        dim 800 and 47 at dim 2000."""
        xs = np.linspace(-50.0, 50.0, 20001)
        coeffs = np.zeros((dim, 2))
        coeffs[dim - 1, 0] = coeffs[dim // 2, 1] = 1.0
        h = hermite_sum(xs, coeffs)
        assert np.all(np.isfinite(h))
        np.testing.assert_allclose(np.sum(h**2, axis=0) * (xs[1] - xs[0]), 1.0, rtol=0, atol=1e-12)

    def test_underflow_without_weight_reads_zero(self):
        assert not hermite_sum(np.array([30.0, -30.0]), np.eye(20)).any()

    def test_overlap_matches_fock_expansion(self):
        """The coherent state |2> in the quadrature x = (a + a^dag)/2 is the
        Gaussian (2/pi)^{1/4} exp(-(x - 2)^2)."""
        cut = FockCutoff(48)
        xs = np.array([0.4, 1.7])
        amps = coherent_state(2.0, cut).amplitudes.real
        via_fock = hermite_sum(xs, amps)
        direct = (2.0 / math.pi) ** 0.25 * np.exp(-((xs - 2.0) ** 2))
        np.testing.assert_allclose(via_fock, direct, atol=1e-8)

    def test_overlap_matches_fock_expansion_past_x_26(self):
        """|30> reads (2/pi)^{1/4} exp(-(x - 30)^2) around x = 30, where
        exp(-x^2) itself is 0.  The cutoff runs 17 sigma past nbar = 900:
        for_mean_photon's tail of 1e-10 would move the sum by 1e-8."""
        cut = FockCutoff(1400)
        xs = np.array([28.0, 30.0, 32.0])
        via_fock = hermite_sum(xs, coherent_state(30.0, cut).amplitudes.real)
        direct = (2.0 / math.pi) ** 0.25 * np.exp(-((xs - 30.0) ** 2))
        np.testing.assert_allclose(via_fock, direct, rtol=0, atol=1e-10)

    def test_memory_does_not_grow_with_dim(self):
        """No (dim, points) table: the peak at dim 2000 stays within 1.5
        times the peak at dim 100 on the same points."""
        xs = np.linspace(-50.0, 50.0, 2001)
        peaks = []
        for dim in (100, 2000):
            coeffs = np.ones((dim, 4))
            with traced_peak() as mem:
                hermite_sum(xs, coeffs)
            peaks.append(mem.peak)
        assert peaks[1] <= 1.5 * peaks[0]


class TestHomodyneConfig:
    @pytest.mark.parametrize("eff,var", [(1.0, 0.0), (0.5, 0.25), (0.1, 2.25)])
    def test_smear_variance(self, eff, var):
        assert HomodyneConfig(lo_phase=0.0, efficiency=eff).smear_variance == pytest.approx(var)

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            HomodyneConfig(lo_phase=0.0, efficiency=0.0)
        with pytest.raises(ValueError):
            HomodyneConfig(lo_phase=0.0, efficiency=1.2)

    @pytest.mark.parametrize("lo_phase", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lo_phase(self, lo_phase):
        with pytest.raises(ValueError, match="lo_phase must be finite"):
            HomodyneConfig(lo_phase=lo_phase, efficiency=0.5)

    def test_misclassification_shrinks_with_efficiency(self):
        alpha = math.sqrt(50.0)
        q = [
            HomodyneConfig(lo_phase=0.0, efficiency=e).misclassification_probability(alpha)
            for e in (0.1, 0.5, 1.0)
        ]
        assert q[0] > q[1] > q[2]
        assert q[1] == pytest.approx(7.6e-24, rel=0.05)


class TestHomodyneMeasurement:
    def test_collapse_is_normalized_and_reproducible(self, joint20):
        from dicke2p.analysis import sample_rng

        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        x1, post1 = homodyne_measure(joint20, cfg, sample_rng(8, 0))
        x2, post2 = homodyne_measure(joint20, cfg, sample_rng(8, 0))
        assert x1 == x2
        assert np.linalg.norm(post1.amplitudes) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(post1.amplitudes, post2.amplitudes, atol=1e-12)

    def test_records_are_frozen(self, joint20):
        """The shared draw keeps homodyne_measure's grid and its seeded
        records bit for bit."""
        from dicke2p.analysis import sample_rng

        frozen = {
            1.0: (5.768957588923335, 4.205939522958886, 5.020603484613083),
            0.5: (4.931488118327624, 4.582313861942847, 3.49847136428061),
        }
        for eff, records in frozen.items():
            cfg, rng = HomodyneConfig(lo_phase=PHI, efficiency=eff), sample_rng(8, 0)
            assert tuple(homodyne_measure(joint20, cfg, rng)[0] for _ in records) == records

    def test_vacuum_record_variance(self):
        from dicke2p.analysis import sample_rng

        cut = FockCutoff(16)
        psi = tensor(AtomCoeffs(1.0, 0, 0, 0).to_state(), coherent_state(0.0, cut))
        cfg = HomodyneConfig(lo_phase=0.0, efficiency=1.0)
        rng = sample_rng(4, 0)
        xs = np.array([homodyne_measure(psi, cfg, rng)[0] for _ in range(2000)])
        assert np.var(xs) == pytest.approx(0.25, rel=0.1)
        assert np.mean(xs) == pytest.approx(0.0, abs=0.05)


class TestHomodyneOutcomeTable:
    def test_unit_efficiency_reduces_to_ideal(self, table20, cut20, alpha20):
        c, ideal = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=1.0)
        smeared = homodyne_outcome_table(c, alpha20, G, cut20, cfg)
        for a, b in zip(smeared, ideal):
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
            assert a.probability == pytest.approx(b.probability, abs=1e-12)

    def test_moderate_inefficiency_barely_moves_results(self, table20, cut20, alpha20):
        c, ideal = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.5)
        smeared = homodyne_outcome_table(c, alpha20, G, cut20, cfg)
        assert sum(r.probability for r in smeared) == pytest.approx(1.0, abs=1e-9)
        for a, b in zip(smeared, ideal):
            assert abs(a.fidelity - b.fidelity) < 1e-6

    def test_heavy_smearing_degrades_fidelity(self, table20, cut20, alpha20):
        c, ideal = table20
        cfg = HomodyneConfig(lo_phase=PHI, efficiency=0.05)
        smeared = homodyne_outcome_table(c, alpha20, G, cut20, cfg)
        drops = [b.fidelity - a.fidelity for a, b in zip(smeared, ideal)]
        assert max(drops) > 0.01

    def test_detuned_oscillator_reads_the_projected_amplitude(self, table20, cut20, alpha20):
        """The misread weight is that of |alpha| cos(phi - lo_phase): a
        quadrature pi/2 away carries no cavity-1 sign, pi/3 away half the
        amplitude."""
        c, table = table20
        ideal = {r.outcome: r.probability for r in table}
        blind = homodyne_outcome_table(
            c, alpha20, G, cut20, HomodyneConfig(lo_phase=PHI + math.pi / 2, efficiency=0.2)
        )
        for s2 in ("+", "-"):
            by = {r.outcome: r.probability for r in blind}
            assert by[OutcomeLabel("+", s2)] == pytest.approx(by[OutcomeLabel("-", s2)], abs=1e-12)
        cfg = HomodyneConfig(lo_phase=PHI + math.pi / 3, efficiency=0.2)
        q = cfg.misclassification_probability(abs(alpha20) / 2.0)
        for r in homodyne_outcome_table(c, alpha20, G, cut20, cfg):
            misread = OutcomeLabel("-" if r.outcome.d1 == "+" else "+", r.outcome.d2)
            expected = (1.0 - q) * ideal[r.outcome] + q * ideal[misread]
            assert r.probability == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("turn", [math.pi / 3, math.pi / 2], ids=["pi_over_3", "pi_over_2"])
    def test_cavity1_marginal_matches_shots(self, table20, cut20, alpha20, turn):
        from scipy.stats import binomtest

        c, _ = table20
        cfg = HomodyneConfig(lo_phase=PHI + turn, efficiency=0.2)
        table = homodyne_outcome_table(c, alpha20, G, cut20, cfg)
        p_plus = sum(r.probability for r in table if r.outcome.d1 == "+")
        n = 2000
        hits = sum(
            run_bell_protocol(
                c, alpha20, G, cut20, detection=cfg, rng_seed=11, shot_index=i
            ).outcome.d1 == "+"
            for i in range(n)
        )
        assert binomtest(hits, n, p_plus).pvalue > 1e-4

    def test_degenerate_outcomes_leave_the_atoms_maximally_mixed(self, cut20, alpha20):
        """psi- alone lands on (+,+) only; an outcome whose mixed probability
        is below the degenerate threshold has NaN fidelity and the
        maximally mixed post state, and keeps its label and target."""
        psi_minus = AtomCoeffs.from_state(bell_state("psi-"))
        table = homodyne_outcome_table(psi_minus, alpha20, G, cut20, HomodyneConfig(PHI))
        assert table[0].probability == pytest.approx(1.0, abs=1e-9)
        assert table[0].fidelity == pytest.approx(1.0, abs=1e-6)
        for k, row in enumerate(table[1:], start=1):
            assert row.outcome == ALL_OUTCOMES[k]
            assert row.target == ("psi-", "phi-", "psi+", "phi+")[k]
            assert row.probability < 1e-12
            assert math.isnan(row.fidelity)
            np.testing.assert_array_equal(row.post_state.matrix, np.eye(4) / 4.0)


class TestGuards:
    """Inputs the protocol entry points refuse, each with its own message."""

    @pytest.mark.parametrize("signs", [("0", "+"), ("+", "x"), ("++", "-")])
    def test_outcome_label_refuses_other_signs(self, signs):
        with pytest.raises(ValueError, match="outcome signs must be"):
            OutcomeLabel(*signs)

    @pytest.mark.parametrize("entry", ["ghz", "table", "arrays", "shot", "homodyne", "ensemble"])
    def test_unknown_engine_is_refused_by_every_entry(self, entry, cut20, alpha20):
        from dicke2p import scans

        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        call = {
            "ghz": lambda: run_ghz(4.0, PHI, G, cut20, engine="fock"),
            "table": lambda: bell_outcome_table(c, alpha20, G, cut20, engine="fock"),
            "arrays": lambda: bell_outcome_arrays(
                c.to_state().amplitudes, alpha20, G, cut20, [T_HALF], engine="fock"
            ),
            "shot": lambda: run_bell_protocol(c, alpha20, G, cut20, engine="fock"),
            "homodyne": lambda: homodyne_outcome_table(
                c, alpha20, G, cut20, HomodyneConfig(PHI), engine="fock"
            ),
            "ensemble": lambda: scans.bell_ensemble(
                nbars=(20,), ensemble=2, engine="fock", detection=HomodyneConfig(PHI)
            ),
        }[entry]
        with pytest.raises(ValueError, match="unknown engine 'fock'"):
            call()

    def test_measurement_operator_refuses_other_signs(self):
        with pytest.raises(ValueError, match="sign must be"):
            measurement_operator(PHI, "0")

    def test_unknown_detection_is_refused(self, cut20, alpha20):
        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        with pytest.raises(ValueError, match="detection must be"):
            run_bell_protocol(c, alpha20, G, cut20, detection="homodyne")

    @pytest.mark.parametrize("dims", [(2, 5), (4, 5), (2, 2, 2, 2)])
    def test_homodyne_measure_needs_two_qubits_and_a_field(self, dims):
        from dicke2p.analysis import sample_rng

        state = StateVector.normalized(np.ones(math.prod(dims)), dims)
        with pytest.raises(ValueError, match="expected a two-qubit"):
            homodyne_measure(state, HomodyneConfig(PHI), sample_rng(0, 0))

    @pytest.mark.parametrize("entry", [bell_target, correction_gate])
    @pytest.mark.parametrize("outcome", ["++", ("+", "+"), None])
    def test_targets_and_gates_need_an_outcome(self, entry, outcome):
        with pytest.raises(ValueError):
            entry(outcome, PHI)
