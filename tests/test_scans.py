"""Batch runners that back the CLI subcommands."""

import collections
import inspect
import itertools
import math

import numpy as np
import pytest

from conftest import (
    embed_indices,
    excited_state_evolved,
    fidelity_scan_oracle,
    haar_random_two_qubit,
    partial_trace,
    rabi_oracle,
    traced_peak,
)
from dicke2p import analysis, dynamics, protocols, scans
from dicke2p.analysis import sample_rng, wigner
from dicke2p.dynamics import (
    SectorSpectrum,
    linearized_spectrum,
    rabi_see_analytic,
    revival_time,
    sector_spectrum,
    w_spectrum,
)
from dicke2p.hilbert import CAPTURE_ATOL, AtomCoeffs, FockCutoff, StateVector, coherent_state
from dicke2p.models import FullModelParams, effective_coupling, sector_index
from dicke2p.protocols import ALL_OUTCOMES, bell_outcome_table
from dicke2p.scans import (
    OUTCOME_SUFFIX,
    ScanResult,
    bell_ensemble,
    bell_timing,
    fidelity_scan,
    ghz_sweep,
    rabi_curve,
    wigner_panels,
)


def test_outcome_suffixes_cover_all_outcomes():
    assert list(OUTCOME_SUFFIX) == list(ALL_OUTCOMES)
    assert sorted(OUTCOME_SUFFIX.values()) == ["mm", "mp", "pm", "pp"]
    # each suffix spells its outcome's signs, d1 then d2
    for o, s in OUTCOME_SUFFIX.items():
        assert s == "".join("p" if d == "+" else "m" for d in (o.d1, o.d2))


@pytest.mark.parametrize(
    "scan, size",
    [
        (rabi_curve, "points"),
        (wigner_panels, "grid_points"),
        (bell_timing, "points"),
        (fidelity_scan, "time_points"),
        (fidelity_scan, "ensemble"),
        (bell_ensemble, "ensemble"),
    ],
)
def test_scans_reject_sizes_below_one(scan, size, monkeypatch):
    """An empty grid is refused by name before any work, not run into a
    NumPy error or an empty table."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the scan started work on an empty grid")

    monkeypatch.setattr(scans, "FockCutoff", forbidden)
    with pytest.raises(ValueError, match=rf"^{size} must be >= 1, got 0$"):
        scan(**{size: 0})


@pytest.mark.parametrize(
    "scan, coupling, match",
    [
        pytest.param(rabi_curve, "g", "^coupling g must be nonzero$", id="rabi_curve"),
        pytest.param(bell_timing, "g", "^coupling g must be nonzero$", id="bell_timing"),
        pytest.param(
            fidelity_scan, "g_g", "^couplings g_g, g_e must be positive$", id="fidelity_scan"
        ),
    ],
)
def test_time_scans_refuse_zero_coupling_before_dividing(scan, coupling, match):
    """A zero coupling is refused by the coupling check, not run into a
    division by zero (a RuntimeWarning, which the suite turns into an
    error)."""
    with pytest.raises(ValueError, match=match):
        scan(**{coupling: 0.0})


@pytest.mark.parametrize(
    "scan, sizes",
    [
        pytest.param(
            fidelity_scan, {"nbars": (4,), "ensemble": 2, "time_points": 3}, id="fidelity_scan"
        ),
        pytest.param(rabi_curve, {"nbar": 4.0, "points": 3}, id="rabi_curve"),
        pytest.param(wigner_panels, {"nbar": 4.0, "grid_points": 81}, id="wigner_panels"),
        pytest.param(ghz_sweep, {"nbars": (4,)}, id="ghz_sweep"),
        pytest.param(bell_ensemble, {"nbars": (4,), "ensemble": 2}, id="bell_ensemble"),
        pytest.param(bell_timing, {"nbar": 4.0, "points": 3}, id="bell_timing"),
    ],
)
def test_meta_names_every_parameter(scan, sizes):
    """Every parameter of a scan has a key in its params (each panel's, for
    wigner_panels), so two runs that differ in any argument write different
    params.  The one exception is bell_timing's library-only coeffs: an
    AtomCoeffs has no JSON form, and the CLI never sets it."""
    result = scan(**sizes)
    metas = [r.meta for r in result.values()] if isinstance(result, dict) else [result.meta]
    names = set(inspect.signature(scan).parameters) - ({"coeffs"} if scan is bell_timing else set())
    for meta in metas:
        assert sorted(names - meta.keys()) == []


@pytest.mark.parametrize(
    "columns, meta, match",
    [
        ((), {}, "columns must be one or more names"),
        (("gt_over_pi", 1), {}, "columns must be one or more names"),
        (("gt_over_pi",), [("nbar", 4.0)], "meta must be a dict"),
    ],
    ids=["no-columns", "non-str-column", "non-dict-meta"],
)
def test_scan_result_refuses_a_header_outside_the_schema(columns, meta, match):
    """What data/output_schema.json asks of columns and params holds for
    every table: at least one column, every name a string, params a dict."""
    with pytest.raises(ValueError, match=match):
        ScanResult(columns, np.zeros((2, len(columns))), meta)


@pytest.mark.parametrize("rows", [np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2, 2))],
                         ids=["wrong-width", "one-axis", "three-axes"])
def test_scan_result_refuses_rows_that_do_not_match_the_columns(rows):
    with pytest.raises(ValueError, match="row matrix does not match the column list"):
        ScanResult(("gt_over_pi", "fidelity_pp"), rows, {})


class TestRabiCurve:
    def test_columns_and_start(self):
        r = rabi_curve(nbar=4.0, points=9)
        assert r.columns == ("gt_over_pi", "see_numeric", "see_analytic")
        assert r.rows.shape == (9, 3)
        assert r.rows[0, 0] == 0.0
        # both atoms start excited, so the summed population begins at 2
        assert r.rows[0, 1] == pytest.approx(2.0, abs=1e-9)

    def test_analytic_column_matches_closed_form(self):
        r = rabi_curve(nbar=4.0, g=-0.002, points=9)
        t = r.rows[:, 0] * np.pi / 0.002
        np.testing.assert_allclose(
            r.rows[:, 2], rabi_see_analytic(2.0, -0.002, t), atol=1e-12
        )

    @pytest.mark.parametrize("nbar", [4.0, 20.0, 50.0])
    def test_matches_flat_basis_oracle(self, nbar):
        """The pair sum in the sector eigenbasis reads the populations of
        the evolved state to rounding."""
        r = rabi_curve(nbar=nbar)
        np.testing.assert_allclose(r.rows[:, 1], rabi_oracle(nbar), rtol=0, atol=1e-14)


def test_rabi_evolves_no_state_and_revival_runs_no_eigh(monkeypatch, eigh_calls):
    """rabi_curve evolves no state, and neither revival command runs an
    eigh or eigvalsh: W's spectrum is in closed form, and the Wigner panels
    take the field's eigenpairs from one thin SVD."""
    propagated = []
    propagate = SectorSpectrum.propagate
    monkeypatch.setattr(
        SectorSpectrum, "propagate", lambda *a: propagated.append(1) or propagate(*a)
    )
    rabi_curve(nbar=50.0)
    assert not propagated
    with pytest.warns(UserWarning, match="fringe"):
        wigner_panels(nbar=50.0, grid_points=21)
    assert eigh_calls == []


class TestFidelityScan:
    def test_tiny_run_structure(self):
        r = fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)
        assert r.columns == (
            "gt_over_pi",
            "mean_FW_nbar4",
            "stderr_FW_nbar4",
            "mean_F_nbar4",
            "stderr_F_nbar4",
        )
        assert r.rows.shape == (3, 5)
        # both channels start at unit fidelity
        np.testing.assert_allclose(r.rows[0, [1, 3]], 1.0, atol=1e-9)
        assert "validity" in r.meta

    def test_seeded_run_is_deterministic(self):
        a = fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)
        b = fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_seed_changes_rows(self):
        a = fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)
        b = fidelity_scan(nbars=(4,), ensemble=2, seed=10, time_points=3)
        assert not np.array_equal(a.rows[1:], b.rows[1:])

    @staticmethod
    def _spectra(nbar):
        """The full, W and linearized spectra that fidelity_scan builds at nbar."""
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        g = effective_coupling(1.0, 1.0, 500.0)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, cutoff))
        return full, w_spectrum(g, cutoff), linearized_spectrum(g, cutoff)

    @staticmethod
    def _sector_chunks(monkeypatch, step, time_points):
        """Make fidelity_scan take `step` rows per chunk.  Each GEMM of a
        chunk contracts the 10 kernel entries of one bra (9 pairs of the
        symmetric block, 1 of the antisymmetric one) with its 21 phase
        products per row, times each the real and imaginary part of every
        time; the number of samples does not enter."""
        monkeypatch.setattr(scans, "_GEMM_SIZE", step * 10 * 21 * 2 * time_points)

    @staticmethod
    def _phase_spy(monkeypatch, tables=None):
        """Record the shape of every angle table fidelity_scan hands to its
        phase kernel, and in `tables` a copy of the table itself."""
        shapes = []
        unit_phases = scans._unit_phases

        def counting(angle):
            shapes.append(angle.shape)
            if tables is not None:
                tables.append(angle.copy())
            return unit_phases(angle)

        monkeypatch.setattr(scans, "_unit_phases", counting)
        return shapes

    def test_chunked_scan_matches_per_sample_oracle(self, monkeypatch):
        """Ragged chunks of rows give the rows of the one-sample-at-a-time
        computation in the flat basis."""
        shapes = self._phase_spy(monkeypatch)
        self._sector_chunks(monkeypatch, 4, 17)
        r = fidelity_scan(nbars=(4,), ensemble=7, seed=9, time_points=17)
        full, _, lin = self._spectra(4)
        # per chunk of 4 rows, the last one ragged, times last: the ket's table over
        # its 9 slots, then one frequency per row for each bra, W and the linearized
        # W, on the one sector layout of all three spectra; then one table of the
        # linearized spectrum's top four rows
        chunks = math.ceil(len(full.values) / 4)
        assert len(lin.values) == len(full.values) and len(full.values) % 4
        assert len(shapes) == 3 * chunks + 1 and {s[-1] for s in shapes} == {17}
        want = [len(full.values[lo : lo + 4]) for lo in range(0, 4 * chunks, 4)]
        assert shapes[:-1] == [s for n in want for s in ((9, n, 17), (n, 17), (n, 17))]
        assert shapes[-1] == (4, 4, 17)
        oracle = fidelity_scan_oracle((4,), 7, 9, 17)
        np.testing.assert_allclose(r.rows, oracle, rtol=0, atol=1e-13)

    def test_phase_tables_do_not_grow_with_the_ensemble(self, monkeypatch):
        """Each phase exp(-i lambda t) the loop visits (the rows the inputs
        reach, as many as the full model has) is evaluated exactly once,
        however many samples share it: the ket's on each of its slots, and
        each bra's at its one frequency per row (its eigenvalues are
        (-lambda, 0, 0, +lambda)); those of the linearized spectrum's top
        four rows once more, for its weight past the cutoff."""
        shapes = self._phase_spy(monkeypatch)
        for nbar, ensemble in itertools.product((4, 20), (2, 12)):
            shapes.clear()
            self._sector_chunks(monkeypatch, 5, 17)
            fidelity_scan(nbars=(nbar,), ensemble=ensemble, seed=9, time_points=17)
            full, w, lin = self._spectra(nbar)
            reach = len(full.values)
            want = 17 * (full.values[:reach].size + len(w.values[:reach]) + len(lin.values[:reach]))
            want += 17 * lin.values[-4:].size
            assert sum(math.prod(s) for s in shapes) == want

    def test_kernel_does_not_depend_on_the_samples(self, monkeypatch):
        """The phase tables and the operands of every GEMM that build the
        kernels K are the same, bit for bit, for 2 samples and for 50 at
        nbar (4, 20): no sample enters them, and the samples meet K only
        in their quadratic forms b^dag K b."""
        seen = {}
        for ensemble in (2, 50):
            tables, operands = [], []
            self._phase_spy(monkeypatch, tables)
            real_matmul = scans._real_matmul

            def spy(c, e):
                operands.append((c.copy(), e.copy()))
                return real_matmul(c, e)

            monkeypatch.setattr(scans, "_real_matmul", spy)
            fidelity_scan(nbars=(4, 20), ensemble=ensemble, seed=9, time_points=17)
            monkeypatch.undo()
            seen[ensemble] = tables, operands
        (tables, operands), (tables50, operands50) = seen[2], seen[50]
        assert len(tables) == len(tables50) and len(operands) == len(operands50) > 2
        for a, b in zip(tables, tables50):
            np.testing.assert_array_equal(a, b)
        for (c, e), (c50, e50) in zip(operands, operands50):
            np.testing.assert_array_equal(c, c50)
            np.testing.assert_array_equal(e, e50)

    def test_overlap_maps_pair_each_sector_with_its_own_index(self, monkeypatch):
        """The three spectra of a (4, 20) scan lie on the one layout of
        sector_index on nbar 20's cutoff, one sector per layout row, so its
        overlap maps, one per row, pair row N of a reduced model with row N
        of the full one; the weight past the cutoff needs no map between
        two spectra."""
        built = []
        for name in ("sector_spectrum", "w_spectrum", "linearized_spectrum"):
            build = getattr(scans, name)
            monkeypatch.setattr(scans, name, lambda *a, f=build: built.append(f(*a)) or built[-1])
        fidelity_scan(nbars=(4, 20), ensemble=2, seed=9, time_points=3)
        shared = FockCutoff.for_mean_photon(20)
        assert len(built) == 3  # the full model, W and the linearized W
        for spec, levels in zip(built, (3, 2, 2)):
            np.testing.assert_array_equal(spec.index, sector_index(shared, levels))
            assert len(spec.values) == len(spec.vectors) == shared.dim + 4

    @pytest.mark.parametrize("seed, ensemble", [(0, 10), (1, 10), (12345, 10), (0, 100)])
    def test_inputs_leave_the_truncated_top_rows_empty(self, seed, ensemble):
        """The full model's rows N > n_max of the shared cutoff miss their
        states past n_max.  The weight each nbar's inputs put on them, read
        from the full model's spectrum, is below CAPTURE_ATOL at the bench
        size (nbar 20/50/100, ensemble 10, its three seeds) and at the
        defaults: zero at nbar 20 and 50, whose inputs reach no row past
        their own n_max + 4, and 1.0e-13 to 1.7e-13 at nbar 100.  The
        inputs follow the scan's draws (see fidelity_scan_oracle)."""
        shared = FockCutoff.for_mean_photon(100.0)
        full = sector_spectrum(FullModelParams(0.0, 500.0, 1.0, 1.0, shared))
        worst = {}
        for k, nbar in enumerate((20, 50, 100)):
            own = FockCutoff.for_mean_photon(float(nbar))
            inputs = np.zeros((ensemble, 9 * shared.dim), dtype=np.complex128)
            for i in range(ensemble):
                rng = sample_rng(seed + k * scans._SEED_STRIDE, i)
                atoms = haar_random_two_qubit(rng).to_state().amplitudes
                alpha = math.sqrt(nbar) * np.exp(2j * math.pi * rng.uniform())
                field = np.pad(coherent_state(alpha, own).amplitudes, (0, shared.dim - own.dim))
                inputs[i, embed_indices(shared)] = np.kron(atoms, field)
            top = full.project(inputs)[:, shared.n_max + 1 :]
            worst[nbar] = np.max(np.sum(np.abs(top) ** 2, axis=(1, 2)))
        assert worst[20] == worst[50] == 0.0
        assert 1e-13 < worst[100] < CAPTURE_ATOL

    def test_repeated_nbar_is_refused(self, monkeypatch):
        """Two tables under the same column names are refused, not written,
        and the scan refuses them before it builds a spectrum."""
        with pytest.raises(ValueError, match="repeated column names"):
            ScanResult(("gt_over_pi", "gt_over_pi"), np.zeros((1, 2)), {})
        built = []
        monkeypatch.setattr(scans, "sector_spectrum", built.append)
        with pytest.raises(ValueError, match="repeated column names"):
            fidelity_scan(nbars=(4, 4), ensemble=1, seed=9, time_points=2)
        assert built == []

    def test_no_nbar_gives_the_time_column_alone(self):
        r = fidelity_scan(nbars=(), ensemble=2, seed=9, time_points=3)
        assert r.columns == ("gt_over_pi",)
        np.testing.assert_array_equal(r.rows, np.linspace(0.0, 1.0, 3)[:, None])

    def test_one_pass_on_the_largest_cutoff_serves_every_nbar(self, monkeypatch):
        """A (4, 20) scan builds its spectra once, on nbar 20's cutoff, which
        the metadata names; nbar 4's input, built on its own cutoff, evolves
        there too.  So do the bench's three nbar, the largest one first in
        the input loop, whose input reaches the top four rows."""
        calls = collections.Counter()
        for name in ("sector_spectrum", "w_spectrum", "linearized_spectrum"):
            build = getattr(scans, name)
            monkeypatch.setattr(scans, name, lambda *a, f=build, n=name: calls.update([n]) or f(*a))
        for nbars, seed in [((4, 20), 9), ((20, 50, 100), 0), ((20, 50, 100), 12345)]:
            calls.clear()
            r = fidelity_scan(nbars=nbars, ensemble=3, seed=seed, time_points=5)
            assert calls == {"sector_spectrum": 1, "w_spectrum": 1, "linearized_spectrum": 1}
            shared = FockCutoff.for_mean_photon(max(nbars))
            assert r.meta["n_max"] == shared.n_max
            oracle = fidelity_scan_oracle(nbars, 3, seed, 5, cutoff=shared)
            np.testing.assert_allclose(r.rows, oracle, rtol=0, atol=1e-13)

    def test_scan_never_rotates_to_the_flat_basis(self, monkeypatch):
        calls = []
        propagate = SectorSpectrum.propagate

        def counting(self, *args):
            calls.append(1)
            return propagate(self, *args)

        monkeypatch.setattr(SectorSpectrum, "propagate", counting)
        fidelity_scan(nbars=(4, 6), ensemble=3, seed=9, time_points=5)
        assert calls == []

    def test_memory_stays_flat_at_the_bench_size(self):
        """The hierarchy benchmark's scan (nbar 20/50/100, ensemble 10, 101
        times) in chunks of rows: the full tables of phase products of its
        two bras would take 12.8 MB.  The pass peaks at 2.21 MB."""
        with traced_peak() as mem:
            fidelity_scan(nbars=(20, 50, 100), ensemble=10, seed=0, time_points=101)
        assert mem.peak <= 3.4e6

    def test_single_sample_has_zero_stderr(self):
        r = fidelity_scan(nbars=(4,), ensemble=1, seed=9, time_points=5)
        assert np.all(r.rows[:, [2, 4]] == 0.0)
        assert np.all(r.rows[1:, [1, 3]] < 1.0)

    def test_capture_check_runs_in_the_scan(self, monkeypatch):
        monkeypatch.setattr(dynamics, "CAPTURE_ATOL", -1.0)
        with pytest.raises(ValueError, match="linearized evolution moves weight"):
            fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)


    def test_scan_raises_past_a_tight_cutoff(self, monkeypatch):
        """On n_max = 22 at nbar 4, where half a revival moves 1.4e-8 of the
        |ee> weight past the cutoff, the closed form's capture check
        raises in the scan."""
        monkeypatch.setattr(FockCutoff, "for_mean_photon", staticmethod(lambda nbar: FockCutoff(22)))
        with pytest.raises(ValueError, match=r"past the cutoff n_max=22"):
            fidelity_scan(nbars=(4,), ensemble=2, seed=9, time_points=3)


class TestGhzSweep:
    def test_analytic_engine_saturates(self):
        with pytest.warns(UserWarning, match="alpha"):
            r = ghz_sweep(nbars=(4, 6), engine="analytic")
        assert r.columns == ("nbar", "fidelity_ghz")
        np.testing.assert_allclose(r.rows[:, 1], 1.0, atol=1e-12)


class TestBellEnsemble:
    @pytest.mark.parametrize("detection", ["homodyne", None])
    def test_unknown_detection_is_refused(self, detection):
        """Only 'ideal' or a HomodyneConfig names a detector, as in
        run_bell_protocol; anything else is refused, not run as ideal."""
        with pytest.raises(ValueError, match="^detection must be 'ideal' or a HomodyneConfig$"):
            bell_ensemble(nbars=(6,), ensemble=2, seed=2, detection=detection)

    def test_tiny_run_structure(self):
        r = bell_ensemble(nbars=(6,), ensemble=4, seed=2)
        assert r.rows.shape == (1, 13)
        rates = r.rows[0, [3, 6, 9, 12]]
        assert rates.sum() == pytest.approx(1.0, abs=1e-12)
        means = r.rows[0, [1, 4, 7, 10]]
        assert np.all((means >= 0.0) & (means <= 1.0))

    def test_ideal_rows_match_per_sample_tables(self):
        """The batched means, errors and rates equal those of one
        bell_outcome_table per Haar input on the same sample_rng(seed, 2i)
        draws, while the ensemble itself builds no per-sample result and
        leaves the single-time cavity cache alone.  Input 3 is |psi->,
        whose (-, .) outcomes have NaN fidelity."""
        nbar, seed, n, psi_minus = 20, 4, 12, AtomCoeffs(0, 1, 0, 0)
        haar_atoms = scans._haar_atoms

        def with_psi_minus(rngs):
            atoms = haar_atoms(rngs)
            atoms[3] = psi_minus.to_state().amplitudes
            return atoms

        def forbidden(*args):
            raise AssertionError("the batched ensemble built a per-sample result")

        cache = protocols._cavity.cache_info()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scans, "_haar_atoms", with_psi_minus)
            mp.setattr(protocols, "ProtocolResult", forbidden)
            mp.setattr(protocols, "DensityMatrix", forbidden)
            row = bell_ensemble(nbars=(nbar,), ensemble=n, seed=seed).rows[0]
        assert protocols._cavity.cache_info() == cache

        cut = FockCutoff.for_mean_photon(float(nbar))
        alpha = math.sqrt(nbar) * np.exp(1j * math.pi / 8.0)
        inputs = [haar_random_two_qubit(sample_rng(seed, 2 * i)) for i in range(n)]
        inputs[3] = psi_minus
        tables = [bell_outcome_table(c, alpha, -0.002, cut) for c in inputs]
        assert np.isnan([r.fidelity for r in tables[3][2:]]).all()
        for j in range(len(ALL_OUTCOMES)):
            fids = np.array([t[j].fidelity for t in tables])
            fids = fids[np.isfinite(fids)]
            want = [fids.mean(), fids.std(ddof=1) / math.sqrt(fids.size),
                    np.mean([t[j].probability for t in tables])]
            np.testing.assert_allclose(row[1 + 3 * j : 4 + 3 * j], want, rtol=0, atol=1e-12)

    def test_homodyne_ensemble_builds_one_quadrature_map(self, monkeypatch):
        """Every Haar input reads cavity 1 through the one quadrature map of
        (alpha, lo_phase): one Hermite sum for 50 shots, taken on one
        batched chain that builds no per-input law, shot or result.  The
        map is built where it is read and not cached: a second identical
        call sums the Hermite series again."""
        builds, shots = [], []
        hermite = protocols.hermite_sum

        def counting(*args):
            builds.append(args)
            return hermite(*args)

        def forbidden(*args):
            raise AssertionError("the batched ensemble built a per-input result")

        monkeypatch.setattr(protocols, "hermite_sum", counting)
        monkeypatch.setattr(protocols, "run_bell_protocol", lambda *a, **k: shots.append(a))
        monkeypatch.setattr(protocols, "ProtocolResult", forbidden)
        monkeypatch.setattr(protocols, "DensityMatrix", forbidden)
        protocols._homodyne_law.cache_clear()
        cfg = protocols.HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=0.5)
        r = bell_ensemble(nbars=(20,), ensemble=50, seed=0, detection=cfg)
        assert r.rows[0, [3, 6, 9, 12]].sum() == pytest.approx(1.0, abs=1e-12)
        assert len(builds) == 1 and shots == []
        assert protocols._homodyne_law.cache_info().misses == 0
        again = bell_ensemble(nbars=(20,), ensemble=50, seed=0, detection=cfg)
        np.testing.assert_array_equal(again.rows, r.rows)
        assert len(builds) == 2

    @pytest.mark.parametrize("engine, efficiency", [("exact", 0.5), ("analytic", 1.0),
                                                    ("exact", 0.05)])
    def test_homodyne_rows_match_per_input_shots(self, engine, efficiency):
        """The batched shots are run_bell_protocol's shot of each Haar input
        on the same streams sample_rng(seed, 2i + 1): the same outcomes and
        fidelities to 1e-14, NaN where the cavity-1 branch is degenerate
        (inputs 3 and 16 are |psi->; at efficiency 0.05, input 16 is misread)."""
        nbar, seed, n, psi_minus = 20, 5, 40, AtomCoeffs(0, 1, 0, 0)
        cut = FockCutoff.for_mean_photon(float(nbar))
        alpha = math.sqrt(nbar) * np.exp(1j * math.pi / 8.0)
        cfg = protocols.HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=efficiency)
        inputs = [haar_random_two_qubit(sample_rng(seed, 2 * i)) for i in range(n)]
        inputs[3] = inputs[16] = psi_minus
        atoms = np.array([c.to_state().amplitudes for c in inputs])
        rngs = (sample_rng(seed, 2 * i + 1) for i in range(n))
        outcome, fid = protocols._homodyne_outcomes(atoms, alpha, -0.002, cut, engine, cfg, rngs)
        shots = [protocols.run_bell_protocol(c, alpha, -0.002, cut, engine, cfg, seed, 2 * i + 1)
                 for i, c in enumerate(inputs)]
        assert outcome.tolist() == [ALL_OUTCOMES.index(s.outcome) for s in shots]
        want = np.array([s.fidelity for s in shots])
        np.testing.assert_array_equal(np.isnan(fid), np.isnan(want))
        assert np.nanmax(np.abs(fid - want)) <= 1e-14
        assert len(set(outcome.tolist())) == 4
        assert np.isnan(fid[16]) == (efficiency == 0.05)

    def test_homodyne_row_is_frozen(self):
        """The 200-input homodyne row at nbar = 20, seed 0, efficiency 0.5,
        as the per-input shots of an earlier version gave it."""
        cfg = protocols.HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=0.5)
        row = bell_ensemble(nbars=(20,), ensemble=200, seed=0, detection=cfg).rows[0]
        want = [20.0, 0.9534203876601389, 0.013308062585530758, 0.27,
                0.996432924833802, 2.5513730211892615e-05, 0.17,
                0.9969720810907049, 0.0001572687624393187, 0.25,
                0.9557050504548915, 0.009033364808751356, 0.31]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-14)

    def test_homodyne_working_memory_does_not_grow_with_the_ensemble(self):
        """The record densities are taken a chunk of inputs at a time: the
        traced peak at 1,000 inputs is that at 200 within 10%."""
        cfg = protocols.HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=0.5)
        bell_ensemble(nbars=(50,), ensemble=10, seed=0, detection=cfg)  # fill the caches
        peaks = []
        for n in (200, 1000):
            with traced_peak() as mem:
                bell_ensemble(nbars=(50,), ensemble=n, seed=0, detection=cfg)
            peaks.append(mem.peak)
        assert peaks[1] <= 1.1 * peaks[0]


class TestSeedTypes:
    """Every seeded entry point takes a Python or NumPy integer seed, the
    latter as the same stream, and refuses any other number by name."""

    @staticmethod
    def entry_points():
        cut = FockCutoff.for_mean_photon(20.0)
        alpha = math.sqrt(20.0) * np.exp(1j * math.pi / 8.0)
        c = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        cfg = protocols.HomodyneConfig(lo_phase=math.pi / 8.0, efficiency=0.5)
        return {
            "shot": lambda seed: protocols.run_bell_protocol(
                c, alpha, -0.002, cut, detection=cfg, rng_seed=seed, shot_index=3).record_x,
            "bell_ensemble": lambda seed: bell_ensemble(
                nbars=(6,), ensemble=4, seed=seed, detection=cfg).rows,
            "fidelity_scan": lambda seed: fidelity_scan(
                nbars=(4,), ensemble=2, seed=seed, time_points=3).rows,
        }

    @pytest.mark.parametrize("entry", ["shot", "bell_ensemble", "fidelity_scan"])
    def test_numpy_integer_seeds_give_the_int_stream(self, entry):
        run = self.entry_points()[entry]
        want = run(7)
        for seed in (np.int64(7), np.uint64(7)):
            np.testing.assert_array_equal(run(seed), want)

    @pytest.mark.parametrize("entry", ["shot", "bell_ensemble", "fidelity_scan"])
    @pytest.mark.parametrize("seed", [3.7, 3.0, math.nan])
    def test_non_integer_seeds_are_refused(self, entry, seed):
        with pytest.raises(ValueError, match=f"must be integers, got {seed!r}"):
            self.entry_points()[entry](seed)


class TestBellTiming:
    def test_probabilities_normalized_along_sweep(self):
        r = bell_timing(nbar=6.0, points=7)
        probs = r.rows[:, [2, 4, 6, 8]]
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert r.rows[0, 0] < 0.5 < r.rows[-1, 0]

    def test_sweep_evolves_nothing_and_projects_each_cavity_once(self, monkeypatch):
        """The default 321-point sweep reads both cavities from one
        projection of cavity 1's references on the sector eigenvectors and
        one phase table, built in chunks of times; cavity 2 is the same map
        turned.  It evolves no state and leaves the single-time cache
        alone."""
        counts = {"project": 0, "phases": 0, "propagate": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(SectorSpectrum, name, counting(name, getattr(SectorSpectrum, name)))
        misses = protocols._cavity.cache_info().misses
        bell_timing(points=321)
        cut = FockCutoff.for_mean_photon(50.0)
        entries = w_spectrum(-0.002, cut).values.size
        chunks = math.ceil(321 / (protocols._BASIS_CHUNK // entries))
        assert chunks > 1
        assert counts == {"project": 1, "phases": chunks, "propagate": 0}
        assert protocols._cavity.cache_info().misses == misses


class TestWignerPanels:
    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    @pytest.mark.parametrize("nbar", [20.0, 50.0, 100.0])
    def test_svd_pairs_match_wigner_of_the_reduced_field(self, nbar):
        """Each panel, summed over the thin-SVD pairs of the joint
        amplitudes, is wigner() of the field reduced from the same state."""
        panels = wigner_panels(nbar=nbar)
        times = [0.0, revival_time(-0.002) / 4.0, revival_time(-0.002) / 2.0]
        states = excited_state_evolved(nbar, 2.0 * math.pi / 3.0, -0.002, times)
        for label, amps in zip(("t0", "tr4", "tr2"), states):
            rows = panels[label].rows
            rho = partial_trace(StateVector(amps, (2, 2, amps.size // 4)), keep="field")
            grid = wigner(rho, rows[:201, 0], rows[::201, 1])
            np.testing.assert_allclose(rows[:, 2], grid.values.ravel(), rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    def test_working_memory_stays_bounded(self):
        """Past their three (n, 3) row matrices, the panels at nbar = 300 on
        401-point axes hold at most 8 MB at once: one kernel block and one
        gather of _GATHER entries each, the lattice wavefunctions and the
        grid, not the (K + 1) x 401 kernel of 5.4 MB and its temporaries."""
        with traced_peak() as mem:
            panels = wigner_panels(nbar=300.0, grid_points=401)
        assert mem.peak - sum(p.rows.nbytes for p in panels.values()) <= 8e6

    @pytest.mark.filterwarnings("ignore:grid spacing:UserWarning")
    def test_three_panels_share_one_transform(self, monkeypatch):
        """The three panels at nbar = 50 take one transform: two Hermite sums
        (the z_max probe and one lattice over every panel's columns) and one
        y kernel, whose sin sees (K + 1) x 201 angles once; a transform per
        panel makes six sums and three kernels."""
        sums, angles, pieces = [], [], []
        hermite, sin, lattices = analysis.hermite_sum, np.sin, analysis._lattices
        monkeypatch.setattr(analysis, "hermite_sum", lambda x, c: sums.append(x) or hermite(x, c))
        monkeypatch.setattr(np, "sin", lambda x, *a, **k: angles.append(np.shape(x)) or sin(x, *a, **k))
        monkeypatch.setattr(
            analysis, "_lattices", lambda *a: (pieces.append(p) or p for p in lattices(*a))
        )
        wigner_panels(50.0)
        assert len(sums) == 2 and len(pieces) == 1
        k_max = pieces[0][5]
        assert [s for s in angles if s[1:] == (201,)] == [(k_max + 1, 201)]

    def test_three_panels_with_metadata(self):
        with pytest.warns(UserWarning, match="fringe"):
            panels = wigner_panels(nbar=4.0, grid_points=41)
        assert sorted(panels) == ["t0", "tr2", "tr4"]
        for res in panels.values():
            assert res.columns == ("beta_re", "beta_im", "wigner")
            assert res.rows.shape == (41 * 41, 3)
            assert res.meta["span"] > 0
        assert panels["t0"].meta["integral"] == pytest.approx(1.0, abs=0.05)
