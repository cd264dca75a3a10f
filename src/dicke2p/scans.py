"""Batch computations behind the command-line subcommands.

Each scan returns a ScanResult: named columns, a float matrix of rows, and
a metadata dict.  File output and argument parsing live in the CLI layer;
everything here is importable and deterministic under a fixed seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    ensemble_average,
    haar_random_two_qubit,
    partial_trace,
    sample_rng,
    wigner,
)
from .dynamics import (
    evolve_exact_many,
    evolve_linearized_many,
    linearized_spectrum,
    rabi_see_analytic,
    revival_time,
    sector_spectrum,
)
from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    coherent_state,
    tensor,
    two_qubit_tag,
)
from .models import (
    EffectiveModelParams,
    FullModelParams,
    effective_coupling,
    embed_indices,
    excitation_labels,
    validity_report,
)
from .protocols import (
    ALL_OUTCOMES,
    HomodyneConfig,
    bell_outcome_table,
    run_bell_protocol,
    run_ghz,
    timing_sensitivity,
)

__all__ = [
    "ScanResult",
    "fidelity_scan",
    "rabi_curve",
    "wigner_panels",
    "ghz_sweep",
    "bell_ensemble",
    "bell_timing",
    "OUTCOME_SUFFIX",
]

# One short tag per detector outcome, used in column names.
OUTCOME_SUFFIX = {o: f"{'p' if o.d1 == '+' else 'm'}{'p' if o.d2 == '+' else 'm'}" for o in ALL_OUTCOMES}

# Stride between per-nbar seed offsets so RNG streams never collide.
_SEED_STRIDE = 10007

_EE_SPACE = two_qubit_tag()


@dataclass(frozen=True)
class ScanResult:
    """Tabular scan output: column names, an (R, C) float matrix (NaN
    allowed), and the parameters that produced it."""

    columns: tuple[str, ...]
    rows: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError("row matrix does not match the column list")


def _w_params(g: float, cutoff: FockCutoff) -> EffectiveModelParams:
    return EffectiveModelParams(g=g, cutoff=cutoff)


def fidelity_scan(
    nbars: tuple[int, ...] = (20, 50, 100),
    g_g: float = 1.0,
    g_e: float = 1.0,
    delta: float = 500.0,
    ensemble: int = 100,
    seed: int = 0,
    time_points: int = 101,
) -> ScanResult:
    """Haar-ensemble fidelities of the reduced descriptions against the full
    three-level model over gt/pi in [0, 1].

    For each sample (Haar two-qubit state, coherent phase uniform in
    [0, 2pi)) two overlaps are tracked: the state evolved with the
    two-photon interaction alone, and the closed-form large-n solution.
    Both are compared in the rotating frame of the conserved excitation
    number, which carries the only surviving Stark contribution.
    """
    g = effective_coupling(g_g, g_e, delta)
    grid = np.linspace(0.0, 1.0, time_points)
    times = grid * math.pi / abs(g)

    cols: list[str] = ["gt_over_pi"]
    data: list[np.ndarray] = [grid]
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        full_spec = sector_spectrum(
            FullModelParams(omega=0.0, delta=delta, g_g=g_g, g_e=g_e, cutoff=cutoff)
        )
        w_spec = sector_spectrum(_w_params(g, cutoff))
        lin_spec = linearized_spectrum(g, cutoff)
        idx = embed_indices(cutoff)
        # counter-rotation by the (omega + 2g) I part of the effective model;
        # the two-level labels equal the three-level ones on the embedded states
        rot = np.exp(2j * g * np.outer(times, excitation_labels(cutoff, levels=2)))
        space3 = full_spec.space
        dim3 = space3.dim

        def task(rng: np.random.Generator) -> np.ndarray:
            coeffs = haar_random_two_qubit(rng)
            phi = 2.0 * math.pi * rng.uniform()
            alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
            psi0 = tensor(coeffs.to_state(), coherent_state(alpha, cutoff))
            full0 = np.zeros(dim3, dtype=np.complex128)
            full0[idx] = psi0.amplitudes
            traj_full = evolve_exact_many(full_spec, StateVector(full0, space3), times)
            sub = traj_full[:, idx] * rot
            traj_w = evolve_exact_many(w_spec, psi0, times)
            traj_an = evolve_linearized_many(lin_spec, psi0, times)
            f_w = np.abs(np.einsum("td,td->t", traj_w.conj(), sub)) ** 2
            f_an = np.abs(np.einsum("td,td->t", traj_an.conj(), sub)) ** 2
            return np.stack([f_w, f_an])

        mean, err = ensemble_average(task, ensemble, seed + k * _SEED_STRIDE)
        cols += [
            f"mean_FW_nbar{nbar}",
            f"stderr_FW_nbar{nbar}",
            f"mean_F_nbar{nbar}",
            f"stderr_F_nbar{nbar}",
        ]
        data += [mean[0], err[0], mean[1], err[1]]

    meta = {
        "nbars": list(nbars),
        "g_g": g_g,
        "g_e": g_e,
        "delta": delta,
        "g": g,
        "ensemble": ensemble,
        "seed": seed,
        "validity": {
            str(n): validity_report(
                FullModelParams(
                    omega=0.0,
                    delta=delta,
                    g_g=g_g,
                    g_e=g_e,
                    cutoff=FockCutoff.for_mean_photon(float(n)),
                ),
                float(n),
            ).ok
            for n in nbars
        },
    }
    return ScanResult(tuple(cols), np.column_stack(data), meta)


def _see_weights(nf: int) -> np.ndarray:
    return np.repeat(np.array([0.0, 1.0, 1.0, 2.0]), nf)


def rabi_curve(
    nbar: float = 50.0,
    g: float = -0.002,
    gt_max_over_pi: float = 1.2,
    points: int = 481,
) -> ScanResult:
    """Collapse and revival of <S_ee> for |ee>|alpha>: exact two-photon
    evolution next to the closed-form collapse/revival expression."""
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar)
    grid = np.linspace(0.0, gt_max_over_pi, points)
    times = grid * math.pi / abs(g)

    atoms = StateVector(np.array([0, 0, 0, 1], dtype=np.complex128), _EE_SPACE)
    psi0 = tensor(atoms, coherent_state(alpha, cutoff))
    traj = evolve_exact_many(sector_spectrum(_w_params(g, cutoff)), psi0, times)
    numeric = np.abs(traj) ** 2 @ _see_weights(cutoff.dim)
    analytic = rabi_see_analytic(alpha, g, times)
    rows = np.column_stack([grid, numeric, analytic])
    meta = {"nbar": nbar, "g": g, "alpha": alpha, "points": points}
    return ScanResult(("gt_over_pi", "see_numeric", "see_analytic"), rows, meta)


def wigner_panels(
    nbar: float = 50.0,
    phi: float = 2.0 * math.pi / 3.0,
    g: float = -0.002,
    grid_points: int = 201,
) -> dict[str, ScanResult]:
    """Field Wigner function of |ee>|alpha e^{i phi}> under the two-photon
    interaction at t = 0, t_r/4, t_r/2: single Gaussian, then correlated
    coherent components, then a fringe-free two-lobe mixture."""
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    atoms = StateVector(np.array([0, 0, 0, 1], dtype=np.complex128), _EE_SPACE)
    psi0 = tensor(atoms, coherent_state(alpha, cutoff))
    w_spec = sector_spectrum(_w_params(g, cutoff))
    t_r = revival_time(g)

    span = math.sqrt(nbar) + 5.0
    axis = np.linspace(-span, span, grid_points)

    panels: dict[str, ScanResult] = {}
    for label, t in (("t0", 0.0), ("tr4", t_r / 4.0), ("tr2", t_r / 2.0)):
        psi_t = (
            psi0
            if t == 0.0
            else StateVector(
                evolve_exact_many(w_spec, psi0, np.array([t]))[0], psi0.space
            )
        )
        rho_f = partial_trace(psi_t, keep="field")
        grid = wigner(rho_f, beta_re=axis, beta_im=axis)
        re_m, im_m = np.meshgrid(grid.beta_re, grid.beta_im)
        rows = np.column_stack([re_m.ravel(), im_m.ravel(), grid.values.ravel()])
        meta = {
            "nbar": nbar,
            "phi": phi,
            "g": g,
            "time": t,
            "time_label": label,
            "integral": grid.integral(),
            "grid_points": grid_points,
            "span": span,
        }
        panels[label] = ScanResult(("beta_re", "beta_im", "wigner"), rows, meta)
    return panels


def ghz_sweep(
    nbars: tuple[int, ...] = (10, 20, 50, 100),
    phi: float = math.pi / 4.0,
    g: float = -0.002,
    engine: str = "exact",
) -> ScanResult:
    """GHZ fidelity at half the revival time over a mean-photon-number sweep."""
    rows = np.empty((len(nbars), 2))
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        rows[k, 0] = nbar
        rows[k, 1] = run_ghz(math.sqrt(nbar), phi, g, cutoff, engine=engine)
    meta = {"nbars": list(nbars), "phi": phi, "g": g, "engine": engine}
    return ScanResult(("nbar", "fidelity_ghz"), rows, meta)


def bell_ensemble(
    nbars: tuple[int, ...] = (10, 20, 50),
    phi: float = math.pi / 8.0,
    g: float = -0.002,
    ensemble: int = 100,
    seed: int = 0,
    engine: str = "exact",
    detection: str | HomodyneConfig = "ideal",
) -> ScanResult:
    """Haar-ensemble Bell-protocol fidelity per outcome versus mean photon
    number.

    Ideal detection enumerates all four outcomes per sample (postselected
    averages, rate = mean Born probability).  With a HomodyneConfig one
    shot is sampled per input and outcomes accumulate conditionally, so
    rates become empirical frequencies.
    """
    n_out = len(ALL_OUTCOMES)
    cols = ["nbar"]
    for o in ALL_OUTCOMES:
        s = OUTCOME_SUFFIX[o]
        cols += [f"mean_F_{s}", f"stderr_F_{s}", f"rate_{s}"]

    rows = np.full((len(nbars), 1 + 3 * n_out), np.nan)
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
        fids: dict = {o: [] for o in ALL_OUTCOMES}
        rates: dict = {o: [] for o in ALL_OUTCOMES}
        base = seed + k * _SEED_STRIDE
        for i in range(ensemble):
            coeffs = haar_random_two_qubit(sample_rng(base, 2 * i))
            if isinstance(detection, HomodyneConfig):
                res = run_bell_protocol(
                    coeffs,
                    alpha,
                    g,
                    cutoff,
                    engine=engine,
                    detection=detection,
                    rng_seed=base,
                    shot_index=2 * i + 1,
                )
                if math.isfinite(res.fidelity):
                    fids[res.outcome].append(res.fidelity)
                for o in ALL_OUTCOMES:
                    rates[o].append(1.0 if o == res.outcome else 0.0)
            else:
                for res in bell_outcome_table(coeffs, alpha, g, cutoff, engine=engine):
                    if math.isfinite(res.fidelity):
                        fids[res.outcome].append(res.fidelity)
                    rates[res.outcome].append(res.probability)
        rows[k, 0] = nbar
        for j, o in enumerate(ALL_OUTCOMES):
            vals = np.array(fids[o])
            if vals.size:
                rows[k, 1 + 3 * j] = vals.mean()
                rows[k, 2 + 3 * j] = (
                    vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0
                )
            rows[k, 3 + 3 * j] = float(np.mean(rates[o]))

    meta = {
        "nbars": list(nbars),
        "phi": phi,
        "g": g,
        "ensemble": ensemble,
        "seed": seed,
        "engine": engine,
        "detection": "ideal"
        if not isinstance(detection, HomodyneConfig)
        else {
            "efficiency": detection.efficiency,
            "lo_phase": detection.lo_phase,
        },
    }
    return ScanResult(tuple(cols), rows, meta)


def bell_timing(
    nbar: float = 50.0,
    phi: float = math.pi / 8.0,
    g: float = -0.002,
    half_width_gt: float = 0.08,
    points: int = 321,
    coeffs: AtomCoeffs | None = None,
) -> ScanResult:
    """Per-outcome protocol fidelity while both interaction times sweep a
    window around the optimal gt = pi/2.

    The default input weights the four Bell components equally, which at
    phi = pi/8 balances all outcome probabilities at 1/4.
    """
    if coeffs is None:
        coeffs = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    center = math.pi / 2.0
    gts = np.linspace(center - half_width_gt, center + half_width_gt, points)
    curves = timing_sensitivity(coeffs, alpha, g, cutoff, gts / abs(g))

    cols = ["gt_over_pi"]
    data = [gts / math.pi]
    for o in ALL_OUTCOMES:
        s = OUTCOME_SUFFIX[o]
        cols += [f"fidelity_{s}", f"probability_{s}"]
        data += [curves.fidelities[o], curves.probabilities[o]]
    meta = {
        "nbar": nbar,
        "phi": phi,
        "g": g,
        "half_width_gt": half_width_gt,
        "points": points,
    }
    return ScanResult(tuple(cols), np.column_stack(data), meta)
