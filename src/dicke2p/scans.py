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
    _thread_rng,
    ensemble_stats,
    haar_random_two_qubit,
    partial_trace,
    sample_rng,
    wigner,
)
from .dynamics import (
    check_capture,
    evolve_exact_many,
    linearized_spectrum,
    rabi_see_analytic,
    revival_time,
    sector_overlaps,
    sector_spectrum,
)
from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    coherent_state,
    tensor,
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
    bell_outcome_arrays,
    run_bell_protocol,
    run_ghz,
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
# Entries of the fidelity_scan overlap tables for one chunk of times, and of
# their coefficients for one chunk of samples (2 MB each).  At 2**18 the
# scan at nbar 20/50/100 and ensemble 10 keeps the coefficients of all its
# samples, but its tracemalloc peak rises from 4.9 to 8.2 MB.
_CHUNK = 2**17


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

    Sample i at the k-th nbar draws from sample_rng(seed + k * _SEED_STRIDE,
    i).  Overlaps are taken in the sector eigenbasis (sector_overlaps): per
    chunk of times a table E of phase products times overlap maps, per chunk
    of samples a matrix A of eigenvector weights, and E @ A for all of them.
    The closed form is renormalized by its weight past the cutoff, a
    quadratic form taken the same way.
    """
    if time_points < 1:
        raise ValueError(f"time_points must be >= 1, got {time_points}")
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    g = effective_coupling(g_g, g_e, delta)
    grid = np.linspace(0.0, 1.0, time_points)
    times = grid * math.pi / abs(g)

    cols: list[str] = ["gt_over_pi"]
    data: list[np.ndarray] = [grid]
    validity: dict[str, bool] = {}
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        params = FullModelParams(omega=0.0, delta=delta, g_g=g_g, g_e=g_e, cutoff=cutoff)
        validity[str(nbar)] = validity_report(params, float(nbar)).ok
        full_spec = sector_spectrum(params)
        w_spec = sector_spectrum(EffectiveModelParams(g, cutoff))
        lin_spec = linearized_spectrum(g, cutoff)
        idx = embed_indices(cutoff)
        inputs = np.empty((ensemble, idx.size), dtype=np.complex128)
        for i in range(ensemble):
            rng = sample_rng(seed + k * _SEED_STRIDE, i)
            coeffs = haar_random_two_qubit(rng)
            alpha = math.sqrt(nbar) * cmath.exp(2j * math.pi * rng.uniform())
            inputs[i] = tensor(coeffs.to_state(), coherent_state(alpha, cutoff)).amplitudes
        # the closed form lives on the cutoff n_max + 4 (linearized_spectrum)
        n_lin = math.prod(lin_spec.dims)
        at = np.flatnonzero(np.arange(n_lin) % (cutoff.dim + 4) < cutoff.dim)
        kept = np.full(n_lin, -1)
        kept[at] = idx
        weights = {full_spec: full_spec.project(inputs, idx), w_spec: w_spec.project(inputs)}
        weights[lin_spec] = lin_spec.project(inputs, at)
        # (bra, ket, pairs, partner, M) of <psi_W|R psi_full>, of <kept psi_lin|R psi_full>,
        # and of the weight of psi_lin past the cutoff
        overlaps = [
            (bra, ket, *sector_overlaps(bra, ket, to_ket))
            for bra, ket, to_ket in (
                (w_spec, full_spec, idx),
                (lin_spec, full_spec, kept),
                (lin_spec, lin_spec, np.where(kept < 0, np.arange(kept.size), -1)),
            )
        ]
        step = max(1, _CHUNK // sum(m.size for *_, m in overlaps))
        # the counter-rotation by the (omega + 2g) I part of the effective model
        labels = excitation_labels(cutoff, levels=3)[full_spec.index[:, 0]]

        def coefficients(bra, ket, pairs, partner, s: slice) -> np.ndarray:
            """A: conj(w_bra) w_ket of the samples s per sector pair, flattened."""
            wa, wb = weights[bra][s].take(pairs, axis=1), weights[ket][s].take(partner, axis=1)
            return np.einsum("npk,npl->npkl", wa.conj(), wb).reshape(len(wa), -1)

        spans = [slice(lo, lo + step) for lo in range(0, ensemble, step)]
        held = [coefficients(*o[:4], spans[0]) for o in overlaps] if len(spans) == 1 else None
        values = np.empty((3, time_points, ensemble), dtype=np.complex128)
        for lo in range(0, time_points, step):
            t = times[lo : lo + step]
            ph = {spec: spec.phases(t) for spec in weights}
            ph[full_spec] *= np.exp(2j * g * np.outer(t, labels))[:, :, None]
            for b, (bra, ket, pairs, partner, m) in enumerate(overlaps):
                # E: the phase products times the overlap maps
                table = ph[bra].take(pairs, axis=1)[..., None].conj() * m
                table *= ph[ket].take(partner, axis=1)[..., None, :]
                for s in spans:
                    a = held[b] if held else coefficients(bra, ket, pairs, partner, s)
                    values[b, lo : lo + step, s] = table.reshape(len(t), -1) @ a.T
                del table  # before the next overlap builds its own
        check_capture(values[2].real, cutoff.n_max)
        fids = np.abs(values[:2]) ** 2
        fids[1] /= np.sum(np.abs(weights[lin_spec]) ** 2, axis=(1, 2)) - values[2].real
        mean, err = ensemble_stats(fids.transpose(2, 0, 1))
        cols += [f"{c}_nbar{nbar}" for c in ("mean_FW", "stderr_FW", "mean_F", "stderr_F")]
        data += [mean[0], err[0], mean[1], err[1]]

    meta = {
        "nbars": list(nbars),
        "g_g": g_g,
        "g_e": g_e,
        "delta": delta,
        "g": g,
        "ensemble": ensemble,
        "seed": seed,
        "validity": validity,
    }
    return ScanResult(tuple(cols), np.column_stack(data), meta)


def rabi_curve(
    nbar: float = 50.0,
    g: float = -0.002,
    gt_max_over_pi: float = 1.2,
    points: int = 481,
) -> ScanResult:
    """Collapse and revival of <S_ee> for |ee>|alpha>: exact two-photon
    evolution next to the closed-form collapse/revival expression."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar)
    grid = np.linspace(0.0, gt_max_over_pi, points)
    times = grid * math.pi / abs(g)

    atoms = StateVector(np.array([0, 0, 0, 1], dtype=np.complex128), (2, 2))
    psi0 = tensor(atoms, coherent_state(alpha, cutoff))
    traj = evolve_exact_many(sector_spectrum(EffectiveModelParams(g, cutoff)), psi0, times)
    numeric = np.abs(traj) ** 2 @ np.repeat([0.0, 1.0, 1.0, 2.0], cutoff.dim)
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
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    atoms = StateVector(np.array([0, 0, 0, 1], dtype=np.complex128), (2, 2))
    psi0 = tensor(atoms, coherent_state(alpha, cutoff))
    w_spec = sector_spectrum(EffectiveModelParams(g, cutoff))
    t_r = revival_time(g)

    span = math.sqrt(nbar) + 5.0
    axis = np.linspace(-span, span, grid_points)

    panels: dict[str, ScanResult] = {}
    for label, t in (("t0", 0.0), ("tr4", t_r / 4.0), ("tr2", t_r / 2.0)):
        psi_t = (
            psi0
            if t == 0.0
            else StateVector(
                evolve_exact_many(w_spec, psi0, np.array([t]))[0], psi0.dims
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

    Ideal detection reads all four outcomes of every Haar input (drawn
    first, input i from sample_rng(base, 2i)) off one batched chain
    (postselected averages, rate = mean Born probability).  With a
    HomodyneConfig one shot is sampled per input and outcomes accumulate
    conditionally, so rates become empirical frequencies.
    """
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    n_out = len(ALL_OUTCOMES)
    cols = ["nbar"]
    for o in ALL_OUTCOMES:
        s = OUTCOME_SUFFIX[o]
        cols += [f"mean_F_{s}", f"stderr_F_{s}", f"rate_{s}"]

    rows = np.full((len(nbars), 1 + 3 * n_out), np.nan)
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
        base = seed + k * _SEED_STRIDE
        inputs = [haar_random_two_qubit(_thread_rng(base, 2 * i)) for i in range(ensemble)]
        if isinstance(detection, HomodyneConfig):
            fids, rates = np.full((ensemble, n_out), np.nan), np.zeros((ensemble, n_out))
            for i, c in enumerate(inputs):
                res = run_bell_protocol(c, alpha, g, cutoff, engine, detection, base, 2 * i + 1)
                j = ALL_OUTCOMES.index(res.outcome)
                fids[i, j], rates[i, j] = res.fidelity, 1.0
        else:
            atoms = np.array([c.to_state().amplitudes for c in inputs]).reshape(-1, 4)
            t = [revival_time(g) / 2.0]
            rates, fids, _ = bell_outcome_arrays(atoms, alpha, g, cutoff, t, engine)
        rows[k, 0] = nbar
        for j in range(n_out):
            vals = fids[:, j][np.isfinite(fids[:, j])]
            if vals.size:
                rows[k, 1 + 3 * j : 3 + 3 * j] = ensemble_stats(vals)
            rows[k, 3 + 3 * j] = rates[:, j].mean()

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
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if coeffs is None:
        coeffs = AtomCoeffs.normalized(0.5, 0.5, 0.5, 0.5)
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    center = math.pi / 2.0
    gts = np.linspace(center - half_width_gt, center + half_width_gt, points)
    atoms = coeffs.to_state().amplitudes
    prob, fid, _ = bell_outcome_arrays(atoms, alpha, g, cutoff, gts / abs(g))

    cols = ["gt_over_pi"]
    data = [gts / math.pi]
    for k, o in enumerate(ALL_OUTCOMES):
        s = OUTCOME_SUFFIX[o]
        cols += [f"fidelity_{s}", f"probability_{s}"]
        data += [fid[:, k], prob[:, k]]
    meta = {
        "nbar": nbar,
        "phi": phi,
        "g": g,
        "half_width_gt": half_width_gt,
        "points": points,
    }
    return ScanResult(tuple(cols), np.column_stack(data), meta)
