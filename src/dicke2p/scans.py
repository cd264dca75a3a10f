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
    WignerGrid,
    _haar_atoms,
    _thread_rng,
    _wigner_pairs,
    ensemble_stats,
    sample_rng,
)
from .dynamics import (
    _unit_phases,
    check_capture,
    linearized_spectrum,
    rabi_see_analytic,
    revival_time,
    sector_overlaps,
    sector_spectrum,
)
from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    coherent_state,
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
    _homodyne_outcomes,
    bell_outcome_arrays,
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

# One short tag per detector outcome, used in column names, in the outcome
# order k of ALL_OUTCOMES: 'p' for a '+' and 'm' for a '-' of d1, then of d2.
OUTCOME_SUFFIX = dict(zip(ALL_OUTCOMES, ("pp", "pm", "mp", "mm")))

# Stride between per-nbar seed offsets so RNG streams never collide.
_SEED_STRIDE = 10007
# Entries of the phase tables, sample coefficients C and phase products E of
# one chunk of fidelity_scan sectors together, or of a rabi_curve cosine table
# for one chunk of times (2 MB as complex).
_CHUNK = 2**17


@dataclass(frozen=True)
class ScanResult:
    """Tabular scan output: one or more column names, an (R, C) float
    matrix (NaN allowed), and the dict of parameters that produced it."""

    columns: tuple[str, ...]
    rows: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        if not self.columns or not all(isinstance(c, str) for c in self.columns):
            raise ValueError(f"columns must be one or more names, got {self.columns!r}")
        if not isinstance(self.meta, dict):
            raise ValueError(f"meta must be a dict, got {type(self.meta).__name__}")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError("row matrix does not match the column list")
        if len(set(self.columns)) < len(self.columns):
            raise ValueError(f"repeated column names in {self.columns}")


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

    Sample i at the k-th nbar draws two 4x4 normals (the Haar state), then
    one uniform (the phase) from sample_rng(seed + k * _SEED_STRIDE, i).
    Overlaps are taken in the sector eigenbasis (sector_overlaps), whose
    maps pair each sector with the same index in all three spectra (each
    sorts its sectors by excitation number).  So one chunk of sectors at a time
    gets its phase tables exp(-i lambda t), the full model's eigenvalues
    shifted by -2gN for the counter-rotation, and adds C @ E per overlap:
    C the samples' weights conj(w_bra) w_ket times the map, E the phase
    products.  The closed form is renormalized by its weight past the
    cutoff, a quadratic form taken the same way.
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
        rngs = [sample_rng(seed + k * _SEED_STRIDE, i) for i in range(ensemble)]
        atoms = _haar_atoms(rngs)
        theta = 2.0 * math.pi * np.array([rng.random() for rng in rngs])
        fields = np.exp(1j * np.outer(theta, np.arange(cutoff.dim)))  # e^{i n theta} on |n>
        fields *= coherent_state(math.sqrt(nbar), cutoff).amplitudes
        inputs = (atoms[:, :, None] * fields[:, None, :]).reshape(ensemble, -1)
        # the closed form lives on the cutoff n_max + 4 (linearized_spectrum)
        n_lin = math.prod(lin_spec.dims)
        at = np.flatnonzero(np.arange(n_lin) % (cutoff.dim + 4) < cutoff.dim)
        kept = np.full(n_lin, -1)
        kept[at] = idx
        weights = {full_spec: full_spec.project(inputs, idx), w_spec: w_spec.project(inputs)}
        weights[lin_spec] = lin_spec.project(inputs, at)
        # (bra, ket, sectors, M) of <psi_W|R psi_full>, of <kept psi_lin|R psi_full>,
        # and of the weight of psi_lin past the cutoff
        overlaps = []
        for bra, ket, to_ket in (
            (w_spec, full_spec, idx),
            (lin_spec, full_spec, kept),
            (lin_spec, lin_spec, np.where(kept < 0, np.arange(kept.size), -1)),
        ):
            pairs, partner, m = sector_overlaps(bra, ket, to_ket)
            if not np.array_equal(pairs, partner):
                raise ValueError("an overlap map pairs sectors of different index")
            overlaps.append((bra, ket, pairs, m))
        # the counter-rotation R by the (omega + 2g) I part of the effective model
        shift = 2.0 * g * excitation_labels(cutoff, levels=3)[full_spec.index[:, :1]]
        lam = {full_spec: full_spec.values - shift, w_spec: w_spec.values, lin_spec: lin_spec.values}
        # per sector: the phase tables, and C and E of every overlap
        per_sector = time_points * sum(v.shape[1] for v in lam.values())
        per_sector += (ensemble + time_points) * sum(m[0].size for *_, m in overlaps)
        step = max(1, _CHUNK // per_sector)
        values = np.zeros((3, ensemble, time_points), dtype=np.complex128)
        # every E is written into one buffer: a fresh table per overlap and
        # chunk would take a page fault per 4 KiB of it
        work = np.empty(step * max(m[0].size for *_, m in overlaps) * time_points, np.complex128)
        for lo in range(0, max(len(v) for v in lam.values()), step):
            ph = {spec: _unit_phases(v[lo : lo + step, :, None] * times) for spec, v in lam.items()}
            for b, (bra, ket, pairs, m) in enumerate(overlaps):
                first, end = np.searchsorted(pairs, (lo, lo + step))
                p, m = pairs[first:end], m[first:end]
                c = weights[bra][:, p, :, None].conj() * weights[ket][:, p, None, :] * m
                e = work[: m.size * time_points].reshape(m.shape + (time_points,))
                np.multiply(ph[bra][p - lo, :, None].conj(), ph[ket][p - lo, None], out=e)
                values[b] += c.reshape(ensemble, -1) @ e.reshape(-1, time_points)
        check_capture(values[2].real, cutoff.n_max)
        fids = np.abs(values[:2]) ** 2
        fids[1] /= np.sum(np.abs(weights[lin_spec]) ** 2, axis=(1, 2))[:, None] - values[2].real
        mean, err = ensemble_stats(fids.transpose(1, 0, 2))
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
    evolution next to the closed-form collapse/revival expression.  The
    exact curve evolves no state: with b_ik = V_ik w_k in each sector and
    o_i the excited atoms of slot i, it sums C_kl e^{i(lam_k - lam_l) t},
    C = b^dag diag(o) b, as tr C plus a cosine sum over k < l, a chunk of
    times at a time in one reused table."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar)
    spec = sector_spectrum(EffectiveModelParams(g, cutoff))  # refuses g = 0 before the division
    grid = np.linspace(0.0, gt_max_over_pi, points)
    times = grid * math.pi / abs(g)

    o = np.append(np.repeat([0.0, 1.0, 1.0, 2.0], cutoff.dim), 0.0)[spec.index, None]
    psi0 = np.kron([0, 0, 0, 1], coherent_state(alpha, cutoff).amplitudes)  # |ee>|alpha>
    b = spec.vectors * spec.project(psi0)[:, None, :]
    c = (b.conj() * o).transpose(0, 2, 1) @ b
    k, l = np.triu_indices(spec.index.shape[1], 1)
    # W and |ee>|alpha> are real, so is C: a pair k < l adds 2 C_kl cos((lam_k - lam_l) t)
    pairs, freqs = 2.0 * c[:, k, l].real.ravel(), (spec.values[:, k] - spec.values[:, l]).ravel()
    numeric = np.full(points, np.trace(c, axis1=1, axis2=2).sum().real)
    step = max(1, _CHUNK // freqs.size)
    table = np.empty((min(step, points), freqs.size))  # one cosine table for every chunk
    for lo in range(0, points, step):
        cos_t = table[: min(step, points - lo)]
        np.cos(np.outer(times[lo : lo + step], freqs, out=cos_t), out=cos_t)
        numeric[lo : lo + step] += cos_t @ pairs
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
    coherent components, then a fringe-free two-lobe mixture.  The three
    panels share one transform (`analysis._wigner_pairs`)."""
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    cutoff = FockCutoff.for_mean_photon(nbar)
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    psi0 = np.kron([0, 0, 0, 1], coherent_state(alpha, cutoff).amplitudes)  # |ee>|alpha>
    w_spec = sector_spectrum(EffectiveModelParams(g, cutoff))

    span = math.sqrt(nbar) + 5.0
    axis = np.linspace(-span, span, grid_points)

    times = (0.0, revival_time(g) / 4.0, revival_time(g) / 2.0)
    amplitudes = w_spec.propagate(psi0, np.array(times)).reshape(3, 4, cutoff.dim)
    # rho_f = M^T M* = U diag(s^2) U^dag, from the thin SVD M^T = U diag(s) V^dag
    u, s, _ = np.linalg.svd(amplitudes.transpose(0, 2, 1), full_matrices=False)
    grids = _wigner_pairs(s**2, u, axis, axis)
    panels: dict[str, ScanResult] = {}
    for label, t, values in zip(("t0", "tr4", "tr2"), times, grids.values):
        rows = np.empty((grid_points, grid_points, 3))  # [i, j] = (re_j, im_i, W_ij)
        rows[..., 0], rows[..., 1], rows[..., 2] = axis, axis[:, None], values
        meta = {
            "nbar": nbar,
            "phi": phi,
            "g": g,
            "time": t,
            "time_label": label,
            "integral": WignerGrid(axis, axis, values).integral(),
            "grid_points": grid_points,
            "span": span,
        }
        panels[label] = ScanResult(("beta_re", "beta_im", "wigner"), rows.reshape(-1, 3), meta)
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
    HomodyneConfig one shot is sampled per input, run_bell_protocol's shot
    on the stream sample_rng(base, 2i + 1), and outcomes accumulate
    conditionally, so rates become empirical frequencies; the shots run as
    arrays on one batched chain (protocols._homodyne_outcomes), not one
    protocol call per input.
    """
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    n_out = len(ALL_OUTCOMES)
    cols = ["nbar"]
    for s in OUTCOME_SUFFIX.values():
        cols += [f"mean_F_{s}", f"stderr_F_{s}", f"rate_{s}"]

    rows = np.full((len(nbars), 1 + 3 * n_out), np.nan)
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
        base = seed + k * _SEED_STRIDE
        # lazily: each reset stream is drawn from before the next reset
        atoms = _haar_atoms(_thread_rng(base, 2 * i) for i in range(ensemble))
        if isinstance(detection, HomodyneConfig):
            shots = (_thread_rng(base, 2 * i + 1) for i in range(ensemble))
            outcome, fid = _homodyne_outcomes(atoms, alpha, g, cutoff, engine, detection, shots)
            rates = np.eye(n_out)[outcome]
            fids = np.where(rates == 1.0, fid[:, None], np.nan)
        else:
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
    EffectiveModelParams(g, cutoff)  # refuses g = 0 before the division
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    center = math.pi / 2.0
    gts = np.linspace(center - half_width_gt, center + half_width_gt, points)
    atoms = coeffs.to_state().amplitudes
    prob, fid, _ = bell_outcome_arrays(atoms, alpha, g, cutoff, gts / abs(g))

    cols = ["gt_over_pi"]
    data = [gts / math.pi]
    for k, s in enumerate(OUTCOME_SUFFIX.values()):
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
