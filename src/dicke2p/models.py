"""Hamiltonians for two three-level atoms coupled to a single cavity mode.

The full model couples the g-i and i-e transitions of both atoms to the
same mode within the rotating-wave approximation.  When the intermediate
level is far detuned it can be eliminated, leaving an effective two-photon
interaction W between |gg> and |ee> plus Stark shifts.

Both Hamiltonians conserve the excitation number a^dag a + 2 S_ee + S_ii,
so they are built here block by block: `sector_blocks` returns each
excitation sector's matrix (at most 9 states for three-level atoms, 4 for
two-level ones) straight from the parameters, and `excitation_labels` is
the one place that knows the conserved quantity.  The dense builders on
the shared tensor layout atom A (x) atom B (x) field remain as small-cutoff
reference operators for tests and are refused past DENSE_DIM_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    FockCutoff,
    Operator,
    SpaceTag,
    StateVector,
    annihilation_op,
    collective_op,
    creation_op,
    number_op,
    tripartite_tag,
)

__all__ = [
    "DENSE_DIM_LIMIT",
    "FullModelParams",
    "EffectiveModelParams",
    "ValidityReport",
    "VALIDITY_MARGIN",
    "full_hamiltonian",
    "two_photon_w",
    "stark_shift",
    "constant_of_motion",
    "excitation_labels",
    "sector_index",
    "sector_blocks",
    "effective_coupling",
    "trapped_ion_coupling",
    "dispersive_generator",
    "embed_two_level_state",
    "validity_report",
]

VALIDITY_MARGIN = 0.1

# Largest dimension a dense builder accepts: one complex matrix of 2048^2
# entries takes 64 MiB.  The three-level model at nbar = 100 has dimension
# 1665; the sector engine has no such limit.
DENSE_DIM_LIMIT = 2048

# Excitation carried by each atomic level, g, e or g, i, e.
_LEVEL_EXCITATION = {2: (0, 2), 3: (0, 1, 2)}


@dataclass(frozen=True)
class FullModelParams:
    """Three-level model: cavity frequency omega, intermediate-level
    detuning delta, and the two transition couplings."""

    omega: float
    delta: float
    g_g: float
    g_e: float
    cutoff: FockCutoff

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.g_g <= 0 or self.g_e <= 0:
            raise ValueError("couplings g_g, g_e must be positive")


@dataclass(frozen=True)
class EffectiveModelParams:
    """Two-photon model with a single coupling g (sign included)."""

    g: float
    cutoff: FockCutoff

    def __post_init__(self) -> None:
        if self.g == 0:
            raise ValueError("coupling g must be nonzero")


def effective_coupling(g_g: float, g_e: float, delta: float) -> float:
    """Two-photon coupling after adiabatic elimination: -g_g g_e / delta."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return -g_g * g_e / delta


def trapped_ion_coupling(rabi: float, lamb_dicke: float) -> float:
    """Effective coupling of the motional analogue: -rabi * eta^2 / 2."""
    return -rabi * lamb_dicke**2 / 2.0


def _check_dense(cutoff: FockCutoff, levels: int) -> None:
    """Refuse a dense tripartite build past DENSE_DIM_LIMIT before any
    matrix is allocated."""
    dim = levels * levels * cutoff.dim
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense build of dimension {dim} would need {16 * dim * dim:,} bytes per "
            f"matrix, past the limit of {DENSE_DIM_LIMIT}; use the excitation-sector "
            "engine (dynamics.sector_spectrum) instead"
        )


def _field_ops(
    cutoff: FockCutoff, levels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    _check_dense(cutoff, levels)
    a = annihilation_op(cutoff).matrix
    ad = creation_op(cutoff).matrix
    n = number_op(cutoff).matrix
    eye = np.eye(cutoff.dim, dtype=np.complex128)
    return a, ad, n, eye


def full_hamiltonian(params: FullModelParams) -> Operator:
    """RWA Hamiltonian of both cascade atoms coupled to one mode.

    H = omega a^dag a + 2 omega S_ee + (omega + delta) S_ii
        + g_g (a S_ig + a^dag S_gi) + g_e (a S_ei + a^dag S_ie)
    """
    cutoff = params.cutoff
    a, ad, n, eye_f = _field_ops(cutoff, 3)
    eye_a = np.eye(9, dtype=np.complex128)

    s_ee = collective_op("e", "e", 3).matrix
    s_ii = collective_op("i", "i", 3).matrix
    s_ig = collective_op("i", "g", 3).matrix
    s_ei = collective_op("e", "i", 3).matrix

    h = params.omega * np.kron(eye_a, n)
    h += 2.0 * params.omega * np.kron(s_ee, eye_f)
    h += (params.omega + params.delta) * np.kron(s_ii, eye_f)
    h += params.g_g * (np.kron(s_ig, a) + np.kron(s_ig.conj().T, ad))
    h += params.g_e * (np.kron(s_ei, a) + np.kron(s_ei.conj().T, ad))
    return Operator(h, tripartite_tag(cutoff, levels=3), hermitian=True)


def two_photon_w(params: EffectiveModelParams) -> Operator:
    """Two-photon interaction W = g (a^2 S_eg + a^dag^2 S_ge) on two-level atoms."""
    cutoff = params.cutoff
    a, ad, _, _ = _field_ops(cutoff, 2)
    s_eg = collective_op("e", "g", 2).matrix
    s_ge = collective_op("g", "e", 2).matrix
    w = params.g * (np.kron(s_eg, a @ a) + np.kron(s_ge, ad @ ad))
    return Operator(w, tripartite_tag(cutoff, levels=2), hermitian=True)


def stark_shift(params: FullModelParams) -> Operator:
    """Level shifts accompanying W after the intermediate level is removed.

    S = -2(g_g^2/delta) I - ((g_e^2 - g_g^2)/delta) a a^dag S_ee
        + 3(g_g^2/delta) S_ee,
    with I the excitation counter a^dag a + 2 S_ee, on the two-level
    atomic space.  The photon-dependent part vanishes when g_g = g_e.
    """
    cutoff = params.cutoff
    a, ad, _, eye_f = _field_ops(cutoff, 2)
    s_ee = collective_op("e", "e", 2).matrix
    i_mat = constant_of_motion(cutoff, levels=2).matrix
    mat = -2.0 * (params.g_g**2 / params.delta) * i_mat
    mat += -((params.g_e**2 - params.g_g**2) / params.delta) * np.kron(s_ee, a @ ad)
    mat += 3.0 * (params.g_g**2 / params.delta) * np.kron(s_ee, eye_f)
    return Operator(mat, tripartite_tag(cutoff, levels=2), hermitian=True)


def constant_of_motion(cutoff: FockCutoff, levels: int = 2) -> Operator:
    """Excitation counter a^dag a + 2 S_ee (+ S_ii for three-level atoms).

    Commutes with the full Hamiltonian and with W, including under
    truncation, because every interaction term conserves it exactly.
    """
    labels = excitation_labels(cutoff, levels)
    _check_dense(cutoff, levels)
    mat = np.diag(labels.astype(np.complex128))
    return Operator(mat, tripartite_tag(cutoff, levels=levels), hermitian=True)


def excitation_labels(cutoff: FockCutoff, levels: int = 2) -> np.ndarray:
    """Excitation number of every basis state in the flat layout
    atom A (x) atom B (x) field: the diagonal of constant_of_motion."""
    if levels not in _LEVEL_EXCITATION:
        raise ValueError("levels must be 2 or 3")
    x = np.array(_LEVEL_EXCITATION[levels])
    return (x[:, None, None] + x[None, :, None] + np.arange(cutoff.dim)).ravel()


def sector_index(cutoff: FockCutoff, levels: int = 2) -> np.ndarray:
    """Flat basis indices of each excitation sector, one row per sector in
    increasing excitation, padded at the end with the sentinel index `dim`.

    Shape (sectors, m) with m = 9 for three-level atoms and m = 4 for
    two-level ones (once the cutoff holds a full sector).
    """
    labels = excitation_labels(cutoff, levels)
    order = np.argsort(labels, kind="stable")
    _, counts = np.unique(labels, return_counts=True)
    sector = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(labels.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.full((counts.size, counts.max()), labels.size)
    index[sector, slot] = order
    return index


def sector_blocks(
    params: FullModelParams | EffectiveModelParams,
) -> tuple[np.ndarray, np.ndarray, SpaceTag]:
    """Sector index map (see sector_index), the real symmetric block of the
    Hamiltonian in every sector, and the space it acts on: the full H for
    FullModelParams, W for EffectiveModelParams.  Built from the
    parameters; padded rows and columns hold arbitrary values and are
    masked by the caller.

    Every interaction term moves one atom across one coupled transition and
    absorbs or emits `photons` quanta, with field factor
    sqrt(n (n-1) ... (n-photons+1)) at the larger photon number n.
    """
    if isinstance(params, FullModelParams):
        levels, photons, photon_energy = 3, 1, params.omega
        level_energy = np.array([0.0, params.omega + params.delta, 2.0 * params.omega])
        coupling = np.array(
            [[0.0, params.g_g, 0.0], [params.g_g, 0.0, params.g_e], [0.0, params.g_e, 0.0]]
        )
    elif isinstance(params, EffectiveModelParams):
        levels, photons, photon_energy = 2, 2, 0.0
        level_energy = np.zeros(2)
        coupling = np.array([[0.0, params.g], [params.g, 0.0]])
    else:
        raise TypeError("expected FullModelParams or EffectiveModelParams")
    nf = params.cutoff.dim
    index = sector_index(params.cutoff, levels)
    atom_a, rest = np.divmod(np.minimum(index, levels * levels * nf - 1), levels * nf)
    atom_b, n = np.divmod(rest, nf)

    a_row, a_col = atom_a[:, :, None], atom_a[:, None, :]
    b_row, b_col = atom_b[:, :, None], atom_b[:, None, :]
    top = np.maximum(n[:, :, None], n[:, None, :])
    field = np.ones(top.shape)
    for k in range(photons):
        field *= np.sqrt(np.maximum(top - k, 0))
    blocks = field * (
        coupling[a_row, a_col] * (b_row == b_col) + coupling[b_row, b_col] * (a_row == a_col)
    )
    diag = np.arange(index.shape[1])
    blocks[:, diag, diag] = photon_energy * n + level_energy[atom_a] + level_energy[atom_b]
    return index, blocks, tripartite_tag(params.cutoff, levels)


def dispersive_generator(params: FullModelParams) -> np.ndarray:
    """Anti-Hermitian generator of the frame change that removes the
    intermediate level to first order in g/delta."""
    cutoff = params.cutoff
    a, ad, _, _ = _field_ops(cutoff, 3)
    s_ig = collective_op("i", "g", 3).matrix
    s_gi = collective_op("g", "i", 3).matrix
    s_ei = collective_op("e", "i", 3).matrix
    s_ie = collective_op("i", "e", 3).matrix
    g = (params.g_g / params.delta) * (np.kron(s_ig, a) - np.kron(s_gi, ad))
    g -= (params.g_e / params.delta) * (np.kron(s_ei, a) - np.kron(s_ie, ad))
    return g


_EMBED_ATOM = (0, 2)  # two-level g, e -> three-level indices


def embed_two_level_state(state: StateVector, cutoff: FockCutoff) -> StateVector:
    """Lift a state of two two-level atoms + field into the three-level
    space, leaving the intermediate level unpopulated."""
    if state.space.dims != (2, 2, cutoff.dim):
        raise ValueError("expected a two-level tripartite state matching the cutoff")
    out = np.zeros(9 * cutoff.dim, dtype=np.complex128)
    out[embed_indices(cutoff)] = state.amplitudes
    return StateVector(out, tripartite_tag(cutoff, levels=3))


def embed_indices(cutoff: FockCutoff) -> np.ndarray:
    """Flat indices of the two-level subspace inside the three-level layout."""
    nf = cutoff.dim
    idx = []
    for i3 in _EMBED_ATOM:
        for j3 in _EMBED_ATOM:
            base = (i3 * 3 + j3) * nf
            idx.extend(range(base, base + nf))
    return np.array(idx, dtype=np.intp)


@dataclass(frozen=True)
class ValidityReport:
    """Where the effective description can be trusted.

    time_horizon bounds the usable evolution time; the two booleans check
    that the Stark shifts nearly cancel and that a full revival fits inside
    the dispersive regime.
    """

    time_horizon: float
    stark_closeness_ok: bool
    revival_reachable_ok: bool

    @property
    def ok(self) -> bool:
        return self.stark_closeness_ok and self.revival_reachable_ok


def validity_report(params: FullModelParams, nbar: float) -> ValidityReport:
    if nbar <= 0:
        raise ValueError("nbar must be positive")
    horizon = VALIDITY_MARGIN * params.delta**2 / (params.g_e**3 * nbar)
    stark_ok = abs(params.g_e**2 - params.g_g**2) < params.g_e**3 / params.delta
    revival_ok = params.g_e * nbar * math.pi < VALIDITY_MARGIN * params.delta
    return ValidityReport(horizon, stark_ok, revival_ok)
