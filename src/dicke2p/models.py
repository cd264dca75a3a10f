"""Hamiltonians for two three-level atoms coupled to a single cavity mode.

The full model couples the g-i and i-e transitions of both atoms to the
same mode within the rotating-wave approximation.  When the intermediate
level is far detuned it can be eliminated, leaving an effective two-photon
interaction W between |gg> and |ee> plus Stark shifts.

Both Hamiltonians conserve the excitation number a^dag a + 2 S_ee + S_ii,
which `excitation_labels` alone knows.  `sector_blocks` builds the full
model's sector matrices (at most 9 states) straight from the parameters,
for dynamics to diagonalize; W's sectors (at most 4 states) need none, as
their spectrum is in closed form.  No matrix of the full dimension is ever
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FockCutoff

__all__ = [
    "FullModelParams",
    "EffectiveModelParams",
    "ValidityReport",
    "VALIDITY_MARGIN",
    "excitation_labels",
    "sector_index",
    "sector_blocks",
    "effective_coupling",
    "validity_report",
]

VALIDITY_MARGIN = 0.1

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
        if not all(map(math.isfinite, (self.omega, self.delta, self.g_g, self.g_e))):
            raise ValueError("omega, delta, g_g and g_e must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not (self.g_g > 0 and self.g_e > 0):
            raise ValueError("couplings g_g, g_e must be positive")


@dataclass(frozen=True)
class EffectiveModelParams:
    """Two-photon model with a single coupling g (sign included)."""

    g: float
    cutoff: FockCutoff

    def __post_init__(self) -> None:
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")
        if self.g == 0:
            raise ValueError("coupling g must be nonzero")


def effective_coupling(g_g: float, g_e: float, delta: float) -> float:
    """Two-photon coupling after adiabatic elimination: -g_g g_e / delta,
    for a positive delta as in FullModelParams."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return -g_g * g_e / delta


def excitation_labels(cutoff: FockCutoff, levels: int = 2) -> np.ndarray:
    """Excitation number a^dag a + 2 S_ee (+ S_ii for three-level atoms) of
    every basis state in the flat layout atom A (x) atom B (x) field.  Every
    interaction term conserves it, so both Hamiltonians split into sectors
    of equal label (see sector_index)."""
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


def sector_blocks(params: FullModelParams) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Sector index map (see sector_index), the real symmetric block of the
    full Hamiltonian in every sector, and the dims it acts on, built from
    the parameters; padded rows and columns hold arbitrary values and are
    masked by the caller.

    Every interaction term moves one atom across one coupled transition and
    absorbs or emits one photon, with field factor sqrt(n) at the larger
    photon number n.
    """
    if not isinstance(params, FullModelParams):
        raise TypeError("expected FullModelParams")
    nf = params.cutoff.dim
    level_energy = np.array([0.0, params.omega + params.delta, 2.0 * params.omega])
    coupling = np.array(
        [[0.0, params.g_g, 0.0], [params.g_g, 0.0, params.g_e], [0.0, params.g_e, 0.0]]
    )
    index = sector_index(params.cutoff, 3)
    atom_a, rest = np.divmod(np.minimum(index, 9 * nf - 1), 3 * nf)
    atom_b, n = np.divmod(rest, nf)

    a_row, a_col = atom_a[:, :, None], atom_a[:, None, :]
    b_row, b_col = atom_b[:, :, None], atom_b[:, None, :]
    field = np.sqrt(np.maximum(n[:, :, None], n[:, None, :]))
    blocks = field * (
        coupling[a_row, a_col] * (b_row == b_col) + coupling[b_row, b_col] * (a_row == a_col)
    )
    diag = np.arange(index.shape[1])
    blocks[:, diag, diag] = params.omega * n + level_energy[atom_a] + level_energy[atom_b]
    return index, blocks, (3, 3, nf)


_EMBED_ATOM = (0, 2)  # two-level g, e -> three-level indices


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

    time_horizon bounds the usable evolution time.  Each check compares two
    numbers: the Stark shifts nearly cancel when stark_shift = |g_e^2 -
    g_g^2| is below stark_limit = g_e^3/delta, and a full revival fits
    inside the dispersive regime when revival_phase = g_e nbar pi is below
    revival_limit = VALIDITY_MARGIN delta.
    """

    time_horizon: float
    stark_shift: float
    stark_limit: float
    revival_phase: float
    revival_limit: float

    @property
    def stark_closeness_ok(self) -> bool:
        return self.stark_shift < self.stark_limit

    @property
    def revival_reachable_ok(self) -> bool:
        return self.revival_phase < self.revival_limit

    @property
    def ok(self) -> bool:
        return self.stark_closeness_ok and self.revival_reachable_ok


def validity_report(params: FullModelParams, nbar: float) -> ValidityReport:
    if not nbar > 0:
        raise ValueError("nbar must be positive")
    return ValidityReport(
        VALIDITY_MARGIN * params.delta**2 / (params.g_e**3 * nbar),
        abs(params.g_e**2 - params.g_g**2),
        params.g_e**3 / params.delta,
        params.g_e * nbar * math.pi,
        VALIDITY_MARGIN * params.delta,
    )
