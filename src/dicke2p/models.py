"""Hamiltonians for two three-level atoms coupled to a single cavity mode.

The full model couples the g-i and i-e transitions of both atoms to the
same mode within the rotating-wave approximation.  When the intermediate
level is far detuned it can be eliminated, leaving an effective two-photon
interaction W between |gg> and |ee> plus Stark shifts.

Both Hamiltonians conserve the excitation number a^dag a + 2 S_ee + S_ii,
so both split into sectors on one closed-form layout (`sector_index`), in
which W's atom pairs are the full model's slots W_SLOTS.  `sector_blocks`
builds the full model's sector matrices (at most 9 states) straight from
the parameters, for dynamics to diagonalize; W's sectors (at most 4 states)
need none, as their spectrum is in closed form.  No matrix of the full
dimension is ever formed.
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
    "W_SLOTS",
    "sector_index",
    "sector_blocks",
    "effective_coupling",
    "validity_report",
]

VALIDITY_MARGIN = 0.1

# The two-level pairs gg, ge, eg, ee among the three-level slots 3 a + b.
W_SLOTS = (0, 2, 6, 8)


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


def sector_index(cutoff: FockCutoff, levels: int = 2) -> np.ndarray:
    """Flat basis indices, in the layout atom A (x) atom B (x) field, of the
    sectors of excitation a^dag a + 2 S_ee (+ S_ii) N = 0 .. n_max + 4, one
    row each: slot s is atom pair s in flat order, of atomic excitation x_s,
    at photon number N - x_s, or the sentinel `dim` off the cutoff.  Shape
    (n_max + 5, 9) for three-level atoms, (n_max + 5, 4) for two-level ones.
    """
    if levels not in (2, 3):
        raise ValueError("levels must be 2 or 3")
    x = np.array((0, 2) if levels == 2 else (0, 1, 2))  # the excitation of g, e or g, i, e
    pair, nf = (x[:, None] + x).ravel(), cutoff.dim
    photons = np.arange(nf + 4)[:, None] - pair
    on = (photons >= 0) & (photons < nf)
    return np.where(on, nf * np.arange(pair.size) + photons, pair.size * nf)


def sector_blocks(params: FullModelParams) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Sector index map (see sector_index), the real symmetric block of the
    full Hamiltonian in every sector, and the dims it acts on, built from
    the parameters; the rows and columns of sentinel slots are zero.

    Slot s = 3 a + b holds the fixed atom levels (a, b).  Every
    interaction term moves one atom across one coupled transition and
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
    real = index < 9 * nf
    n = np.where(real, index - nf * np.arange(9), 0)
    pair = np.kron(coupling, np.eye(3)) + np.kron(np.eye(3), coupling)  # one atom moves
    field = np.sqrt(np.maximum(n[:, :, None], n[:, None, :]))
    blocks = field * pair * (real[:, :, None] & real[:, None, :])
    diag = np.arange(9)
    blocks[:, diag, diag] = real * (params.omega * n + level_energy.repeat(3) + np.tile(level_energy, 3))
    return index, blocks, (3, 3, nf)


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
