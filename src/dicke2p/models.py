"""Hamiltonians for two three-level atoms coupled to a single cavity mode.

The full model couples the g-i and i-e transitions of both atoms to the
same mode within the rotating-wave approximation (FullModelParams).  When
the intermediate level is far detuned it can be eliminated, leaving an
effective two-photon interaction W between |gg> and |ee> plus Stark shifts.

Both Hamiltonians conserve the excitation number a^dag a + 2 S_ee + S_ii,
so both split into sectors on one closed-form layout (`sector_index`), in
which W's atom pairs are the full model's slots W_SLOTS.  `sector_blocks`
builds the full model's sector matrices (at most 9 states) straight from
the parameters, split by the atom swap into 6 + 3, for dynamics to
diagonalize; W's sectors (at most 4 states) need none: their spectrum is
in closed form in W's one parameter, the coupling g (effective_coupling),
and the cutoff (dynamics.w_spectrum).  No matrix of the full dimension is
ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FockCutoff

__all__ = [
    "FullModelParams",
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


def sector_blocks(params: FullModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """The full Hamiltonian's sector blocks N = 0 .. n_max + 4, split by the atom
    swap: (blocks, real) on gg, ii, ee, gi+ig, ge+eg, ie+ei, then on gi-ig,
    ge-eg, ie-ei (pairs of slots 3 a + b over sqrt 2), real marking the states
    on the cutoff, whose rows and columns alone are nonzero.  The diagonal is
    omega N + delta (atoms in i); a coupling moves one atom and one photon,
    with field factor sqrt(n) at the larger photon number n."""
    if not isinstance(params, FullModelParams):
        raise TypeError("expected FullModelParams")
    nf, r, g_g, g_e = params.cutoff.dim, math.sqrt(2.0), params.g_g, params.g_e
    sym, anti = np.zeros((6, 6)), np.zeros((3, 3))
    sym[(0, 3, 3, 4, 1, 5), (3, 1, 4, 5, 5, 2)] = r * g_g, r * g_g, g_e, g_g, r * g_e, r * g_e
    anti[(0, 1), (1, 2)] = g_e, g_g
    sector, out = np.arange(nf + 4)[:, None], []
    # per block: the couplings, and each state's atomic excitation x and atoms in i
    for coupling, x, inner in ((sym, (0, 2, 4, 1, 2, 3), (0, 2, 0, 1, 0, 1)), (anti, (1, 2, 3), (1, 0, 1))):
        photons, d = sector - np.array(x), np.arange(len(x))
        real = (photons >= 0) & (photons < nf)
        n = np.where(real, photons, 0)
        blocks = np.sqrt(np.maximum(n[:, :, None], n[:, None, :])) * (coupling + coupling.T)
        blocks *= real[:, :, None] & real[:, None, :]
        blocks[:, d, d] = real * (params.omega * sector + params.delta * np.array(inner))
        out.append((blocks, real))
    return out


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
    delta, g_g, g_e = np.array([params.delta, params.g_g, params.g_e])
    with np.errstate(all="ignore"):  # a number past the float range reads inf, as does x / 0
        horizon = float(VALIDITY_MARGIN * delta**2 / (g_e**3 * nbar))
        stark = float(abs(g_e**2 - g_g**2)), float(g_e**3 / delta)
    return ValidityReport(horizon, *stark, params.g_e * nbar * math.pi, VALIDITY_MARGIN * params.delta)
