"""Exact and analytic time evolution for the two-photon two-atom model.

Both Hamiltonians conserve the excitation number, so the exact engine works
sector by sector: `sector_spectrum` stacks the (at most 9x9) sector blocks,
diagonalizes them with one batched eigh, and the resulting SectorSpectrum
propagates a state to any number of times without ever forming a matrix of
the full dimension.  Propagation has three stages: project a state onto the
sector eigenvectors once, build the phase table exp(-i lambda t) once per
spectrum and set of times, and rotate back to the flat basis.
SectorSpectrum.propagate is the exact engine's one entry point; in the
package only evolve_linearized_many, scans.wigner_panels and the protocols'
homodyne readout (atomic states times |alpha>, evolved to one time)
rotate.  Every phase table comes from one cos/sin kernel, _unit_phases:
SectorSpectrum.phases and scans.fidelity_scan (per chunk of sectors) call
it.  An overlap between states of two spectra skips the rotation: it is a
sum over sector pairs of weights, phases and the eigenvector overlap maps
of sector_overlaps; an expectation value (scans.rabi_curve) is a sum over
the sector frequency pairs.  The analytic
layer runs the same engine on the large-N linearization of the two-photon
interaction W: each sector N couples {|gg,N>, |psi+,N-2>, |ee,N-4>} with a
spectrum linear in N, (0, +-g(2N-3)), which turns a coherent-state input
into a superposition of a few rotating coherent branches.  _branch_maps is
the paper's large-nbar form of that result: three branches on the labels
alpha and e^{-+2igt} alpha, as maps on the atoms at every time.  The
protocols' analytic engine reads them through closed-form coherent-state
overlaps and quadrature wavefunctions; no field vector is built.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    CAPTURE_ATOL,
    AtomCoeffs,
    FockCutoff,
    StateVector,
    coherent_state,
    tensor,
)
from .models import EffectiveModelParams, FullModelParams, excitation_labels, sector_blocks

__all__ = [
    "SectorSpectrum",
    "sector_spectrum",
    "linearized_spectrum",
    "sector_overlaps",
    "evolve_linearized_many",
    "check_capture",
    "check_branch_regime",
    "analytic_state",
    "rabi_see_analytic",
    "revival_time",
]

@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Eigensystem of an excitation-conserving Hamiltonian, sector by sector.

    index[s] lists the flat basis indices of sector s, padded with the
    sentinel prod(dims) (see models.sector_index); values[s] and vectors[s]
    are the eigenvalues and eigenvector columns of that sector's block.
    position maps each flat basis index to its slot in index.ravel().

    propagate(psi, times) is rotate(project(psi), phases(times)): project
    depends on the state alone and phases on the times alone, so a caller
    evolving many states to the same times builds each once.  Only
    evolve_linearized_many, scans.wigner_panels and the protocols' homodyne
    readout (the atomic states times |alpha> that cavity 1 reads, evolved
    to one time) rotate; overlaps and expectation values stop at the
    phases, which scans.fidelity_scan takes from values through
    _unit_phases directly.
    """

    index: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    dims: tuple[int, ...]
    position: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = math.prod(self.dims)
        real = self.index < dim
        position = np.empty(dim, dtype=np.intp)
        position[self.index[real]] = np.flatnonzero(real)
        object.__setattr__(self, "position", position)

    @classmethod
    def from_blocks(
        cls, index: np.ndarray, blocks: np.ndarray, dims: tuple[int, ...]
    ) -> "SectorSpectrum":
        """Diagonalize all sector blocks with one batched eigh.  Padded rows
        and columns are zeroed first, so padding never mixes into a sector's
        propagator."""
        real = index < math.prod(dims)
        blocks = np.where(real[:, :, None] & real[:, None, :], blocks, 0.0)
        values, vectors = np.linalg.eigh(blocks)
        return cls(index, values, vectors, dims)

    def project(self, amplitudes: np.ndarray, at: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Weights on the sector eigenvectors of flat amplitudes (..., n) at
        the flat indices `at` (all of them by default) and zero elsewhere;
        shape (..., sectors, m), m the padded sector size."""
        lead = np.shape(amplitudes)[:-1]
        per_slot = np.zeros(lead + (self.index.size,), dtype=np.complex128)
        per_slot[..., self.position[at]] = amplitudes
        slots = per_slot.reshape(lead + self.index.shape)[..., None, :]
        return (slots @ self.vectors.conj())[..., 0, :]

    def phases(self, times: np.ndarray) -> np.ndarray:
        """exp(-i values t) for every t, shared by every state propagated to
        these times; shape (len(times), sectors, m)."""
        return _unit_phases(np.asarray(times, dtype=np.float64)[:, None, None] * self.values)

    def rotate(self, weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Flat amplitudes of the eigenvector weights (project) advanced by
        a phase table (phases); shape (len(phases), dim)."""
        rotated = (phases * weights).transpose(1, 0, 2) @ self.vectors.transpose(0, 2, 1)
        return rotated.transpose(1, 0, 2).reshape(len(phases), -1)[:, self.position]

    def propagate(self, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Amplitudes of exp(-i H t) psi for every t; shape (len(times), dim)."""
        return self.rotate(self.project(amplitudes), self.phases(times))


def _unit_phases(angle: np.ndarray) -> np.ndarray:
    """exp(-i angle) from real cos and sin: half the cost of a complex exp.
    The angle table is negated in place for the sine, so no second table
    is held; callers pass a fresh one."""
    phases = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=phases.real)
    np.sin(np.negative(angle, out=angle), out=phases.imag)
    return phases


def sector_spectrum(params: FullModelParams | EffectiveModelParams) -> SectorSpectrum:
    """Sector spectrum of the full Hamiltonian (FullModelParams) or of the
    two-photon interaction W (EffectiveModelParams), built block by block
    from the parameters."""
    return SectorSpectrum.from_blocks(*sector_blocks(params))


def linearized_spectrum(g: float, cutoff: FockCutoff) -> SectorSpectrum:
    """Sector spectrum of W linearized at large excitation N: every pair
    coupling of sector N has the field factor (2N-3)/2 in place of
    sqrt(m(m-1)), so the sector spectrum is (0, 0, -g(2N-3), +g(2N-3)).

    Built on the cutoff n_max + 4, where every amplitude stored at `cutoff`
    sits in its complete sector (see evolve_linearized_many).
    """
    padded = FockCutoff(cutoff.n_max + 4)
    index, blocks, dims = sector_blocks(EffectiveModelParams(g, padded))
    n = excitation_labels(padded)[index[:, 0], None, None]
    # W has a zero diagonal and couples each pair with g times a positive field factor
    blocks = np.where(blocks != 0.0, g * (2 * n - 3) / 2.0, 0.0)
    return SectorSpectrum.from_blocks(index, blocks, dims)


def sector_overlaps(
    bra: SectorSpectrum, ket: SectorSpectrum, to_ket: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlap maps V_bra^dag P V_ket of the sector eigenvectors of two
    spectra, through the index map P that sends bra's flat index i to ket's
    flat index to_ket[i], or drops it where to_ket[i] = -1.  Returns the bra
    sectors that keep a state, the ket sector that receives each of them and
    their maps, shape (pairs, m_bra, m_ket); raises when P splits a sector."""
    target = np.append(to_ket, -1)[bra.index]  # the sentinel slots drop too
    kept = target >= 0
    sector, slot = np.divmod(ket.position[np.where(kept, target, 0)], ket.index.shape[1])
    pairs = np.flatnonzero(kept.any(axis=1))
    partner = sector[pairs, np.argmax(kept[pairs], axis=1)]
    if np.any(kept[pairs] & (sector[pairs] != partner[:, None])):
        raise ValueError("the index map splits an excitation sector")
    rows = np.where(kept[pairs, :, None], ket.vectors[partner[:, None], slot[pairs]], 0.0)
    return pairs, partner, bra.vectors[pairs].conj().transpose(0, 2, 1) @ rows


def check_capture(dropped: np.ndarray, n_max: int) -> None:
    """Raise when any weight in dropped, moved past n_max, exceeds CAPTURE_ATOL."""
    if (worst := np.max(dropped, initial=0.0)) > CAPTURE_ATOL:
        raise ValueError(
            f"linearized evolution moves weight {worst:.3e} past the cutoff "
            f"n_max={n_max} (tolerance {CAPTURE_ATOL:g}); use a larger cutoff"
        )


def evolve_linearized_many(
    spectrum: SectorSpectrum, psi0: StateVector, times: np.ndarray
) -> np.ndarray:
    """Amplitudes of psi0 evolved under linearized_spectrum for every t,
    zero-padded onto the spectrum's cutoff and cut back and renormalized
    after check_capture; shape (len(times), psi0.dim)."""
    nf = psi0.dims[-1]
    if spectrum.dims != (2, 2, nf + 4):
        raise ValueError("spectrum is not the linearized W for this state's cutoff")
    padded = np.pad(psi0.amplitudes.reshape(4, nf), ((0, 0), (0, 4)))
    out = spectrum.propagate(padded.ravel(), times).reshape(-1, 4, nf + 4)
    check_capture(np.sum(np.abs(out[:, :, nf:]) ** 2, axis=(1, 2)), nf - 1)
    kept = out[:, :, :nf].reshape(len(out), -1)
    return kept / np.linalg.norm(kept, axis=1, keepdims=True)


def analytic_state(
    coeffs: AtomCoeffs, alpha: complex, g: float, t: float, cutoff: FockCutoff
) -> StateVector:
    """Evolution of |atoms> (x) |alpha> to time t under the linearized
    spectrum of W (see linearized_spectrum).

    The |psi-> component and the n=0,1 photon amplitudes of |gg> are
    stationary; every other excitation sector rotates independently.  Pass
    a prebuilt spectrum to evolve_linearized_many when evolving repeatedly.
    """
    psi0 = tensor(coeffs.to_state(), coherent_state(alpha, cutoff))
    amps = evolve_linearized_many(linearized_spectrum(g, cutoff), psi0, np.array([t]))[0]
    return StateVector(amps, psi0.dims)


def check_branch_regime(alpha: complex, stacklevel: int = 1) -> None:
    """Warn when |alpha|^2 < 10, where the three-branch form (_branch_maps)
    leaves its regime |alpha|^2 >> 1.  stacklevel 1 names the caller, 2 the
    caller's caller."""
    if abs(alpha) ** 2 < 10.0:
        warnings.warn(
            "coherent branch form assumes |alpha|^2 >> 1; "
            f"got |alpha|^2 = {abs(alpha) ** 2:.3g}",
            stacklevel=stacklevel + 1,
        )


def _branch_maps(alpha: complex, g: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The three-branch form as maps on the atoms, (T, 3, 4, 4) indexed [t,
    branch, atoms, input], and the angles theta (T, 3) = (0, -2gt, 2gt) of
    the branch labels alpha e^{i theta}.  The projector onto span{|psi->,
    |phi_2phi^->} keeps the label alpha; the maps (1/2) e^{-+igt}
    |psi+ +- phi_{2phi-+4gt}^+><psi+ +- phi_2phi^+| carry the rest to the
    counter-rotating labels e^{-+2igt} alpha."""
    sign = np.array([1.0, -1.0])  # the branches to the labels e^{-+2igt} alpha
    gt = g * np.asarray(times, dtype=np.float64)[:, None] * sign  # (T, 2)
    two_phi = 2.0 * cmath.phase(alpha)

    def psi_phi_plus(theta: np.ndarray) -> np.ndarray:
        """|psi+> +- |phi_theta^+> in the product basis, one sign per branch."""
        edge = sign * np.exp(-1j * theta)
        ones = np.ones_like(edge)
        return np.stack([edge, ones, ones, edge.conj()], axis=-1) / math.sqrt(2.0)

    bras = psi_phi_plus(np.full(2, two_phi)).conj()  # (2, 4)
    kets = psi_phi_plus(two_phi - 4.0 * gt)  # (T, 2, 4)
    maps = np.empty((len(gt), 3, 4, 4), dtype=np.complex128)
    maps[:, 0] = np.eye(4) - 0.5 * bras.conj().T @ bras
    maps[:, 1:] = 0.5 * np.exp(-1j * gt)[..., None, None] * bras[:, None, :] * kets[..., None]
    return maps, np.concatenate([np.zeros((len(gt), 1)), -2.0 * gt], axis=1)


def rabi_see_analytic(alpha: complex, g: float, t):
    """<S_ee> for the initial state |ee>|alpha>:
    1 + Re exp(-|alpha|^2 (1 - e^{i 2 g t}) + i 5 g t).

    The Poisson sum runs over the photon number m of the |ee> component,
    which lives in the invariant block n = m + 4 with Rabi frequency
    (2n - 3) g = (2m + 5) g; hence the +5gt phase drift.
    """
    gt = 2j * g * np.asarray(t, dtype=np.float64)
    val = 1.0 + np.real(np.exp(-abs(alpha) ** 2 * (1.0 - np.exp(gt)) + 2.5 * gt))
    return float(val) if np.isscalar(t) or np.ndim(t) == 0 else val


def revival_time(g: float) -> float:
    """Revival period pi/|g|; independent of the field amplitude."""
    if not math.isfinite(g):
        raise ValueError(f"revival time needs a finite g, got {g}")
    if g == 0:
        raise ValueError("revival time undefined for g = 0")
    return math.pi / abs(g)
