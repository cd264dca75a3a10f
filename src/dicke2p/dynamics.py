"""Exact and analytic time evolution for the two-photon two-atom model.

Both Hamiltonians conserve the excitation number, so the exact engine
works sector by sector: `sector_spectrum` stacks the (at most 9x9) sector
blocks, diagonalizes them with one batched eigh, and the resulting
SectorSpectrum propagates a state to any number of times without ever
forming a matrix of the full dimension.  The analytic layer runs the same
engine on the large-N linearization of the two-photon interaction W: each
sector N couples {|gg,N>, |psi+,N-2>, |ee,N-4>} with a spectrum linear in
N, (0, +-g(2N-3)), which turns a coherent-state input into a superposition
of a few rotating coherent branches.
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
    Operator,
    SpaceTag,
    StateVector,
    bell_state,
    coherent_state,
    tensor,
    tripartite_tag,
)
from .models import (
    EffectiveModelParams,
    FullModelParams,
    excitation_labels,
    sector_blocks,
    sector_index,
)

__all__ = [
    "CoherentBranch",
    "CoherentBranchState",
    "SectorSpectrum",
    "sector_spectrum",
    "evolve_exact",
    "evolve_exact_many",
    "linearized_spectrum",
    "evolve_linearized_many",
    "analytic_state",
    "coherent_branch_state",
    "rabi_see_analytic",
    "revival_time",
]

@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Eigensystem of an excitation-conserving Hamiltonian, sector by sector.

    index[s] lists the flat basis indices of sector s, padded with the
    sentinel space.dim (see models.sector_index); values[s] and vectors[s]
    are the eigenvalues and eigenvector columns of that sector's block.
    position maps each flat basis index to its slot in index.ravel().
    """

    index: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    space: SpaceTag
    position: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        real = self.index < self.space.dim
        position = np.empty(self.space.dim, dtype=np.intp)
        position[self.index[real]] = np.flatnonzero(real)
        object.__setattr__(self, "position", position)

    @classmethod
    def from_blocks(
        cls, index: np.ndarray, blocks: np.ndarray, space: SpaceTag
    ) -> "SectorSpectrum":
        """Diagonalize all sector blocks with one batched eigh.  Padded rows
        and columns are zeroed first, so padding never mixes into a sector's
        propagator."""
        real = index < space.dim
        blocks = np.where(real[:, :, None] & real[:, None, :], blocks, 0.0)
        values, vectors = np.linalg.eigh(blocks)
        return cls(index, values, vectors, space)

    @classmethod
    def from_operator(cls, op: Operator) -> "SectorSpectrum":
        """Sector spectrum of a dense two- or three-level tripartite operator.

        Raises when the operator is not flagged Hermitian or has any nonzero
        element between different excitation sectors.
        """
        if op.hermitian is not True:
            raise ValueError("evolution requires an operator flagged hermitian=True")
        dims = op.space.dims
        if len(dims) != 3 or dims[0] != dims[1] or dims[0] not in (2, 3):
            raise ValueError("expected an operator on two atoms (x) field")
        cutoff = FockCutoff(dims[2] - 1)
        labels = excitation_labels(cutoff, dims[0])
        leak = np.max(np.abs(op.matrix[labels[:, None] != labels[None, :]]), initial=0.0)
        if leak != 0.0:
            raise ValueError(
                f"operator couples different excitation sectors (largest element "
                f"{leak:.3e}); the sector engine needs an excitation-conserving Hamiltonian"
            )
        index = sector_index(cutoff, dims[0])
        safe = np.minimum(index, op.dim - 1)
        blocks = op.matrix[safe[:, :, None], safe[:, None, :]]
        return cls.from_blocks(index, blocks, op.space)

    def propagate(self, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Amplitudes of exp(-i H t) psi for every t; shape (len(times), dim)."""
        times = np.asarray(times, dtype=np.float64)
        per_slot = np.zeros(self.index.size, dtype=np.complex128)
        per_slot[self.position] = amplitudes
        weights = (per_slot.reshape(self.index.shape)[:, None, :] @ self.vectors.conj())[:, 0]
        # exp(-i values t) from real cos and sin: half the cost of a complex exp
        angle = times[:, None, None] * self.values
        phases = np.empty(angle.shape, dtype=np.complex128)
        np.cos(angle, out=phases.real)
        np.sin(-angle, out=phases.imag)
        rotated = (phases * weights).transpose(1, 0, 2) @ self.vectors.transpose(0, 2, 1)
        return rotated.transpose(1, 0, 2).reshape(times.size, -1)[:, self.position]


def sector_spectrum(params: FullModelParams | EffectiveModelParams) -> SectorSpectrum:
    """Sector spectrum of the full Hamiltonian (FullModelParams) or of the
    two-photon interaction W (EffectiveModelParams), built block by block
    from the parameters."""
    return SectorSpectrum.from_blocks(*sector_blocks(params))


def _spectrum_for(h: SectorSpectrum | Operator, psi0: StateVector) -> SectorSpectrum:
    spectrum = h if isinstance(h, SectorSpectrum) else SectorSpectrum.from_operator(h)
    if spectrum.space.dims != psi0.space.dims:
        raise ValueError("operator and state live on different spaces")
    return spectrum


def evolve_exact(h: SectorSpectrum | Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i h t) psi0; an Operator is split into its excitation sectors
    first, so pass a SectorSpectrum when evolving repeatedly."""
    amps = _spectrum_for(h, psi0).propagate(psi0.amplitudes, np.array([t]))[0]
    return StateVector(amps, psi0.space)


def evolve_exact_many(
    h: SectorSpectrum | Operator, psi0: StateVector, times: np.ndarray
) -> np.ndarray:
    """Amplitudes of exp(-i h t) psi0 for every t; shape (len(times), dim)."""
    return _spectrum_for(h, psi0).propagate(psi0.amplitudes, times)


def linearized_spectrum(g: float, cutoff: FockCutoff) -> SectorSpectrum:
    """Sector spectrum of W linearized at large excitation N: every pair
    coupling of sector N has the field factor (2N-3)/2 in place of
    sqrt(m(m-1)), so the sector spectrum is (0, 0, -g(2N-3), +g(2N-3)).

    Built on the cutoff n_max + 4, where every amplitude stored at `cutoff`
    sits in its complete sector (see evolve_linearized_many).
    """
    padded = FockCutoff(cutoff.n_max + 4)
    index, blocks, space = sector_blocks(EffectiveModelParams(g, padded))
    n = excitation_labels(padded)[index[:, 0], None, None]
    # W has a zero diagonal and couples each pair with g times a positive field factor
    blocks = np.where(blocks != 0.0, g * (2 * n - 3) / 2.0, 0.0)
    return SectorSpectrum.from_blocks(index, blocks, space)


def evolve_linearized_many(
    spectrum: SectorSpectrum, psi0: StateVector, times: np.ndarray
) -> np.ndarray:
    """Amplitudes of psi0 evolved under linearized_spectrum for every t;
    shape (len(times), psi0.dim).

    psi0 is zero-padded onto the spectrum's cutoff, propagated, cut back to
    its own cutoff and renormalized.  Raises when the weight moved past the
    cutoff exceeds CAPTURE_ATOL at any time.
    """
    nf = psi0.space.dims[-1]
    if spectrum.space.dims != (2, 2, nf + 4):
        raise ValueError("spectrum is not the linearized W for this state's cutoff")
    padded = np.zeros((4, nf + 4), dtype=np.complex128)
    padded[:, :nf] = psi0.amplitudes.reshape(4, nf)
    out = spectrum.propagate(padded.ravel(), times).reshape(-1, 4, nf + 4)
    dropped = np.max(np.sum(np.abs(out[:, :, nf:]) ** 2, axis=(1, 2)), initial=0.0)
    if dropped > CAPTURE_ATOL:
        raise ValueError(
            f"linearized evolution moves weight {dropped:.3e} past the cutoff "
            f"n_max={nf - 1} (tolerance {CAPTURE_ATOL:g}); use a larger cutoff"
        )
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
    return StateVector(amps, psi0.space)


@dataclass(frozen=True)
class CoherentBranch:
    """One rotating component: unnormalized two-qubit amplitudes (product
    basis), the coherent label it multiplies, and a scalar prefactor."""

    atoms: np.ndarray
    alpha: complex
    phase: complex

    def __post_init__(self) -> None:
        vec = np.array(np.ravel(self.atoms), dtype=np.complex128)
        if vec.size != 4:
            raise ValueError("branch atomic vector must have 4 amplitudes")
        vec.setflags(write=False)
        object.__setattr__(self, "atoms", vec)


def _bell_vec(kind: str, phi: float = 0.0) -> np.ndarray:
    return bell_state(kind, phi).amplitudes


@dataclass(frozen=True)
class CoherentBranchState:
    """Large-nbar closed form: a stationary branch plus two branches whose
    coherent labels counter-rotate at 2g."""

    branches: tuple[CoherentBranch, CoherentBranch, CoherentBranch]

    def reconstruct(self, cutoff: FockCutoff) -> StateVector:
        return StateVector.normalized(self._raw(cutoff), tripartite_tag(cutoff))

    def reconstruction_defect(self, cutoff: FockCutoff) -> float:
        """|1 - norm| of the unnormalized reconstruction; measures how far
        the branch decomposition is from resolving the identity."""
        return abs(1.0 - float(np.linalg.norm(self._raw(cutoff))))

    def _raw(self, cutoff: FockCutoff) -> np.ndarray:
        out = np.zeros(4 * cutoff.dim, dtype=np.complex128)
        for br in self.branches:
            field = coherent_state(br.alpha, cutoff).amplitudes
            out += br.phase * np.kron(br.atoms, field)
        return out


def coherent_branch_state(
    coeffs: AtomCoeffs, alpha: complex, g: float, t: float
) -> CoherentBranchState:
    """Three-branch approximation of analytic_state for |alpha|^2 >> 1.

    branch0 carries the stationary |psi-> and odd-phase content with the
    unrotated label alpha; the other two branches carry |psi+>-like content
    with labels exp(-+ i 2 g t) alpha and drifting even-phase Bell states.
    """
    if abs(alpha) ** 2 < 10.0:
        warnings.warn(
            "coherent branch form assumes |alpha|^2 >> 1; "
            f"got |alpha|^2 = {abs(alpha) ** 2:.3g}",
            stacklevel=2,
        )
    phi = cmath.phase(alpha)
    d_plus, d_minus = coeffs.d_pair(2.0 * phi)
    psi_minus = _bell_vec("psi-")
    psi_plus = _bell_vec("psi+")

    branch0 = CoherentBranch(
        coeffs.c_minus * psi_minus + d_minus * _bell_vec("phi-", 2.0 * phi),
        alpha,
        1.0,
    )
    gt = g * t
    branch_m = CoherentBranch(
        ((coeffs.c_plus + d_plus) / 2.0)
        * (psi_plus + _bell_vec("phi+", 2.0 * phi - 4.0 * gt)),
        cmath.exp(-2j * gt) * alpha,
        cmath.exp(-1j * gt),
    )
    branch_p = CoherentBranch(
        ((coeffs.c_plus - d_plus) / 2.0)
        * (psi_plus - _bell_vec("phi+", 2.0 * phi + 4.0 * gt)),
        cmath.exp(2j * gt) * alpha,
        cmath.exp(1j * gt),
    )
    return CoherentBranchState((branch0, branch_m, branch_p))


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
    if g == 0:
        raise ValueError("revival time undefined for g = 0")
    return math.pi / abs(g)
