"""Exact and analytic time evolution for the two-photon two-atom model.

Both Hamiltonians conserve the excitation number, so the exact engine
works sector by sector: `sector_spectrum` stacks the (at most 9x9) sector
blocks, diagonalizes them with one batched eigh, and the resulting
SectorSpectrum propagates a state to any number of times without ever
forming a matrix of the full dimension.  The analytic layer exploits the
block-tridiagonal structure of the two-photon interaction W: each photon
sector n couples only {|gg,n>, |psi+,n-2>, |ee,n-4>}, and for large n the
block spectrum is linear in n, which turns a coherent-state input into a
superposition of a few rotating coherent branches.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    _BELL_TO_PRODUCT,
    AtomCoeffs,
    FockCutoff,
    Operator,
    SpaceTag,
    StateVector,
    bell_state,
    coherent_state,
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
    "BlockMatrix3",
    "CoherentBranch",
    "CoherentBranchState",
    "SectorSpectrum",
    "sector_spectrum",
    "evolve_exact",
    "evolve_exact_many",
    "block_w_n",
    "block_eigenvalues_exact",
    "block_eigenvalues_approx",
    "block_propagator",
    "analytic_state",
    "coherent_branch_state",
    "rabi_see_analytic",
    "revival_time",
]

_SQRT2 = math.sqrt(2.0)


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


@dataclass(frozen=True)
class BlockMatrix3:
    """3x3 block in the ordered basis {|gg,n>, |psi+,n-2>, |ee,n-4>}.

    For n in {2,3} the third basis slot does not exist physically; the
    matrix keeps it decoupled (zero couplings for W, identity row for
    propagators).
    """

    matrix: np.ndarray
    n: int

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.shape != (3, 3):
            raise ValueError("block matrix must be 3x3")
        if self.n < 2:
            raise ValueError("photon sector n must be >= 2")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def block_w_n(g: float, n: int) -> BlockMatrix3:
    """Photon-sector-n block of W; couplings g*sqrt(2)*sqrt(n^2-n) and
    g*sqrt(2)*sqrt(n^2-5n+6), the latter vanishing for n in {2,3}."""
    if n < 2:
        raise ValueError("blocks exist only for n >= 2")
    upper = g * _SQRT2 * math.sqrt(n * n - n)
    lower = g * _SQRT2 * math.sqrt(n * n - 5 * n + 6)
    mat = np.array(
        [[0.0, upper, 0.0], [upper, 0.0, lower], [0.0, lower, 0.0]],
        dtype=np.complex128,
    )
    return BlockMatrix3(mat, n)


def block_eigenvalues_exact(g: float, n: int) -> tuple[float, float, float]:
    """(0, -w_n, +w_n) with w_n = g*sqrt((2n-3)^2+3); requires n >= 4."""
    if n < 4:
        raise ValueError("closed-form triple spectrum requires n >= 4")
    w = g * math.sqrt((2 * n - 3) ** 2 + 3)
    return (0.0, -w, w)


def block_eigenvalues_approx(g: float, n: int) -> tuple[float, float, float]:
    """(0, -w, +w) with the large-n linearization w = g(2n-3)."""
    if n < 2:
        raise ValueError("blocks exist only for n >= 2")
    w = g * (2 * n - 3)
    return (0.0, -w, w)


def block_propagator(g: float, n: int, t: float) -> BlockMatrix3:
    """Approximate sector propagator exp(-i H_n t) with the linearized
    spectrum w = g(2n-3).

    For n >= 4 this is the closed trigonometric 3x3 form; for n in {2,3}
    the generator is truncated to the physical 2x2 subspace
    {|gg,n>, |psi+,n-2>} and exponentiated numerically.
    """
    if n < 2:
        raise ValueError("blocks exist only for n >= 2")
    w = g * (2 * n - 3)
    if n >= 4:
        th = w * t
        c2 = math.cos(th / 2.0) ** 2
        s2 = math.sin(th / 2.0) ** 2
        off = math.sin(th) / (1j * _SQRT2)
        mat = np.array(
            [[c2, off, -s2], [off, math.cos(th), off], [-s2, off, c2]],
            dtype=np.complex128,
        )
        return BlockMatrix3(mat, n)
    h2 = (w / _SQRT2) * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    vals, vecs = np.linalg.eigh(h2)
    u2 = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    mat = np.eye(3, dtype=np.complex128)
    mat[:2, :2] = u2
    return BlockMatrix3(mat, n)


def analytic_state(
    coeffs: AtomCoeffs, alpha: complex, g: float, t: float, cutoff: FockCutoff
) -> StateVector:
    """Closed-form evolution of |atoms> (x) |alpha> under the linearized
    block spectrum.

    The |psi-> component and the n=0,1 photon amplitudes of |gg> are
    stationary; every other photon sector rotates independently.  Sector
    contributions that would land beyond the cutoff are dropped (their
    weight is bounded by the truncation tail) and the state renormalized.
    """
    p = coherent_state(alpha, cutoff).amplitudes
    nf = cutoff.dim

    # Sector index runs to nf+3 so every stored p_n appears in all three
    # of its host blocks (as p_n, p_{n-2} and p_{n-4}).
    ns = np.arange(2, nf + 4)
    pe = np.concatenate([p, np.zeros(4, dtype=np.complex128)])
    v1 = coeffs.c_g * pe[ns]
    v2 = coeffs.c_plus * pe[ns - 2]
    v3 = coeffs.c_e * pe[np.clip(ns - 4, 0, None)]
    v3[ns < 4] = 0.0

    wt = g * (2 * ns - 3) * t
    em = np.exp(-1j * wt)
    ep = np.exp(1j * wt)
    d_minus = (v1 - v3) / _SQRT2
    d_plus = (v1 + v3) / _SQRT2
    b_plus = (v2 + d_plus) / 2.0
    b_minus = (v2 - d_plus) / 2.0
    rot = b_plus * em - b_minus * ep
    a_big = (d_minus + rot) / _SQRT2
    b_big = b_plus * em + b_minus * ep
    c_big = (-d_minus + rot) / _SQRT2

    # n=2,3: Rabi rotation in the two surviving basis states.
    small = ns < 4
    th = wt[small] / _SQRT2
    a_small = np.cos(th) * v1[small] - 1j * np.sin(th) * v2[small]
    b_small = np.cos(th) * v2[small] - 1j * np.sin(th) * v1[small]

    a_n = np.where(small, 0.0, a_big)
    b_n = np.where(small, 0.0, b_big)
    a_n[small] = a_small
    b_n[small] = b_small

    gg_row = np.zeros(nf, dtype=np.complex128)
    psim_row = coeffs.c_minus * p
    psip_row = np.zeros(nf, dtype=np.complex128)
    ee_row = np.zeros(nf, dtype=np.complex128)

    gg_row[0] = coeffs.c_g * p[0]
    if nf > 1:
        gg_row[1] = coeffs.c_g * p[1]
    keep_a = ns < nf
    gg_row[ns[keep_a]] = a_n[keep_a]
    keep_b = ns - 2 < nf
    psip_row[ns[keep_b] - 2] = b_n[keep_b]
    big = ~small
    ee_row[ns[big] - 4] = c_big[big]

    bell_rows = np.vstack([gg_row, psim_row, psip_row, ee_row])
    product_rows = _BELL_TO_PRODUCT @ bell_rows
    return StateVector.normalized(product_rows.ravel(), tripartite_tag(cutoff))


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
