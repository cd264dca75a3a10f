"""Exact and analytic time evolution for the two-photon two-atom model.

Both Hamiltonians conserve the excitation number, so the exact engine works
sector by sector, on the one layout of models.sector_index: `sector_spectrum`
diagonalizes the full model's sector blocks, split by the atom swap into
6 + 3 (models.sector_blocks), with two batched eigh calls, and `w_spectrum`
gives W's in closed form from the coupling g (after check_coupling) and the
cutoff.  A SectorSpectrum propagates a state to any number of times without
a matrix of the full dimension: it projects the state onto the sector
eigenvectors once, builds the phase table exp(-i lambda t) once per set of
times, and scatters the advanced weights back through the layout.  In the
package only evolve_linearized_many, scans.wigner_panels and the protocols'
homodyne readout (atomic states times |alpha>, evolved to one time)
propagate.  Every phase table comes from one cos/sin kernel, _unit_phases.
An overlap skips the rotation: scans.fidelity_scan sums each row's phase
products into a kernel that holds no sample, met by every input as a
quadratic form in its atoms; an expectation value (scans.rabi_curve) is a
sum over the sector frequency pairs.  The analytic layer runs the same
engine, on the state's own cutoff, on the large-N linearization of W: each
sector N couples {|gg,N>, |psi+,N-2>, |ee,N-4>} with a spectrum linear in
N, (0, +-g(2N-3)), which turns a coherent-state input into a superposition
of a few rotating coherent branches.  _branch_maps is the paper's
large-nbar form of that result: three branches on the labels alpha and
e^{-+2igt} alpha, as maps on the atoms at every time.  The protocols'
analytic engine reads them through closed-form coherent-state overlaps and
quadrature wavefunctions; no field vector is built.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    CAPTURE_ATOL,
    AtomCoeffs,
    FockCutoff,
    StateVector,
    coherent_state,
    tensor,
)
from .models import FullModelParams, sector_blocks, sector_index

__all__ = [
    "SectorSpectrum",
    "sector_spectrum",
    "w_spectrum",
    "linearized_spectrum",
    "evolve_linearized_many",
    "check_coupling",
    "check_capture",
    "check_branch_regime",
    "analytic_state",
    "rabi_see_analytic",
    "revival_time",
]

@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """Eigensystem of an excitation-conserving Hamiltonian, sector by sector.

    index[s] lists the flat basis indices of sector s, excitation s, with
    the sentinel prod(dims) on slots off the cutoff (see models.sector_index);
    values[s] and vectors[s] are the eigenvalues and eigenvector columns of
    that sector's block.  index is the one layout: project gathers through
    it and propagate scatters through it, the sentinel reading and writing
    one extra flat entry that is zero on the way in and dropped on the way
    out.

    project depends on the state alone and phases on the times alone, so a
    caller evolving many states to the same times builds each once.
    """

    index: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    dims: tuple[int, ...]

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Weights on the sector eigenvectors of flat amplitudes (..., dim);
        shape (..., sectors, m), m the slots of a sector."""
        dim = math.prod(self.dims)
        if np.shape(amplitudes)[-1:] != (dim,):
            raise ValueError(f"amplitudes of shape {np.shape(amplitudes)}, not (..., {dim})")
        padded = np.zeros(np.shape(amplitudes)[:-1] + (dim + 1,), dtype=np.complex128)
        padded[..., :dim] = amplitudes
        return (padded[..., self.index][..., None, :] @ self.vectors.conj())[..., 0, :]

    def phases(self, times: np.ndarray) -> np.ndarray:
        """exp(-i values t) for every t, shared by every state propagated to
        these times; shape (len(times), sectors, m)."""
        return _unit_phases(np.asarray(times, dtype=np.float64)[:, None, None] * self.values)

    def propagate(self, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Amplitudes of exp(-i H t) psi for every t; shape (len(times), dim)."""
        phases = self.phases(times)
        rotated = (phases * self.project(amplitudes)).transpose(1, 0, 2) @ self.vectors.mT
        flat = np.zeros((len(phases), math.prod(self.dims) + 1), dtype=np.complex128)
        flat[:, self.index] = rotated.transpose(1, 0, 2)
        return flat[:, :-1]


def _unit_phases(angle: np.ndarray) -> np.ndarray:
    """exp(-i angle) from real cos and sin: half the cost of a complex exp.
    The angle table is negated in place for the sine, so no second table
    is held; callers pass a fresh one."""
    phases = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=phases.real)
    np.sin(np.negative(angle, out=angle), out=phases.imag)
    return phases


def sector_spectrum(params: FullModelParams) -> SectorSpectrum:
    """Sector spectrum of the full Hamiltonian: one batched eigh for each of
    its two blocks per sector (models.sector_blocks), real states first.  On
    the product slots of sector_index its eigenvectors are 6 exactly
    symmetric columns, then 3 exactly antisymmetric ones."""
    sector, spectra = np.arange(params.cutoff.dim + 4)[:, None], []
    for blocks, real in sector_blocks(params):
        # real states first, so that no zero eigenvalue mixes real and sentinel states
        order = np.argsort(~real, axis=1, kind="stable")
        values, compact = np.linalg.eigh(blocks[sector[:, :, None], order[:, :, None], order[:, None, :]])
        spectra.append((values, compact[sector, np.argsort(order, axis=1)]))  # back in order
    (values, v_s), (anti_values, v_a) = spectra
    h, vectors = math.sqrt(0.5), np.zeros((len(sector), 9, 9))
    # gg, ii, ee on slots 0, 4, 8; the pairs on (1, 3), (2, 6), (5, 7), + then - in the second
    vectors[:, (0, 4, 8), :6], vectors[:, (1, 2, 5)] = v_s[:, :3], h * np.concatenate([v_s[:, 3:], v_a], 2)
    vectors[:, (3, 6, 7)] = vectors[:, (1, 2, 5)] * np.repeat([1.0, -1.0], (6, 3))
    values = np.concatenate([values, anti_values], axis=1)
    return SectorSpectrum(sector_index(params.cutoff, 3), values, vectors, (3, 3, params.cutoff.dim))


def w_spectrum(g: float, cutoff: FockCutoff) -> SectorSpectrum:
    """W's closed-form sector spectrum: a pair couples only if both its states lie on the cutoff."""
    n, top = np.arange(cutoff.dim + 4.0), cutoff.n_max
    upper, lower = np.sqrt(n * (n - 1)) * (n <= top), np.sqrt((n - 2) * (n - 3)) * (n <= top + 2)
    return _w_spectrum(g, cutoff, upper, lower)


def linearized_spectrum(g: float, cutoff: FockCutoff) -> SectorSpectrum:
    """Sector spectrum of W linearized at large excitation N: every pair
    coupling of sector N has the field factor (2N-3)/2 in place of
    sqrt(m(m-1)), so the sector spectrum is (0, 0, -+g(2N-3)).  Its sectors
    are complete, so a propagation loses the weight it moves past the
    cutoff (evolve_linearized_many)."""
    factor = np.arange(cutoff.dim + 4) - 1.5
    return _w_spectrum(g, cutoff, factor, factor)


def _w_spectrum(g: float, cutoff: FockCutoff, upper: np.ndarray, lower: np.ndarray) -> SectorSpectrum:
    """W's sector spectrum with the field factors upper[N] of |gg,N> to
    |ge,N-2> and |eg,N-2>, and lower[N] of those to |ee,N-4>, in these
    slots of the sectors N = 0 .. n_max + 4 (off the cutoff, the sentinel).
    With (a, b) = sign(g) (upper, lower) / |(upper, lower)| and lambda =
    sqrt(2) |g| |(upper, lower)|, the eigenvectors in (|gg>, |psi+>, |ee>)
    are (a, -+1, b)/sqrt(2) at -+lambda and (b, 0, -a) at 0, beside |psi->
    at 0; (a, b) = (0, 1) where no pair couples."""
    check_coupling(g)
    nf = cutoff.dim
    n = np.arange(nf + 4)
    pair = np.stack([upper * (n >= 2), lower * (n >= 4)], axis=1)  # no negative photon numbers
    square = np.sum(pair**2, axis=1, keepdims=True)
    ab = np.tile([0.0, 1.0], (n.size, 1))
    a, b = np.divide(np.sign(g) * pair, np.sqrt(square), out=ab, where=square > 0.0).T
    lam, z = abs(g) * np.sqrt(2.0 * square[:, 0]), np.zeros_like(a)
    h, q = z + 0.5, z + math.sqrt(0.5)
    # rows the slots; columns bright at -lambda, dark, |psi->, bright at +lambda
    vectors = np.array([[q * a, b, z, q * a], [-h, z, q, h], [-h, z, -q, h], [q * b, -a, z, q * b]])
    values = np.stack([-lam, z, z, lam], axis=1)
    return SectorSpectrum(sector_index(cutoff, 2), values, vectors.transpose(2, 0, 1), (2, 2, nf))


def check_coupling(g: float) -> None:
    """Raise unless g is finite and nonzero with a finite revival time pi/|g|."""
    if not math.isfinite(g):
        raise ValueError(f"coupling g must be finite, got {g}")
    if g == 0:
        raise ValueError("coupling g must be nonzero")
    if math.isinf(math.pi / abs(g)):
        raise ValueError(f"coupling g = {g} is too small: its revival time pi/|g| overflows")


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
    renormalized after check_capture of the norm lost past the cutoff;
    shape (len(times), psi0.dim)."""
    if spectrum.dims != psi0.dims:
        raise ValueError("spectrum is not the linearized W for this state's cutoff")
    out = spectrum.propagate(psi0.amplitudes, times)
    kept = np.sum(np.abs(out) ** 2, axis=1)
    check_capture(np.sum(np.abs(psi0.amplitudes) ** 2) - kept, psi0.dims[-1] - 1)
    return out / np.sqrt(kept)[:, None]


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
    """Revival period pi/|g| (see check_coupling); independent of the field amplitude."""
    check_coupling(g)
    return math.pi / abs(g)
