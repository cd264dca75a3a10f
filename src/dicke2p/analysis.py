"""Fidelities, reductions, Wigner functions, and ensemble statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .hilbert import AtomCoeffs, SpaceTag, StateVector, two_qubit_tag

__all__ = [
    "DensityMatrix",
    "WignerGrid",
    "fidelity",
    "partial_trace",
    "wigner",
    "haar_random_two_qubit",
    "sample_rng",
    "ensemble_average",
]

_HERM_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_EIG_FLOOR = -1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, nonnegative."""

    matrix: np.ndarray
    space: SpaceTag

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] != self.space.dim:
            raise ValueError(f"matrix dim {mat.shape[0]} != space dim {self.space.dim}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > _HERM_ATOL:
            raise ValueError(f"not Hermitian: max deviation {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1")
        low = float(np.min(np.linalg.eigvalsh(mat)))
        if low < _EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {low:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pure(cls, psi: StateVector) -> "DensityMatrix":
        return cls(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.space)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fidelity(a: StateVector | DensityMatrix, b: StateVector) -> float:
    """|<b|a>|^2 for pure a, <b|a|b> for a density matrix."""
    if a.space.dims != b.space.dims:
        raise ValueError("fidelity requires matching spaces")
    if isinstance(a, StateVector):
        return float(abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)
    if isinstance(a, DensityMatrix):
        return float(np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes)))
    raise TypeError("first argument must be StateVector or DensityMatrix")


def _tripartite_dims(space: SpaceTag) -> tuple[int, int]:
    kinds = space.kinds
    if kinds != ("atom", "atom", "field"):
        raise ValueError(f"expected atom/atom/field factors, got {kinds}")
    d_a = space.dims[0] * space.dims[1]
    return d_a, space.dims[2]


def partial_trace(state: StateVector | DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a tripartite state to its atomic or field factor."""
    if keep not in ("atoms", "field"):
        raise ValueError("keep must be 'atoms' or 'field'")
    d_a, d_f = _tripartite_dims(state.space)
    atom_space = SpaceTag(state.space.factors[:2])
    field_space = SpaceTag(state.space.factors[2:])
    if isinstance(state, StateVector):
        mat = state.amplitudes.reshape(d_a, d_f)
        if keep == "atoms":
            return DensityMatrix(mat @ mat.conj().T, atom_space)
        return DensityMatrix(mat.T @ mat.conj(), field_space)
    rho = state.matrix.reshape(d_a, d_f, d_a, d_f)
    if keep == "atoms":
        return DensityMatrix(np.einsum("ambm->ab", rho), atom_space)
    return DensityMatrix(np.einsum("aman->mn", rho), field_space)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values on a rectangular grid: values[i, j] = W(re[j] + 1j*im[i])."""

    beta_re: np.ndarray
    beta_im: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        dre = float(self.beta_re[1] - self.beta_re[0])
        dim = float(self.beta_im[1] - self.beta_im[0])
        return float(np.sum(self.values)) * dre * dim


def _displaced_parity_sum(rho: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(2/pi) Tr[rho D(gamma) Pi] for an array of displacements gamma.

    Works diagonal-by-diagonal of rho with the three-term recurrence of the
    scaled matrix elements F_p = (-1)^p <p+d|D(gamma)|p>, which stay <= 1 in
    magnitude for every argument.
    """
    dim = rho.shape[0]
    z = np.abs(gamma) ** 2
    log_mag = np.log(np.maximum(np.abs(gamma), 1e-300))
    phase = np.exp(1j * np.angle(gamma))
    total = np.zeros(gamma.shape, dtype=np.complex128)

    band_weight = np.array(
        [np.max(np.abs(np.diagonal(rho, offset=d))) for d in range(dim)]
    )
    scale = max(float(np.max(band_weight)), 1e-300)

    for d in range(dim):
        if band_weight[d] < 1e-14 * scale:
            continue
        diag = np.diagonal(rho, offset=d)
        f_prev = np.zeros_like(total)
        f = np.exp(d * log_mag - 0.5 * gammaln(d + 1.0) - 0.5 * z) * phase**d
        s_d = diag[0] * f
        for p in range(dim - d - 1):
            f_next = (
                -math.sqrt((p + 1.0) / (p + 1.0 + d))
                / (p + 1.0)
                * ((2.0 * p + d + 1.0 - z) * f + math.sqrt(p * (p + d)) * f_prev)
            )
            f_prev, f = f, f_next
            s_d = s_d + diag[p + 1] * f
        total += s_d if d == 0 else 2.0 * np.real(s_d)
    return (2.0 / math.pi) * np.real(total)


def wigner(
    rho_f: DensityMatrix,
    beta_re: np.ndarray | None = None,
    beta_im: np.ndarray | None = None,
) -> WignerGrid:
    """Wigner function of a single-mode state via displaced parity,
    W(beta) = (2/pi) Tr[rho D(2 beta) Pi].

    Default axes span |beta| <= sqrt(<n>) + 5 with 201 points each; a
    warning is raised when the spacing is too coarse to resolve the
    interference fringes a state of that size can carry.
    """
    if rho_f.space.kinds != ("field",):
        raise ValueError("wigner expects a single-mode field density matrix")
    nbar = float(np.real(np.sum(np.diag(rho_f.matrix) * np.arange(rho_f.dim))))
    if beta_re is None or beta_im is None:
        span = math.sqrt(max(nbar, 0.0)) + 5.0
        default = np.linspace(-span, span, 201)
        beta_re = default if beta_re is None else np.asarray(beta_re, dtype=np.float64)
        beta_im = default if beta_im is None else np.asarray(beta_im, dtype=np.float64)
    else:
        beta_re = np.asarray(beta_re, dtype=np.float64)
        beta_im = np.asarray(beta_im, dtype=np.float64)
    fringe_scale = math.pi / (4.0 * (math.sqrt(max(nbar, 0.0)) + 1.0))
    for axis in (beta_re, beta_im):
        if axis.size > 1 and float(np.max(np.diff(axis))) > fringe_scale:
            warnings.warn(
                "grid spacing may be too coarse to resolve interference fringes",
                stacklevel=2,
            )
            break
    grid = beta_re[None, :] + 1j * beta_im[:, None]
    values = _displaced_parity_sum(rho_f.matrix, 2.0 * grid)
    return WignerGrid(beta_re, beta_im, values)


def haar_random_two_qubit(rng: np.random.Generator) -> AtomCoeffs:
    """Haar-distributed pure two-qubit state (first column of a Haar
    unitary from QR of a complex Ginibre matrix with phase fixing)."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return AtomCoeffs.from_state(StateVector(q[:, 0], two_qubit_tag()))


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream; independent of evaluation order."""
    key = np.array([master_seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ensemble_average(
    task: Callable[[np.random.Generator], float | np.ndarray],
    n_samples: int,
    master_seed: int,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Mean and standard error of task over per-sample RNG streams.

    Each sample gets the stream sample_rng(master_seed, i), so results are
    reproducible bit for bit no matter how the loop is scheduled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    values = np.array([task(sample_rng(master_seed, i)) for i in range(n_samples)])
    mean = values.mean(axis=0)
    if n_samples == 1:
        stderr = np.zeros_like(mean)
    else:
        stderr = values.std(axis=0, ddof=1) / math.sqrt(n_samples)
    if np.ndim(mean) == 0:
        return float(mean), float(stderr)
    return mean, stderr
