"""Fidelities, reductions, Wigner functions, and ensemble statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import AtomCoeffs, SpaceTag, StateVector, hermite_functions, two_qubit_tag

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
# Floats in one chunk of the Wigner Hermite table (4 MB).
_HERMITE_TABLE = 2**19


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
        """Trapezoid rule on the absolute steps of each axis, uniform or not."""
        def weights(axis: np.ndarray) -> np.ndarray:
            steps = np.abs(np.diff(axis, prepend=axis[0], append=axis[-1]))
            return (steps[:-1] + steps[1:]) / 2.0

        return float(weights(self.beta_im) @ self.values @ weights(self.beta_re))


def wigner(
    rho_f: DensityMatrix,
    beta_re: np.ndarray | None = None,
    beta_im: np.ndarray | None = None,
) -> WignerGrid:
    """Wigner function of a single-mode state from its quadrature
    wavefunctions, W(x, p) = (2/pi) int <x-y|rho|x+y> e^{4ipy} dy at
    beta = x + ip (Hillery, O'Connell, Scully and Wigner, Phys. Rep. 106,
    121 (1984)), in the convention x = (a + a^dag)/2 of
    `hilbert.hermite_functions`.

    rho = sum_j lam_j |v_j><v_j| keeps the pairs with |lam_j| > 1e-14
    max|lam|; a normalized pure state has |W| <= 2/pi, so the dropped pairs
    move W by at most (2/pi) sum |lam_dropped|.  The integrand vanishes once
    |x +- y| passes z_max, where h_{dim-1}, the widest wavefunction of the
    cutoff, has fallen below 1e-16 (at most 4.9 past its turning point
    sqrt(dim + 1/2)); the trapezoid sum runs over 0 <= y <= z_max, and
    y < 0 follows by Hermitian symmetry.  The integrand's y-frequencies
    reach 4(|p| + z_max), so the step pi / (2 (z_max + max(z_max, |p|)))
    leaves no alias; inside the state's support it is pi / (4 z_max).  x
    goes in chunks that keep the Hermite table near 4 MB, each chunk one
    matrix product over y.

    Default axes span |beta| <= sqrt(<n>) + 5 with 201 points each; a
    warning is raised when the spacing is too coarse to resolve the
    interference fringes a state of that size can carry.
    """
    if rho_f.space.kinds != ("field",):
        raise ValueError("wigner expects a single-mode field density matrix")
    dim = rho_f.dim
    nbar = max(float(np.real(np.sum(np.diag(rho_f.matrix) * np.arange(dim)))), 0.0)
    beta_re, beta_im = (
        np.linspace(-math.sqrt(nbar) - 5.0, math.sqrt(nbar) + 5.0, 201)
        if axis is None
        else np.asarray(axis, dtype=np.float64)
        for axis in (beta_re, beta_im)
    )
    fringe_scale = math.pi / (4.0 * (math.sqrt(nbar) + 1.0))
    if any(a.size > 1 and np.max(np.abs(np.diff(a))) > fringe_scale for a in (beta_re, beta_im)):
        warnings.warn(
            "grid spacing may be too coarse to resolve interference fringes", stacklevel=2
        )

    lam, vecs = np.linalg.eigh(rho_f.matrix)
    keep = np.abs(lam) > 1e-14 * np.max(np.abs(lam))
    lam, rows = lam[keep], vecs[:, keep].T
    rows = np.concatenate([rows.real, rows.imag])  # one real product per table
    zs = math.sqrt(dim + 0.5) + np.arange(0.0, 6.0, 0.05)
    tail = np.abs(hermite_functions(zs, dim)[-1]) < 1e-16
    if not tail.any():
        raise ValueError(f"h_{dim - 1} stays above 1e-16 up to x = {zs[-1]:.3g}")
    z_max = float(zs[np.argmax(tail)])
    step = math.pi / (2.0 * (z_max + max(z_max, float(np.max(np.abs(beta_im))))))
    ys = np.arange(0.0, z_max + step, step)
    kernel = (4.0 * step / math.pi) * np.exp(4j * np.outer(ys, beta_im))
    kernel[0] /= 2.0  # trapezoid end point at y = 0

    values = np.empty((beta_im.size, beta_re.size))
    chunk = max(1, _HERMITE_TABLE // (2 * dim * ys.size))
    for lo in range(0, beta_re.size, chunk):
        xs = beta_re[lo : lo + chunk, None]
        z = np.concatenate([(xs - ys).ravel(), (xs + ys).ravel()])
        parts = (rows @ hermite_functions(z, dim)).reshape(2, lam.size, 2, xs.size, ys.size)
        psi = parts[0] + 1j * parts[1]
        rho_xy = np.einsum("j,jxy,jxy->xy", lam, psi[:, 0], psi[:, 1].conj())
        values[:, lo : lo + chunk] = (rho_xy @ kernel).real.T
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
