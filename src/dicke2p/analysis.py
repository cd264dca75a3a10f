"""Fidelities, Wigner functions, and ensemble statistics."""

from __future__ import annotations

import math
import operator
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import numpy.random  # lazy in NumPy 2: load it with the package, not at the first draw
from numpy.lib.stride_tricks import as_strided

from .hilbert import StateVector, hermite_sum

__all__ = [
    "DensityMatrix",
    "WignerGrid",
    "fidelity",
    "wigner",
    "sample_rng",
    "ensemble_stats",
]

_HERM_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_EIG_FLOOR = -1e-9
_GATHER = 2**17  # complex entries in one lattice's wavefunctions, one y-kernel block, one gather


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, nonnegative."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] != (dim := math.prod(self.dims)):
            raise ValueError(f"matrix dim {mat.shape[0]} != space dim {dim}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm <= _HERM_ATOL:
            raise ValueError(f"not Hermitian: max deviation {herm:.3e}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1")
        low = float(np.min(np.linalg.eigvalsh(mat)))
        if not low >= _EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {low:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def outer(cls, vec: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """|v><v| of a unit vector v, positive by construction (_positive)."""
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (dim := math.prod(dims),):
            raise ValueError(f"vector shape {vec.shape} != space dim {dim}")
        return cls._positive(vec[:, None] * vec.conj(), dims, float(np.vdot(vec, vec).real))

    @classmethod
    def _positive(cls, mat: np.ndarray, dims: tuple[int, ...], tr: float) -> "DensityMatrix":
        """A A^dag with tr = |A|^2, positive by construction: only tr is checked."""
        if not abs(tr - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1")
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", mat)
        object.__setattr__(rho, "dims", dims)
        return rho


def fidelity(a: StateVector | DensityMatrix, b: StateVector) -> float:
    """|<b|a>|^2 for pure a, <b|a|b> for a density matrix."""
    if not isinstance(a, (StateVector, DensityMatrix)):
        raise TypeError("first argument must be StateVector or DensityMatrix")
    if a.dims != b.dims:
        raise ValueError("fidelity requires matching spaces")
    if isinstance(a, StateVector):
        return float(abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)
    return float(np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes)))


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


def _lattices(axis: np.ndarray, step: float, z_max: float, width: int):
    """Pieces of axis that each take one lattice, as (lo, hi, lattice, dx_n,
    dy_n, K, dy): with x_i = axis[lo + i] and y_k = k dy for k = 0..K, x_i
    -+ y_k is the lattice point of index |dy_n| K + i dx_n -+ k dy_n.  The
    whole axis is one run of spacing dx (h, m, q as in `wigner`) when it has
    at least three points and every step agrees with the first, nonzero one
    to a few ulps of max|axis|; the run is cut into pieces whose
    wavefunctions, width complex entries a point, hold at most _GATHER.  Any
    other axis goes point by point, as does a run whose lattice would be
    longer than that: dy = step, and as many blocks of 2K + 1 points as fit."""
    k_one = math.ceil(z_max / step)
    steps = np.diff(axis)
    tol = 8.0 * np.finfo(np.float64).eps * float(np.max(np.abs(axis), initial=0.0))
    if steps.size > 1 and abs(steps[0]) > tol and np.all(np.abs(steps - steps[0]) <= tol):
        dx = float(axis[-1] - axis[0]) / (axis.size - 1)
        m = math.ceil(abs(dx) / step)
        h = dx / m
        q = math.floor(step / abs(h))
        k = math.ceil(z_max / (q * abs(h)))
        per = min(axis.size, (_GATHER // width - 2 * q * k - 1) // m + 1)
        if per > 1 and (per - 1) * m + 2 * q * k + 1 <= per * (2 * k_one + 1):
            for a in range(0, axis.size, per):
                b = min(a + per, axis.size)
                lattice = axis[a] + np.arange(-q * k, (b - a - 1) * m + q * k + 1) * h
                yield a, b, lattice, m, int(math.copysign(q, h)), k, q * abs(h)
            return
    per = max(1, _GATHER // (width * (2 * k_one + 1)))
    for a in range(0, axis.size, per):
        b = min(a + per, axis.size)
        lattice = (axis[a:b, None] + np.arange(-k_one, k_one + 1) * step).ravel()
        yield a, b, lattice, 2 * k_one + 1, 1, k_one, step


def wigner(
    rho_f: DensityMatrix,
    beta_re: np.ndarray | None = None,
    beta_im: np.ndarray | None = None,
) -> WignerGrid:
    """Wigner function of a single-mode state from its quadrature
    wavefunctions, W(x, p) = (2/pi) int <x-y|rho|x+y> e^{4ipy} dy at
    beta = x + ip (Hillery, O'Connell, Scully and Wigner, Phys. Rep. 106,
    121 (1984)), in the convention x = (a + a^dag)/2 of
    `hilbert.hermite_sum`.  rho_f has one factor, read as a field
    mode cut at n_max = dim - 1.

    The sum runs over the pairs of rho = sum_j lam_j |v_j><v_j| from one
    eigh (`_wigner_pairs`; `scans.wigner_panels` passes it a field of rank
    <= 4 from one thin SVD), keeping those with |lam_j| > 1e-14 max|lam|;
    a normalized pure state has |W| <= 2/pi, so the dropped pairs move W
    by at most (2/pi) sum |lam_dropped|.  The integrand vanishes once
    |x +- y| passes z_max, where h_{dim-1}, the widest wavefunction of the
    cutoff, has fallen below 1e-16 (at most 4.9 past its turning point
    sqrt(dim + 1/2)); the trapezoid sum runs over 0 <= y <= z_max, and
    y < 0 follows by Hermitian symmetry.  The integrand's y-frequencies
    reach 4(|p| + z_max), so a y step up to pi / (2 (z_max + max(z_max,
    |p|))) leaves no alias; inside the state's support it is pi / (4 z_max).

    The sum runs on quadrature lattices.  A beta_re of at least three
    points whose steps agree to a few ulps is one run of spacing dx
    (`_lattices`); a uniform axis, as the default, is one.  The run takes
    the lattice step h = dx/m with m = ceil(|dx| / step) and the y step
    dy = q|h|, where q = floor(step / |h|) is 1 unless |dx| <= step/2; the
    default axes have q = 1 and dy = |dx|/m.  Every x_i +- y_k,
    k = 0..K = ceil(z_max / dy), then lies on the one lattice u_n = x_0 +
    n h of (N - 1) m + 2qK + 1 points, where one `hermite_sum` gives every
    psi_j (in pieces of at most _GATHER complex values on long runs).
    The y sum runs over blocks of rows of the kernel (4 dy/pi) e^{4i y_k p},
    each of at most _GATHER complex entries and built in place, once (once
    a piece if the kernel takes several blocks).  For each block, rho(x -
    y, x + y) is read from the psi_j through strided views, for as many x
    at a time as keep the J products psi_j(x - y) conj psi_j(x + y) within
    _GATHER complex entries, and one matrix product adds the block's share
    to W.  So the working memory is O(_GATHER) plus the output, and does
    not grow with the photon number.  Any other axis goes point by point,
    with dy = step and 2K + 1 lattice points each, as does a run whose
    spacing lies so far below step that its lattice would be longer.

    Default axes span |beta| <= sqrt(<n>) + 5 with 201 points each; a
    warning is raised when the spacing is too coarse to resolve the
    interference fringes a state of that size can carry.
    """
    if len(rho_f.dims) != 1:
        raise ValueError("wigner expects a single-mode field density matrix")
    return _wigner_pairs(*np.linalg.eigh(rho_f.matrix), beta_re, beta_im)


def _wigner_pairs(lam: np.ndarray, vecs: np.ndarray, beta_re, beta_im) -> WignerGrid:
    """`wigner` of rho = sum_j lam_j |v_j><v_j|, v_j the columns of vecs."""
    dim = vecs.shape[0]
    nbar = max(float(np.arange(dim) @ np.abs(vecs) ** 2 @ lam), 0.0)
    beta_re, beta_im = (
        np.linspace(-math.sqrt(nbar) - 5.0, math.sqrt(nbar) + 5.0, 201)
        if axis is None
        else np.asarray(axis, dtype=np.float64)
        for axis in (beta_re, beta_im)
    )
    fringe_scale = math.pi / (4.0 * (math.sqrt(nbar) + 1.0))
    if any(a.size > 1 and np.max(np.abs(np.diff(a))) > fringe_scale for a in (beta_re, beta_im)):
        warnings.warn(
            "grid spacing may be too coarse to resolve interference fringes", stacklevel=3
        )

    keep = np.abs(lam) > 1e-14 * np.max(np.abs(lam))
    lam, vecs = lam[keep], vecs[:, keep]
    cols = np.concatenate([vecs, vecs.conj()], axis=1)  # psi_j and conj psi_j
    zs = math.sqrt(dim + 0.5) + np.arange(0.0, 6.0, 0.05)
    tail = np.abs(hermite_sum(zs, np.arange(dim) == dim - 1)) < 1e-16  # h_{dim-1}
    if not tail.any():
        raise ValueError(f"h_{dim - 1} stays above 1e-16 up to x = {zs[-1]:.3g}")
    z_max = float(zs[np.argmax(tail)])
    step = math.pi / (2.0 * (z_max + max(z_max, float(np.max(np.abs(beta_im))))))

    values = np.empty((beta_im.size, beta_re.size))
    rows = max(1, _GATHER // beta_im.size)  # kernel rows in one block
    for lo, hi, lattice, dx_n, dy_n, k_max, dy in _lattices(beta_re, step, z_max, 2 * lam.size):
        psi = hermite_sum(lattice, cols)
        s_n, s_j = psi.strides
        if lo == 0:  # every piece of the axis has the same dy and K
            block = np.empty((min(rows, k_max + 1), beta_im.size), dtype=np.complex128)
        for k0 in range(0, k_max + 1, rows):
            k1 = min(k0 + rows, k_max + 1)
            kernel = block[: k1 - k0]
            if lo == 0 or rows <= k_max:  # a one-block kernel serves every piece
                # (4 dy / pi) e^{4i y_k p_j} in place, the phases in the real part
                arg = np.outer(np.arange(k0, k1) * dy, 4.0 * beta_im, out=kernel.real)
                np.sin(arg, out=kernel.imag)
                np.cos(arg, out=arg)
                kernel *= 4.0 * dy / math.pi
                if k0 == 0:
                    kernel[0] /= 2.0  # trapezoid end point at y = 0
            chunk = max(1, _GATHER // (lam.size * (k1 - k0)))
            for a in range(lo, hi, chunk):
                b = min(a + chunk, hi)
                # psi at x_i - y_k and conj psi at x_i + y_k, as read-only strided views
                at, shape = abs(dy_n) * k_max + (a - lo) * dx_n, (b - a, k1 - k0, lam.size)
                minus, plus = (
                    as_strided(part, shape, (dx_n * s_n, sign * dy_n * s_n, s_j), writeable=False)
                    for part, sign in (
                        (psi[at - k0 * dy_n :, : lam.size], -1),
                        (psi[at + k0 * dy_n :, lam.size :], 1),
                    )
                )
                w = ((minus * plus) @ lam @ kernel).real.T
                if k0 == 0:
                    values[:, a:b] = w
                else:
                    values[:, a:b] += w
    return WignerGrid(beta_re, beta_im, values)


def _haar_atoms(rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Product-basis amplitudes (N, 4) of one Haar two-qubit state per
    generator: two 4x4 normal draws from each in turn, one stacked QR (bit
    for bit each matrix's own) and the phase fix of the first column."""
    z = np.array([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for rng in rngs])
    q, r = np.linalg.qr(z)
    return q[:, :, 0] * (r[:, :1, 0] / np.abs(r[:, :1, 0]))


def _philox_key(master_seed: int, index: int) -> tuple[int, int]:
    """The Philox key of sample (master_seed, index): each part an integer,
    Python or NumPy, taken mod 2**64; anything else is refused."""
    try:
        return operator.index(master_seed) % 2**64, operator.index(index) % 2**64
    except TypeError:
        raise ValueError(
            f"seed and sample index must be integers, got {master_seed!r} and {index!r}"
        ) from None


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream; independent of evaluation order."""
    key = np.array(_philox_key(master_seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_THREAD = threading.local()


def _thread_rng(master_seed: int, index: int) -> np.random.Generator:
    """sample_rng(master_seed, index) as this thread's one Philox generator
    reset in place to a new generator's state but for its key (counter
    zero, empty buffer), at a fraction of the cost; the next call resets it
    again, so only draws that never leave the library may use it."""
    if (gen := getattr(_THREAD, "gen", None)) is None:
        gen = _THREAD.gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _philox_key(master_seed, index)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def ensemble_stats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the first axis of per-sample values
    (ddof = 1; zeros for a single sample)."""
    if len(values) < 1:
        raise ValueError("n_samples must be >= 1")
    mean = values.mean(axis=0)
    if len(values) == 1:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / math.sqrt(len(values))
