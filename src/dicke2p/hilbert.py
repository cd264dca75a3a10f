"""Truncated Fock spaces, elementary states, and the containers they live in.

States and the small atomic operators are complex arrays wrapped in thin
immutable containers that record their space.  A space is its dims tuple,
in the tensor order atom A (x) atom B (x) field fixed for the whole
package: (2, 2, n_max + 1) for two-level atoms and the field, (3, 3,
n_max + 1) for three-level ones, (2, 2) for the atoms alone and
(n_max + 1,) for the field alone; every module relies on it.  Atomic
levels are ordered g, e for two-level atoms and g, i, e for three-level
atoms.  The Hamiltonians are never built here as matrices of the full
dimension (see dynamics.sector_spectrum and w_spectrum), nor <x|n> as a table
(hermite_sum).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

__all__ = [
    "CAPTURE_ATOL",
    "FLAG_ATOL",
    "FockCutoff",
    "StateVector",
    "Operator",
    "AtomCoeffs",
    "coherent_state",
    "hermite_sum",
    "bell_state",
    "tensor",
]

NORM_ATOL = 1e-10
# Largest weight a truncation to the Fock cutoff may drop.
CAPTURE_ATOL = 1e-10
_CUTOFF_SIGMAS = 8.0
_CUTOFF_PAD = 4
FLAG_ATOL = 1e-10

BellKind = Literal["psi+", "psi-", "phi+", "phi-"]

_SQRT2 = math.sqrt(2.0)
_BIG, _HALF_BIG = 2.0**450, 2.0**225  # hermite_sum's rescale thresholds
_BLOCK = 32  # rows per matmul in hermite_sum


@dataclass(frozen=True)
class FockCutoff:
    """Fock-space truncation; the space holds photon numbers 0..n_max."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def for_mean_photon(cls, nbar: float) -> "FockCutoff":
        """Cutoff top + _CUTOFF_PAD, with top the smallest photon number from
        ceil(nbar + _CUTOFF_SIGMAS*sqrt(nbar)) on that leaves less than
        CAPTURE_ATOL of the coherent photon distribution above it.

        Eight standard deviations are enough from nbar = 10 on; below that
        the Poisson tail is heavier than the Gaussian estimate and top grows.
        The pad of 4 absorbs the four-photon reach of the two-photon couplings.
        The tail is `_poisson_tail`; nbar = 0 has none and gives n_max = 4.
        """
        if not 0 <= nbar < math.inf:
            raise ValueError("nbar must be finite and non-negative")
        top = int(math.ceil(nbar + _CUTOFF_SIGMAS * math.sqrt(nbar)))
        while _poisson_tail(nbar, top) > CAPTURE_ATOL:
            top += 1
        return cls(top + _CUTOFF_PAD)


def _poisson_tail(nbar: float, top: int) -> float:
    """Poisson(nbar) weight above top, for top >= nbar.

    Each term exp(k log nbar - nbar - lgamma(k + 1)) is taken in log space,
    so none overflows at large nbar.  From k = top + 1 > nbar on they fall
    by nbar/(k + 1) < 1 at each step, and the sum stops once a term no
    longer changes it.  Agrees with the regularized incomplete gamma
    P(top + 1, nbar) to 6e-13 relative for nbar from 0.5 to 1000.
    """
    if nbar == 0:
        return 0.0
    log_nbar = math.log(nbar)
    total = 0.0
    k = top + 1
    while True:
        term = math.exp(k * log_nbar - nbar - math.lgamma(k + 1))
        if total + term == total:
            return total
        total += term
        k += 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.complex128, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm pure state; dims are its tensor factors in the fixed order
    atom A, atom B, field (see the module docstring)."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = _freeze(np.ravel(self.amplitudes))
        self._adopt(amps)
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")

    def _adopt(self, amps: np.ndarray) -> None:
        if amps.size != (dim := math.prod(self.dims)):
            raise ValueError(f"amplitude length {amps.size} != space dim {dim}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes: np.ndarray, dims: tuple[int, ...]) -> "StateVector":
        """Build a state from unnormalized amplitudes, rescaling explicitly.

        The rescaled array is the state's own, frozen in place: one norm and
        one copy, where the constructor would copy again and re-check the norm.
        """
        amps = np.ravel(np.asarray(amplitudes, dtype=np.complex128))
        nrm = float(np.linalg.norm(amps))
        if not 1e-12 <= nrm < math.inf:
            raise ValueError("cannot normalize a (near-)zero or non-finite vector")
        amps = amps / nrm
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "dims", dims)
        state._adopt(amps)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense operator with optional Hermitian/unitary flags.

    Flags are validated at construction when set to True; leave them None
    when the property is unknown or not needed.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    hermitian: bool | None = None
    unitary: bool | None = None

    def __post_init__(self) -> None:
        mat = _freeze(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if mat.shape[0] != (dim := math.prod(self.dims)):
            raise ValueError(f"matrix dim {mat.shape[0]} != space dim {dim}")
        if self.hermitian:
            dev = float(np.max(np.abs(mat - mat.conj().T)))
            if dev > FLAG_ATOL:
                raise ValueError(f"hermitian flag set but max|M - M^dag| = {dev:.3e}")
        if self.unitary:
            eye = np.eye(mat.shape[0])
            dev = float(np.max(np.abs(mat @ mat.conj().T - eye)))
            if dev > FLAG_ATOL:
                raise ValueError(f"unitary flag set but max|M M^dag - 1| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Columns: gg, psi-, psi+, ee expressed in the product basis gg, ge, eg, ee.
_BELL_TO_PRODUCT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0],
        [0.0, -1.0 / _SQRT2, 1.0 / _SQRT2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=np.complex128,
)


@dataclass(frozen=True)
class AtomCoeffs:
    """Two-atom state in the basis {|gg>, |psi->, |psi+>, |ee>}.

    |psi+-> = (|ge> +- |eg>)/sqrt(2).  The four coefficients must form a
    unit vector.
    """

    c_g: complex
    c_minus: complex
    c_plus: complex
    c_e: complex

    def __post_init__(self) -> None:
        nrm = math.sqrt(
            abs(self.c_g) ** 2 + abs(self.c_minus) ** 2 + abs(self.c_plus) ** 2 + abs(self.c_e) ** 2
        )
        if not abs(nrm - 1.0) <= NORM_ATOL:
            raise ValueError(f"coefficient norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")

    @classmethod
    def normalized(cls, c_g: complex, c_minus: complex, c_plus: complex, c_e: complex) -> "AtomCoeffs":
        v = np.array([c_g, c_minus, c_plus, c_e], dtype=np.complex128)
        nrm = float(np.linalg.norm(v))
        if not 1e-12 <= nrm < math.inf:
            raise ValueError("cannot normalize (near-)zero or non-finite coefficients")
        v = v / nrm
        return cls(complex(v[0]), complex(v[1]), complex(v[2]), complex(v[3]))

    @classmethod
    def from_state(cls, state: StateVector) -> "AtomCoeffs":
        if state.dims != (2, 2):
            raise ValueError("expected a two-qubit state")
        v = _BELL_TO_PRODUCT.conj().T @ state.amplitudes
        return cls(complex(v[0]), complex(v[1]), complex(v[2]), complex(v[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c_g, self.c_minus, self.c_plus, self.c_e], dtype=np.complex128)

    def to_state(self) -> StateVector:
        return StateVector(_BELL_TO_PRODUCT @ self.as_array(), (2, 2))


@lru_cache(maxsize=16)
def _half_log_factorials(dim: int) -> np.ndarray:
    """Read-only 0.5 log(n!) for n = 0..dim-1, each from `math.lgamma`.

    Each entry is within an ulp of log(n!) (1.8e-12 absolute for n < 2000);
    a running sum of log n carries its rounding along and is off by 1.6e-11.
    """
    table = np.array([0.5 * math.lgamma(k + 1) for k in range(dim)])
    table.setflags(write=False)
    return table


def _coherent_amplitudes(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Truncated, unnormalized coherent amplitudes; log-domain for stability.

    log|c_n| = -|alpha|^2/2 + n log|alpha| - log(n!)/2, with the factorial
    term read from the cached `_half_log_factorials(dim)` table.
    """
    n = np.arange(cutoff.dim)
    if alpha == 0:
        amps = np.zeros(cutoff.dim, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    r = abs(alpha)
    phase = cmath.phase(alpha)
    logmag = -0.5 * r * r + n * math.log(r) - _half_log_factorials(cutoff.dim)
    return np.exp(logmag + 1j * n * phase)


def coherent_state(alpha: complex, cutoff: FockCutoff) -> StateVector:
    """Truncated coherent state, renormalized after truncation.

    Raises when the cutoff captures less than 1 - CAPTURE_ATOL of the weight.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    amps = _coherent_amplitudes(alpha, cutoff)
    captured = float(np.sum(np.abs(amps) ** 2))
    if not captured >= 1.0 - CAPTURE_ATOL:
        raise ValueError(
            f"cutoff n_max={cutoff.n_max} too small for |alpha|^2={abs(alpha) ** 2:.4g}"
            f" (captures {captured:.12f} of the norm)"
        )
    return StateVector.normalized(amps, (cutoff.dim,))


def hermite_sum(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] h_n(x), shape (len(x),) + coeffs.shape[1:], h_n(x) =
    <x|n> for the quadrature x = (a + a^dag)/2, by the normalized recurrence
    h_{n+1} = (2x h_n - sqrt(n) h_{n-1}) / sqrt(n + 1) (Bunck, BIT Numer.
    Math. 49, 2009) on h_n e^{x^2} 2^{-shift}, times exp(shift ln 2 - x^2)
    at the end.  Points above _HALF_BIG in a row whose norm passes _BIG are
    scaled to [1/2, 1) by exact powers of two (a row grows at most 2|x| + 1
    times: finite while len(x) (2|x| + 1)^2 < 2^124).  _BLOCK rows go into
    each real matmul, complex coeffs as their float64 view; no table."""
    flat = np.ascontiguousarray(np.reshape(coeffs, (len(coeffs), -1)), np.result_type(coeffs, 1.0))
    cols = flat.view(np.float64)
    two_x, shift = 2.0 * x, np.zeros(x.size)
    total = np.zeros((x.size, cols.shape[1]))
    # row n at ring[n % _BLOCK], from h_0 e^{x^2}; h_{-1} enters times sqrt(0)
    ring = np.full((_BLOCK, x.size), (2.0 / math.pi) ** 0.25)
    for first in range(0, len(cols), _BLOCK):
        block = cols[first : first + _BLOCK]
        for n in range(max(first, 1), first + len(block)):
            row = ring[n % _BLOCK]
            np.multiply(two_x, ring[(n - 1) % _BLOCK], out=row)
            row -= math.sqrt(n - 1) * ring[(n - 2) % _BLOCK]
            row /= math.sqrt(n)
            if row @ row > _BIG * _BIG:
                exponent = np.where(np.abs(row) > _HALF_BIG, np.frexp(row)[1], 0)
                np.ldexp(ring, -exponent, out=ring)
                np.ldexp(total, -exponent[:, None], out=total)
                shift += exponent
        total += ring[: len(block)].T @ block
    total *= np.exp(shift * math.log(2.0) - x * x)[:, None]
    return total.view(flat.dtype).reshape(x.shape + np.shape(coeffs)[1:])


def bell_state(kind: BellKind, phi: float = 0.0) -> StateVector:
    """Two-qubit Bell state; 'phi+-' carries the phase convention
    (e^{-i phi}|gg> +- e^{i phi}|ee>)/sqrt(2)."""
    amps = np.zeros(4, dtype=np.complex128)
    if kind == "psi+":
        amps[1] = amps[2] = 1.0 / _SQRT2
    elif kind == "psi-":
        amps[1] = 1.0 / _SQRT2
        amps[2] = -1.0 / _SQRT2
    elif kind == "phi+":
        amps[0] = cmath.exp(-1j * phi) / _SQRT2
        amps[3] = cmath.exp(1j * phi) / _SQRT2
    elif kind == "phi-":
        amps[0] = cmath.exp(-1j * phi) / _SQRT2
        amps[3] = -cmath.exp(1j * phi) / _SQRT2
    else:
        raise ValueError(f"unknown Bell state kind {kind!r}")
    return StateVector(amps, (2, 2))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states, dims concatenated."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    raise TypeError("tensor requires two StateVectors")
