"""Truncated Fock spaces, two-atom operators, and elementary states.

Dense complex matrices throughout, wrapped in thin immutable containers
that record the tensor factorization.  The tensor ordering is fixed
globally as atom A (x) atom B (x) field; every module relies on it.
Atomic levels are ordered g, e for two-level atoms and g, i, e for
three-level atoms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = [
    "NORM_ATOL",
    "CAPTURE_ATOL",
    "FLAG_ATOL",
    "FockCutoff",
    "SpaceTag",
    "StateVector",
    "Operator",
    "AtomCoeffs",
    "atom_tag",
    "field_tag",
    "two_qubit_tag",
    "two_atom_tag",
    "tripartite_tag",
    "annihilation_op",
    "creation_op",
    "number_op",
    "identity_op",
    "collective_op",
    "fock_state",
    "coherent_state",
    "hermite_functions",
    "cat_state",
    "bell_state",
    "tensor",
]

NORM_ATOL = 1e-10
# Largest weight a truncation to the Fock cutoff may drop.
CAPTURE_ATOL = 1e-10
_CUTOFF_SIGMAS = 8.0
_CUTOFF_PAD = 4
FLAG_ATOL = 1e-10

Level = Literal["g", "i", "e"]
BellKind = Literal["psi+", "psi-", "phi+", "phi-"]

_LEVEL_INDEX = {2: {"g": 0, "e": 1}, 3: {"g": 0, "i": 1, "e": 2}}
_SQRT2 = math.sqrt(2.0)
_H0_NORMAL_X = 26.6  # exp(-x^2) is a normal float64 up to here


@dataclass(frozen=True)
class FockCutoff:
    """Fock-space truncation; the space holds photon numbers 0..n_max."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

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
        """
        if nbar < 0:
            raise ValueError("nbar must be non-negative")
        top = int(math.ceil(nbar + _CUTOFF_SIGMAS * math.sqrt(nbar)))
        # Poisson weight above top: the regularized lower incomplete gamma
        while gammainc(top + 1, nbar) > CAPTURE_ATOL:
            top += 1
        return cls(top + _CUTOFF_PAD)


@dataclass(frozen=True)
class SpaceTag:
    """Tensor factorization record: tuple of (kind, dimension) factors."""

    factors: tuple[tuple[str, int], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def __mul__(self, other: "SpaceTag") -> "SpaceTag":
        return SpaceTag(self.factors + other.factors)


def atom_tag(levels: int = 2) -> SpaceTag:
    if levels not in (2, 3):
        raise ValueError("atoms have 2 or 3 levels")
    return SpaceTag((("atom", levels),))


def field_tag(cutoff: FockCutoff) -> SpaceTag:
    return SpaceTag((("field", cutoff.dim),))


def two_qubit_tag() -> SpaceTag:
    return atom_tag(2) * atom_tag(2)


def two_atom_tag(levels: int = 2) -> SpaceTag:
    return atom_tag(levels) * atom_tag(levels)


def tripartite_tag(cutoff: FockCutoff, levels: int = 2) -> SpaceTag:
    return two_atom_tag(levels) * field_tag(cutoff)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.complex128, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm pure state over a tagged tensor space."""

    amplitudes: np.ndarray
    space: SpaceTag

    def __post_init__(self) -> None:
        amps = _freeze(np.ravel(self.amplitudes))
        if amps.size != self.space.dim:
            raise ValueError(f"amplitude length {amps.size} != space dim {self.space.dim}")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes: np.ndarray, space: SpaceTag) -> "StateVector":
        """Build a state from unnormalized amplitudes, rescaling explicitly."""
        amps = np.ravel(np.asarray(amplitudes, dtype=np.complex128))
        nrm = float(np.linalg.norm(amps))
        if nrm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(amps / nrm, space)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense operator with optional Hermitian/unitary flags.

    Flags are validated at construction when set to True; leave them None
    when the property is unknown or not needed.
    """

    matrix: np.ndarray
    space: SpaceTag
    hermitian: bool | None = None
    unitary: bool | None = None

    def __post_init__(self) -> None:
        mat = _freeze(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if mat.shape[0] != self.space.dim:
            raise ValueError(f"matrix dim {mat.shape[0]} != space dim {self.space.dim}")
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

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.space, self.hermitian, self.unitary)


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
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"coefficient norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")

    @classmethod
    def normalized(cls, c_g: complex, c_minus: complex, c_plus: complex, c_e: complex) -> "AtomCoeffs":
        v = np.array([c_g, c_minus, c_plus, c_e], dtype=np.complex128)
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero coefficient vector")
        v = v / nrm
        return cls(complex(v[0]), complex(v[1]), complex(v[2]), complex(v[3]))

    @classmethod
    def from_state(cls, state: StateVector) -> "AtomCoeffs":
        if state.space.dims != (2, 2):
            raise ValueError("expected a two-qubit state")
        v = _BELL_TO_PRODUCT.conj().T @ state.amplitudes
        return cls(complex(v[0]), complex(v[1]), complex(v[2]), complex(v[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c_g, self.c_minus, self.c_plus, self.c_e], dtype=np.complex128)

    def to_state(self) -> StateVector:
        return StateVector(_BELL_TO_PRODUCT @ self.as_array(), two_qubit_tag())

    def d_pair(self, phase: float) -> tuple[complex, complex]:
        """(d+, d-) = (c_g e^{i phase} +- c_e e^{-i phase})/sqrt(2).

        Callers working with a coherent field of phase phi pass 2*phi.
        """
        ep = cmath.exp(1j * phase)
        return (
            (self.c_g * ep + self.c_e / ep) / _SQRT2,
            (self.c_g * ep - self.c_e / ep) / _SQRT2,
        )


def annihilation_op(cutoff: FockCutoff) -> Operator:
    """Photon annihilation: <n-1|a|n> = sqrt(n)."""
    n = cutoff.dim
    mat = np.diag(np.sqrt(np.arange(1, n)), k=1).astype(np.complex128)
    return Operator(mat, field_tag(cutoff))


def creation_op(cutoff: FockCutoff) -> Operator:
    return annihilation_op(cutoff).dagger()


def number_op(cutoff: FockCutoff) -> Operator:
    mat = np.diag(np.arange(cutoff.dim, dtype=np.float64)).astype(np.complex128)
    return Operator(mat, field_tag(cutoff), hermitian=True)


def identity_op(space: SpaceTag) -> Operator:
    return Operator(np.eye(space.dim, dtype=np.complex128), space, hermitian=True, unitary=True)


def collective_op(mu: Level, nu: Level, levels_per_atom: int = 2) -> Operator:
    """Two-atom collective operator |mu><nu|_A + |mu><nu|_B.

    Acts on the bare two-atom space (no field factor).  The intermediate
    level 'i' exists only for three-level atoms.
    """
    if levels_per_atom not in (2, 3):
        raise ValueError("levels_per_atom must be 2 or 3")
    index = _LEVEL_INDEX[levels_per_atom]
    if mu not in index or nu not in index:
        raise ValueError(f"level {mu!r}/{nu!r} not available with {levels_per_atom} levels")
    single = np.zeros((levels_per_atom, levels_per_atom), dtype=np.complex128)
    single[index[mu], index[nu]] = 1.0
    eye = np.eye(levels_per_atom, dtype=np.complex128)
    mat = np.kron(single, eye) + np.kron(eye, single)
    return Operator(mat, two_atom_tag(levels_per_atom), hermitian=True if mu == nu else None)


def fock_state(n: int, cutoff: FockCutoff) -> StateVector:
    if not 0 <= n <= cutoff.n_max:
        raise ValueError(f"Fock index {n} outside 0..{cutoff.n_max}")
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, field_tag(cutoff))


def _coherent_amplitudes(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Truncated, unnormalized coherent amplitudes; log-domain for stability."""
    n = np.arange(cutoff.dim)
    if alpha == 0:
        amps = np.zeros(cutoff.dim, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    r = abs(alpha)
    phase = cmath.phase(alpha)
    logmag = -0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1)
    return np.exp(logmag + 1j * n * phase)


def coherent_state(alpha: complex, cutoff: FockCutoff) -> StateVector:
    """Truncated coherent state, renormalized after truncation.

    Raises when the cutoff captures less than 1 - CAPTURE_ATOL of the weight.
    """
    amps = _coherent_amplitudes(alpha, cutoff)
    captured = float(np.sum(np.abs(amps) ** 2))
    if captured < 1.0 - CAPTURE_ATOL:
        raise ValueError(
            f"cutoff n_max={cutoff.n_max} too small for |alpha|^2={abs(alpha) ** 2:.4g}"
            f" (captures {captured:.12f} of the norm)"
        )
    return StateVector.normalized(amps, field_tag(cutoff))


def hermite_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """Quadrature-representation Fock wavefunctions h_n(x) = <x|n> for the
    convention x = (a + a^dag)/2; shape (dim, len(x)).

    Three-term recurrence with normalized functions, stable to large n.
    Their one home: `analysis.wigner` and `protocols` import them from here.
    It starts from exp(-x^2), which is subnormal past |x| = 26.6 and 0 past
    27.3; h_{dim-1} falls below 1e-16 within 2.4 of sqrt(dim + 1/2), so a
    grid past 26.6 raises once sqrt(dim + 1/2) + 2 passes it too.
    """
    x = np.asarray(x, dtype=np.float64)
    reach = float(np.max(np.abs(x), initial=0.0))
    if reach > _H0_NORMAL_X and math.sqrt(dim + 0.5) + 2.0 > _H0_NORMAL_X:
        raise ValueError(f"Hermite functions of dim {dim} underflow at max|x| = {reach:.4g}")
    out = np.empty((dim, x.size), dtype=np.float64)
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-(x**2))
    two_x = 2.0 * x
    if dim > 1:
        out[1] = two_x * out[0]
    for n in range(1, dim - 1):
        out[n + 1] = (two_x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


def cat_state(alpha: complex, parity: str, cutoff: FockCutoff) -> StateVector:
    """Normalized |alpha> +- |-alpha>, built from the truncated vectors."""
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    if parity == "-" and alpha == 0:
        raise ValueError("odd cat state is undefined for alpha = 0")
    plus = coherent_state(alpha, cutoff).amplitudes
    minus = coherent_state(-alpha, cutoff).amplitudes
    raw = plus + minus if parity == "+" else plus - minus
    return StateVector.normalized(raw, field_tag(cutoff))


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
    return StateVector(amps, two_qubit_tag())


def tensor(a, b):
    """Kronecker product of two states or two operators, tags concatenated."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.space * b.space)
    if isinstance(a, Operator) and isinstance(b, Operator):
        herm = True if (a.hermitian and b.hermitian) else None
        unit = True if (a.unitary and b.unitary) else None
        return Operator(np.kron(a.matrix, b.matrix), a.space * b.space, herm, unit)
    raise TypeError("tensor requires two StateVectors or two Operators")
