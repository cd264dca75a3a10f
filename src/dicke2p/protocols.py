"""GHZ generation, the two-cavity Bell measurement, and homodyne detection.

The protocol pipeline: evolve atoms + coherent field to half the revival
time, discriminate the field between two nearly orthogonal coherent states
(ideally or by balanced homodyne detection), repeat in a second cavity
whose field phase is advanced by pi/4, then apply a conditional one-qubit
gate.  The composed field measurements act on the atoms as the four
elements of a complete Bell-basis POVM.  An outcome is the detector pair
(d1, d2) of cavities 1 and 2; inside the module it is its index k = 2 d1 +
d2 into ALL_OUTCOMES, '+' first (as 0), and the chain's gates, targets and
results are indexed [d1, d2] or k in that order.

The paper's operators are plain read-only 4x4 arrays in the product basis
(gg, ge, eg, ee): the readouts M_phi^+- (measurement_operator), the two
cavities composed (composed_measurement) and the corrections on atom A
(correction_gate).  Each cavity readout is a pair of 4x4 operators on the
atoms, the finite-nbar form of M_phi^+-, read for a whole array of
interaction times at once: by the exact engine as one matmul of the phase
table against the sector-eigenbasis weights of the product-basis states
(x) |+-alpha>, by the analytic one from its three-branch maps and
closed-form coherent overlaps.  They are cached at one time per (alpha, g,
t) and the key of _map_cut, which names the engine; run_ghz reads the GHZ
overlap from the same map, and cavity 2 from it too: a^dag a + 2 n_e is
conserved, so turning the field by pi/4 acts on the atoms as D = e^{i pi
n_e/2}, and cavity 2 reads cavity 1's readouts R as D R D^dag.  One
array-valued chain composes both cavities on any batch of atomic states
(bell_outcome_arrays).  Repeated shots on one input draw from its cached
law, each from its seeded stream on one Philox generator per thread: the
ideal law is the table's four entries, and the homodyne law holds cavity 2
read once, in one GEMM, on the atoms collapsed at every quadrature-grid
column, so a shot costs its draws, a column lookup and one correction
gate.

Homodyne detection of cavity 1 reads the evolved joint state at one time
through the rotated quadrature wavefunctions on +-(|alpha| + 5), in closed
form for the analytic engine, as (atoms, record) amplitudes: a shot's law
reads its input's own state and keeps only what its shots read; an
ensemble reads the evolved product basis, a Kraus map from the atoms to
those amplitudes, built once per call and not cached.  A shot draws the
true quadrature from it, collapses the atoms there and smears only the
reported record.  A Haar ensemble takes one homodyne shot per input as
arrays (_homodyne_outcomes): the record densities as a quadratic form in
the atoms, each input collapsed at its drawn column only, and cavity 2
read on the whole batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import DensityMatrix, _thread_rng
from .dynamics import _branch_maps, check_branch_regime, revival_time, sector_spectrum
from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    _freeze,
    bell_state,
    coherent_state,
    hermite_sum,
    tensor,
)
from .models import EffectiveModelParams

__all__ = [
    "OutcomeLabel",
    "ALL_OUTCOMES",
    "ProtocolResult",
    "HomodyneConfig",
    "ghz_input",
    "ghz_target",
    "run_ghz",
    "measurement_operator",
    "composed_measurement",
    "correction_gate",
    "bell_target",
    "bell_outcome_table",
    "bell_outcome_arrays",
    "run_bell_protocol",
    "homodyne_measure",
    "homodyne_outcome_table",
]

_SQRT2 = math.sqrt(2.0)
_DEGENERATE_PROB = 1e-12
# Quadrature grid of homodyne sampling, over +-(|alpha| + 5) for protocol
# shots and +-(sqrt(nbar) + 5) for homodyne_measure.
_QUADRATURE_POINTS = 2001
# D = e^{i pi n_e/2} on (gg, ge, eg, ee): the pi/4 turn of cavity 2's field.
_TURN = np.array([1.0, 1j, 1j, -1.0])


@dataclass(frozen=True)
class OutcomeLabel:
    """Detector signs: d1 for the first cavity (+ means the field was found
    along |alpha>), d2 for the second (+ means along |e^{i pi/4} alpha>)."""

    d1: str
    d2: str

    def __post_init__(self) -> None:
        if self.d1 not in ("+", "-") or self.d2 not in ("+", "-"):
            raise ValueError("outcome signs must be '+' or '-'")

    def __str__(self) -> str:
        return f"({self.d1},{self.d2})"


ALL_OUTCOMES = (
    OutcomeLabel("+", "+"),
    OutcomeLabel("+", "-"),
    OutcomeLabel("-", "+"),
    OutcomeLabel("-", "-"),
)

# Bell-state target of each outcome, in ALL_OUTCOMES order.
_TARGET_KIND = ("psi-", "phi-", "psi+", "phi+")


@dataclass(frozen=True)
class ProtocolResult:
    """One protocol outcome: its label, Born probability, corrected
    post-measurement atomic state, and fidelity to the Bell-state target.

    leaked_weight is the part of the cavity-1 norm outside the span of the
    two reference coherent states (reported, then renormalized away).
    record_x is the homodyne quadrature record when that detection ran.
    """

    outcome: OutcomeLabel
    probability: float
    post_state: DensityMatrix
    target: str
    fidelity: float
    leaked_weight: float
    record_x: float | None = None


@dataclass(frozen=True)
class HomodyneConfig:
    """Balanced homodyne detector: local-oscillator phase and efficiency.
    efficiency < 1 smears the ideal record by a Gaussian of variance
    (1-efficiency)/(4*efficiency)."""

    lo_phase: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo_phase):
            raise ValueError("lo_phase must be finite")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")

    @property
    def smear_variance(self) -> float:
        return (1.0 - self.efficiency) / (4.0 * self.efficiency)

    def misclassification_probability(self, alpha_abs: float) -> float:
        """Mass of the smeared record on the wrong side of x = 0 for a pure
        coherent input whose quadrature mean along the local oscillator is
        alpha_abs (|alpha| at the optimal phase)."""
        sigma = math.sqrt(0.25 + self.smear_variance)
        return 0.5 * math.erfc(alpha_abs / (sigma * _SQRT2))


def ghz_input(phi: float) -> tuple[AtomCoeffs, StateVector]:
    """Product preparation that turns the half-revival state into a GHZ
    state: each atom in e^{i pi/4}(e^{-i phi}|g> - i e^{i phi}|e>)/sqrt(2)."""
    single = StateVector(
        cmath.exp(1j * math.pi / 4.0)
        * np.array([cmath.exp(-1j * phi), -1j * cmath.exp(1j * phi)])
        / _SQRT2,
        (2,),
    )
    coeffs = AtomCoeffs.from_state(tensor(single, single))
    return coeffs, single


def ghz_target(
    alpha: complex, phi: float, cutoff: FockCutoff, g_sign: int = 1
) -> StateVector:
    """Atom-atom-field GHZ state reached at half the revival time,
    i/sqrt(2) (|phi_2phi^->|alpha> - s |phi_2phi^+>|-alpha>) with s the
    sign of the coupling."""
    if g_sign not in (1, -1):
        raise ValueError("g_sign must be +1 or -1")
    field_p = coherent_state(alpha, cutoff).amplitudes
    field_m = coherent_state(-alpha, cutoff).amplitudes
    amps = (1j / _SQRT2) * (
        np.kron(bell_state("phi-", 2.0 * phi).amplitudes, field_p)
        - g_sign * np.kron(bell_state("phi+", 2.0 * phi).amplitudes, field_m)
    )
    return StateVector(amps, (2, 2, cutoff.dim))


# Phase-table entries held at once by the exact engine's cavity build (512 KB).
_BASIS_CHUNK = 2**15


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only in place: cached values are shared."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _cavity_maps(
    alpha: complex, g: float, times: np.ndarray, n_max: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """One cavity as a linear map on the atoms at each of T times: the
    readouts of the product-basis atomic states (x) |alpha> onto |+-alpha>,
    (T, 2, 4, 4) indexed [t, sign, atoms, input], and the Gram matrices of
    the evolved basis, (T, 4, 4), which carry the analytic form's norm.
    Analytic (n_max None): with M_b the maps of _branch_maps and <alpha
    e^{ia}|alpha e^{ib}> = exp(nbar (e^{i(b-a)} - 1)), readout[+-] = sum_b
    <+-alpha|b> M_b and Gram = sum_bc M_b^dag <b|c> M_c; no field is built.
    Exact: the evolution is unitary (Gram = identity); with w[+-, a] the
    sector eigenvector weights of e_a (x) |+-alpha>, readout[t, +-, a, j] =
    sum conj(w[+-, a]) e^{-i lambda t} w[+, j] is a matmul of the phase
    table, _BASIS_CHUNK entries at a time, and no state is evolved."""
    times = np.asarray(times, dtype=np.float64)
    if n_max is None:
        maps, theta = _branch_maps(alpha, g, times)
        # bra labels: the references +-alpha, then the branches themselves
        bras = np.concatenate([np.broadcast_to([0.0, math.pi], (times.size, 2)), theta], axis=1)
        overlaps = np.exp(abs(alpha) ** 2 * np.expm1(1j * (theta[:, None] - bras[..., None])))
        mixed = overlaps @ maps.reshape(times.size, 3, 16)  # sum_b <bra|b> M_b
        gram = maps.reshape(times.size, 12, 4).conj().mT @ mixed[:, 2:].reshape(times.size, 12, 4)
        return mixed[:, :2].reshape(times.size, 2, 4, 4), gram
    refs = np.stack([coherent_state(a, FockCutoff(n_max)).amplitudes for a in (alpha, -alpha)])
    eye = np.eye(4, dtype=np.complex128)
    spectrum = sector_spectrum(EffectiveModelParams(g, FockCutoff(n_max)))
    w = spectrum.project(np.kron(eye, refs[:, None])).reshape(8, -1)  # rows [sign, a]
    pairs = (w.conj()[:, None] * w[:4]).reshape(32, -1).T  # columns [sign, a, j]
    readout = np.empty((times.size, 2, 4, 4), dtype=np.complex128)
    step = max(1, _BASIS_CHUNK // len(pairs))
    for lo in range(0, times.size, step):
        phases = spectrum.phases(times[lo : lo + step]).reshape(-1, len(pairs))
        readout[lo : lo + step] = (phases @ pairs).reshape(-1, 2, 4, 4)
    return readout, np.tile(eye, (times.size, 1, 1))


def _map_cut(alpha: complex, cutoff: FockCutoff, engine: str) -> int | None:
    """The entry check of every public call: the engine name, and the
    analytic engine's |alpha|^2 >> 1 warning once per call, whether its maps
    come from the cache or not.  Returns the key that every internal map
    branches on and every cache keys on in place of the engine name: the
    cutoff n_max for the exact engine, None for the analytic maps."""
    if engine not in ("exact", "analytic"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "exact":
        return cutoff.n_max
    check_branch_regime(alpha, stacklevel=3)
    return None


@lru_cache(maxsize=16)
def _cavity(alpha: complex, g: float, t: float, n_max: int | None) -> tuple[np.ndarray, ...]:
    """_cavity_maps (readout, Gram) at the one time t, without the time axis
    and read-only, kept for repeated shots and tables at fixed parameters;
    a Bell chain reads cavity 2 from the same entry (_turned)."""
    return _frozen(*(arr[0] for arr in _cavity_maps(alpha, g, np.array([t]), n_max)))


def run_ghz(
    alpha: complex, phi: float, g: float, cutoff: FockCutoff, engine: str = "exact"
) -> float:
    """Fidelity of the state psi generated at t_r/2 from ghz_input(phi) with
    field amplitude |alpha| e^{i phi}, against ghz_target, read from the
    cached cavity map (_cavity): with plus and minus the atomic amplitudes
    of psi along the same normalized |+-alpha> that ghz_target holds,
    |<GHZ|psi>| = |<phi_2phi^-|plus> - s <phi_2phi^+|minus>| / sqrt(2), s
    the sign of g, over the norm of psi from the cavity's Gram matrix."""
    amp = abs(alpha) * cmath.exp(1j * phi)
    readout, gram = _cavity(amp, g, revival_time(g) / 2.0, _map_cut(amp, cutoff, engine))
    atoms = ghz_input(phi)[0].to_state().amplitudes
    plus, minus = readout @ atoms
    sign = 1.0 if g > 0 else -1.0
    overlap = np.vdot(bell_state("phi-", 2.0 * phi).amplitudes, plus) - sign * np.vdot(
        bell_state("phi+", 2.0 * phi).amplitudes, minus
    )
    return float(abs(overlap) ** 2 / (2.0 * np.vdot(atoms, gram @ atoms).real))


def _sigma_phi(phi: float) -> np.ndarray:
    return np.array(
        [[0.0, cmath.exp(-1j * phi)], [cmath.exp(1j * phi), 0.0]],
        dtype=np.complex128,
    )


_SIGMA_Z = np.diag([-1.0 + 0j, 1.0 + 0j])


def measurement_operator(phi: float, sign: str) -> np.ndarray:
    """Atomic back-action of finding one cavity field along +-|alpha|e^{i phi},
    as a read-only 4x4 array in the product basis (gg, ge, eg, ee): '+'
    projects onto span{|psi->, |phi_2phi^->}; '-' swaps |psi+> with
    |phi_2phi^+> (times -i)."""
    if sign == "+":
        psi_m = bell_state("psi-").amplitudes
        phi_m = bell_state("phi-", 2.0 * phi).amplitudes
        return _freeze(np.outer(psi_m, psi_m.conj()) + np.outer(phi_m, phi_m.conj()))
    if sign == "-":
        psi_p = bell_state("psi+").amplitudes
        phi_p = bell_state("phi+", 2.0 * phi).amplitudes
        return _freeze(-1j * (np.outer(phi_p, psi_p.conj()) + np.outer(psi_p, phi_p.conj())))
    raise ValueError("sign must be '+' or '-'")


def composed_measurement(phi: float, s1: str, s2: str) -> np.ndarray:
    """Both cavities in sequence, M_{phi+pi/4}^{s2} M_phi^{s1}, as a
    read-only 4x4 array in the product basis."""
    m1 = measurement_operator(phi, s1)
    m2 = measurement_operator(phi + math.pi / 4.0, s2)
    return _freeze(m2 @ m1)


def correction_gate(outcome: OutcomeLabel, phi: float) -> np.ndarray:
    """Conditional one-qubit gate on atom A completing the Bell measurement,
    as a read-only 4x4 array in the product basis (it is cached and shared):
    (+,+) -> 1, (-,+) -> i sigma_2phi, (+,-) -> sigma_2phi sigma_z,
    (-,-) -> i sigma_z."""
    return _corrections(phi)[0].reshape(4, 4, 4)[ALL_OUTCOMES.index(outcome)]


def bell_target(outcome: OutcomeLabel, phi: float) -> StateVector:
    """Bell state the corrected protocol leaves behind for this outcome."""
    return bell_state(_TARGET_KIND[ALL_OUTCOMES.index(outcome)], 2.0 * phi)


_MIXED = DensityMatrix(np.eye(4, dtype=np.complex128) / 4.0, (2, 2))


@lru_cache(maxsize=16)
def _corrections(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Correction gates (2, 2, 4, 4) and Bell targets (2, 2, 4) of the four
    outcomes, indexed [d1, d2] with '+' first (ALL_OUTCOMES order)."""
    s = _sigma_phi(2.0 * phi)
    gates = np.kron(np.stack([np.eye(2), s @ _SIGMA_Z, 1j * s, 1j * _SIGMA_Z]), np.eye(2))
    targets = np.stack([bell_state(kind, 2.0 * phi).amplitudes for kind in _TARGET_KIND])
    _frozen(gates, targets)
    return gates.reshape(2, 2, 4, 4), targets.reshape(2, 2, 4)


def _turned(readout: np.ndarray) -> np.ndarray:
    """Cavity 1's readouts (..., 4, 4) as cavity 2 reads them, D R D^dag."""
    return _TURN[:, None] * readout * _TURN.conj()


def _read(readout: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A cavity's readouts (..., 2, 4, 4) read out on the rows (..., r, 4)
    of atomic amplitudes by one matmul with the (..., 4, 8) map: per row
    and field sign the atomic amplitudes (..., r, 2, 4) and weights
    (..., r, 2).  A state read alone is a row of its own, a vector-matrix
    product whose bits do not depend on the batch; the homodyne law reads
    its grid's (points, 4) collapsed columns as one block, one GEMM."""
    amps = rows @ readout.reshape(readout.shape[:-3] + (8, 4)).mT
    amps = amps.reshape(amps.shape[:-1] + (2, 4))
    return amps, np.vecdot(amps, amps).real


def _branch_probs(raw: np.ndarray, p1) -> tuple[np.ndarray, np.ndarray]:
    """p2 and p1*p2, (..., 2), of cavity-2 weights raw (..., 2) on a cavity-1
    branch of probability p1 (...).  A branch below _DEGENERATE_PROB is split
    evenly; any other must have weight on the reference states."""
    keep = np.asarray(p1 >= _DEGENERATE_PROB)[..., None]
    total = raw[..., :1] + raw[..., 1:]
    if np.count_nonzero(keep & (total <= 0.0)):
        raise ValueError("cavity field has no weight on the reference states")
    p2 = np.divide(raw, total, out=np.full(raw.shape, 0.5), where=keep)
    return p2, p1[..., None] * p2


def _corrected(gates, targets, amps, raw, prob) -> tuple[np.ndarray, np.ndarray]:
    """Cavity-2 branches amps (..., 4) of weights raw and probabilities prob
    (...) corrected by gates (..., 4, 4): the normalized states and their
    fidelities to targets (..., 4).  Below _DEGENERATE_PROB a fidelity is NaN
    and its state unnormalized; the gates are unitary, so raw is also the
    squared norm of each corrected state."""
    dead = prob < _DEGENERATE_PROB
    states = np.matvec(gates, amps)
    np.divide(states, np.sqrt(raw)[..., None], out=states, where=~dead[..., None])
    return states, np.where(dead, np.nan, np.abs(np.vecdot(targets, states)) ** 2)


def _first_cavity(cavity1, atoms: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cavity 1, as (readout, Gram), read out on atoms (..., 4): the atomic
    amplitudes (..., 2, 4) and probabilities p1 (..., 2) per field sign, and
    the weight leaked outside the reference states (...)."""
    amps1, raw1 = _read(cavity1[0], atoms[..., None, :])
    amps1, raw1 = amps1[..., 0, :, :], raw1[..., 0, :]
    total1 = raw1.sum(axis=-1)
    if (total1 <= 0.0).any():
        raise ValueError("cavity field has no weight on the reference states")
    leaked = 1.0 - total1 / np.vecdot(atoms, np.matvec(cavity1[1], atoms)).real
    return amps1, raw1 / total1[..., None], leaked


def _chain(cavity1, atoms: np.ndarray, phi: float) -> tuple[np.ndarray, ...]:
    """The ideal two-cavity chain on product-basis atomic amplitudes atoms
    (..., 4), by maps (cavity 1 as (readout, Gram), cavity 2 as its readout
    _turned) whose batch shapes broadcast against theirs.  Returns p1 (..., 2);
    p2, p1*p2, the corrected atomic states and their fidelities, (..., 2, 2)
    indexed [d1, d2]; and the weight leaked outside the cavity-1 reference
    states (...).  Below _DEGENERATE_PROB a fidelity is NaN and its state
    unnormalized; a degenerate cavity-1 branch is split evenly."""
    amps1, p1, leaked = _first_cavity(cavity1, atoms)
    turned = _turned(cavity1[0])[..., None, :, :, :]
    amps2, raw2 = _read(turned, amps1[..., None, :])
    amps2, raw2 = amps2[..., 0, :, :], raw2[..., 0, :]
    p2, prob = _branch_probs(raw2, p1)
    states, fid = _corrected(*_corrections(phi), amps2, raw2, prob)
    return p1, p2, prob, states, fid, leaked


def _result(k: int, prob, fid, state, leaked, record_x=None) -> ProtocolResult:
    """Chain outcome k at the API boundary; a NaN fidelity leaves the atoms
    maximally mixed, and state is not read."""
    post = _MIXED if math.isnan(fid) else DensityMatrix.outer(state, (2, 2))
    return ProtocolResult(
        ALL_OUTCOMES[k], float(prob), post, _TARGET_KIND[k], float(fid), float(leaked), record_x
    )


@lru_cache(maxsize=64)
def _ideal_law(coeffs: AtomCoeffs, alpha: complex, g: float, n_max: int | None) -> tuple:
    """One input's ideal Bell measurement at half the revival time as its
    four-outcome law, kept for repeated shots and tables: p1 (2,) and p2
    (2, 2) indexed [d1, d2], as floats, and the results of ALL_OUTCOMES."""
    cavity1 = _cavity(alpha, g, revival_time(g) / 2.0, n_max)
    atoms = coeffs.to_state().amplitudes
    p1, p2, prob, states, fid, leaked = _chain(cavity1, atoms, cmath.phase(alpha))
    entries = enumerate(zip(prob.ravel(), fid.ravel(), states.reshape(4, 4)))
    results = tuple(_result(k, *entry, leaked) for k, entry in entries)
    return tuple(p1.tolist()), tuple(map(tuple, p2.tolist())), results


def bell_outcome_table(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    engine: str = "exact",
) -> tuple[ProtocolResult, ProtocolResult, ProtocolResult, ProtocolResult]:
    """Deterministic enumeration of all four outcomes with ideal coherent
    discrimination in both cavities; probabilities sum to one."""
    return _ideal_law(coeffs, alpha, g, _map_cut(alpha, cutoff, engine))[2]


def bell_outcome_arrays(
    atoms: np.ndarray, alpha: complex, g: float, cutoff: FockCutoff, times, engine: str = "exact"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bell_outcome_table as arrays, for atomic amplitudes atoms (..., 4) in
    the product basis at interaction times (T,) broadcast against their
    batch shape: the outcome probabilities and fidelities (..., 4) in
    ALL_OUTCOMES order, and the leaked weight (...).  The maps are built
    once per call for all times and not cached.  This serves the Haar
    ensemble (a batch of inputs at one time) and the timing sweep (one
    input, atoms (4,), at T times: columns fid[:, k] and prob[:, k])."""
    cavity1 = _cavity_maps(alpha, g, times, _map_cut(alpha, cutoff, engine))
    _, _, prob, _, fid, leaked = _chain(cavity1, atoms, cmath.phase(alpha))
    shape = prob.shape[:-2] + (4,)
    return prob.reshape(shape), fid.reshape(shape), leaked


@lru_cache(maxsize=4)
def _homodyne_law(
    coeffs: AtomCoeffs, alpha: complex, g: float, n_max: int | None, lo_phase: float
) -> tuple:
    """One input's Bell chain with cavity 1 read by homodyne detection at
    half the revival time, kept for repeated shots: the grid, the record's
    cumulative density, cavity 2 read once on the atoms collapsed at every
    grid column (one GEMM, _read) as amplitudes (points, 2, 4) and weights
    (points, 2) per d2, and the ideal cavity-1 readout's p1 (2,) and leaked
    weight.  Its record amplitudes come from its own joint state: one
    evolution and one Hermite sum, and no Kraus map is kept."""
    t = revival_time(g) / 2.0
    atoms = coeffs.to_state().amplitudes
    cavity1 = _cavity(alpha, g, t, n_max)
    _, p1, leaked = _first_cavity(cavity1, atoms)
    xs, (amps,) = _record_amplitudes(alpha, g, t, n_max, lo_phase, atoms[None])
    amps2, raw2 = _read(_turned(cavity1[0]), amps.T)
    return xs, *_frozen(_record_cdf(amps), amps2, raw2.copy(), p1), float(leaked)


def run_bell_protocol(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    engine: str = "exact",
    detection: str | HomodyneConfig = "ideal",
    rng_seed: int = 0,
    shot_index: int = 0,
) -> ProtocolResult:
    """Sample one protocol shot at half the revival time.

    detection='ideal' discriminates cavity 1 by coherent-state projection:
    the shot is its outcome's bell_outcome_table entry.  A HomodyneConfig
    instead draws the true quadrature from the input's cavity-1 record
    density on the grid +-(|alpha| + 5) and collapses the atoms with the
    quadrature projector there; the record, whose sign picks the cavity-1
    branch, is that value smeared by the detector's read noise, so the
    atoms collapse at the true quadrature, not at the record.  Cavity 2 is always read out
    ideally, from the input's cached law: it was read once on the atoms
    collapsed at every grid column, so a shot looks up its column and
    applies the one correction gate of its outcome.  The reported
    probability is the ideal Born probability of the realized outcome.
    The draws are those of sample_rng(rng_seed, shot_index): a uniform
    (d1, or the quadrature), a normal if efficiency < 1, then a uniform
    (d2) unless the cavity-1 branch is degenerate.
    """
    n_max = _map_cut(alpha, cutoff, engine)
    rng = _thread_rng(rng_seed, shot_index)
    if isinstance(detection, HomodyneConfig):
        law = _homodyne_law(coeffs, alpha, g, n_max, detection.lo_phase)
        xs, cdf, amps2, raw2, p1, leaked = law
        record_x, idx = _draw_quadrature(xs, cdf, detection, rng)
        s1 = 0 if record_x > 0 else 1
        p2, prob = _branch_probs(raw2[idx], p1[s1])
    elif detection == "ideal":
        p1, p2, table = _ideal_law(coeffs, alpha, g, n_max)
        s1 = 0 if rng.random() < p1[0] else 1
        p2, record_x = p2[s1], None
    else:
        raise ValueError("detection must be 'ideal' or a HomodyneConfig")
    # a degenerate cavity-1 branch draws nothing more and reports (s1, +)
    s2 = 0 if p1[s1] < _DEGENERATE_PROB or rng.random() < p2[0] else 1
    if record_x is None:
        return table[2 * s1 + s2]
    gates, targets = _corrections(cmath.phase(alpha))
    state, fid = _corrected(gates[s1, s2], targets[s1, s2], amps2[idx, s2], raw2[idx, s2], prob[s2])
    return _result(2 * s1 + s2, prob[s2], fid, state, leaked, record_x)


def homodyne_outcome_table(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    config: HomodyneConfig,
    engine: str = "exact",
) -> tuple[ProtocolResult, ProtocolResult, ProtocolResult, ProtocolResult]:
    """Deterministic per-outcome results with balanced homodyne readout of
    cavity 1 at half the revival time.

    This is the paper's misclassification model: the record classifies the
    field between the two reference states, so each outcome mixes the
    ideal table entry of the right cavity-1 branch and, with the
    misclassification weight of the smeared record at the quadrature mean
    |alpha| cos(phase(alpha) - lo_phase), the entry of the wrong one.  The
    post state for each outcome is that mixture of ideal post states, not
    the mean over records classified to its sign: a sampled shot collapses
    the atoms with <x| at its quadrature, which keeps less fidelity.  For
    AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3) at nbar = 20, phi = pi/8,
    g = -0.002 and efficiency 1, 3,000 shots gave mean fidelities
    0.9929 +- 0.0004 for (+,+) and 0.920 +- 0.005 for (-,-), against this
    table's 0.9983 and 0.9675; the cavity-1 sign frequencies of shots do
    follow the table.  No sampling is involved.  At efficiency 1 and
    lo_phase = phase(alpha) the table reduces to the ideal coherent
    discrimination.  Cavity 2 is always read out ideally.
    """
    phi = cmath.phase(alpha)
    table = bell_outcome_table(coeffs, alpha, g, cutoff, engine)
    leaked = table[0].leaked_weight
    q_mis = config.misclassification_probability(abs(alpha) * math.cos(phi - config.lo_phase))
    out = []
    for k, target in enumerate(_corrections(phi)[1].reshape(4, 4)):
        # records classified as d1: the true branch d1, or the other one
        # misread (the entry of the other d1, at k ^ 2), each post state
        # corrected with the gate of its true branch
        mix = ((1.0 - q_mis, table[k]), (q_mis, table[k ^ 2]))
        prob = sum(w * r.probability for w, r in mix)
        post, fid = _MIXED, math.nan
        if prob >= _DEGENERATE_PROB:
            rho = sum(w * r.probability * r.post_state.matrix for w, r in mix) / prob
            post, fid = DensityMatrix(rho, (2, 2)), float(np.real(target.conj() @ rho @ target))
        out.append(ProtocolResult(ALL_OUTCOMES[k], prob, post, _TARGET_KIND[k], fid, leaked))
    return tuple(out)


def _quadrature(span: float, amps: np.ndarray, lo_phase: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid on [-span, span] and the field amplitudes amps (..., dim) read
    there, sum_n amps[..., n] e^{-i lo_phase n} h_n(x), shape (..., points)."""
    xs = np.linspace(-span, span, _QUADRATURE_POINTS)
    rotated = amps * np.exp(-1j * lo_phase * np.arange(amps.shape[-1]))
    read = hermite_sum(xs, np.moveaxis(rotated, -1, 0))
    return xs, np.ascontiguousarray(np.moveaxis(read, 0, -1))


def _record_amplitudes(alpha, g, t, n_max, lo_phase, inputs) -> tuple[np.ndarray, ...]:
    """Cavity 1 read by homodyne detection at t on the atomic states inputs
    (r, 4): the grid on +-(|alpha| + 5) and the (atoms, record) amplitudes
    (r, 4 atoms, points); on inputs = eye(4) these are the Kraus map K
    (4 inputs, 4 atoms, points), and atoms (4,) read sum_j atoms[j] K[j].
    Exact: the states (x) |alpha> evolved to t and read through one Hermite
    sum.  Analytic (n_max None): inputs times K = sum_b M_b^T <x|beta_b>
    over _branch_maps, beta_b = alpha e^{i(theta_b - lo_phase)}, <x|beta> =
    (2/pi)^{1/4} exp(-(x - Re beta)^2 + i Im beta (2x - Re beta))."""
    span = abs(alpha) + 5.0
    if n_max is not None:
        kets = np.kron(inputs, coherent_state(alpha, FockCutoff(n_max)).amplitudes)
        spectrum = sector_spectrum(EffectiveModelParams(g, FockCutoff(n_max)))
        evolved = np.stack([spectrum.propagate(k, [t])[0] for k in kets])
        return _quadrature(span, evolved.reshape(len(kets), 4, -1), lo_phase)
    maps, theta = _branch_maps(alpha, g, [t])
    beta = alpha * np.exp(1j * (theta[0, :, None] - lo_phase))
    xs = np.linspace(-span, span, _QUADRATURE_POINTS)
    waves = np.exp(-((xs - beta.real) ** 2) + 1j * beta.imag * (2.0 * xs - beta.real))
    kraus = maps[0].T @ ((2.0 / math.pi) ** 0.25 * waves)
    return xs, (inputs @ kraus.reshape(4, -1)).reshape(len(inputs), 4, -1)


def _record_cdf(amps: np.ndarray) -> np.ndarray:
    """Cumulative density over the grid of (atoms, record) amplitudes amps
    (4, points), normalized to end at 1."""
    cdf = np.cumsum(np.sum(np.abs(amps) ** 2, axis=0))
    return cdf / cdf[-1]


def _draw_quadrature(
    xs: np.ndarray, cdf: np.ndarray, cfg: HomodyneConfig, rng: np.random.Generator
) -> tuple[float, int]:
    """One homodyne record on the grid xs of cumulative density cdf
    (_record_cdf).  The true quadrature is drawn by one uniform; the record
    is that value smeared by one normal of the detector's read-noise
    variance.  Returns the record and the grid index of the true
    quadrature."""
    idx = min(int(cdf.searchsorted(rng.random())), xs.size - 1)
    x_rec = float(xs[idx])
    if (variance := cfg.smear_variance) > 0.0:
        x_rec += rng.normal(0.0, math.sqrt(variance))
    return x_rec, idx


# Record densities of one chunk of batched homodyne shots held at once (1 MB).
_RECORD_CHUNK = 2**17


def _homodyne_outcomes(atoms, alpha, g, cutoff, engine, config, rngs) -> tuple[np.ndarray, ...]:
    """run_bell_protocol's homodyne shot on each input of atoms (N, 4) as
    arrays, the i-th drawing from the i-th of rngs in the shot's order (a
    uniform, a normal if efficiency < 1, a uniform): the outcome indices in
    ALL_OUTCOMES order and the fidelities, (N,).  The record density of
    input a is Re <a|H(x)|a>, H(x) = K(x) K(x)^dag summed over the atoms of
    the Kraus map K that _record_amplitudes builds for this call, so its
    cumulative density comes from the prefix sums of H by one real product,
    a chunk of inputs at a time; each input is collapsed at its drawn column
    only, and cavity 2 is read on the whole batch at once (_read).  No
    per-input law or result is built."""
    n_max, t = _map_cut(alpha, cutoff, engine), revival_time(g) / 2.0
    sigma = math.sqrt(config.smear_variance)
    u1, noise, u2 = np.array(
        [(r.random(), r.normal(0.0, sigma) if sigma > 0.0 else 0.0, r.random()) for r in rngs]
    ).T
    cavity1 = _cavity(alpha, g, t, n_max)
    _, p1, _ = _first_cavity(cavity1, atoms)
    xs, kraus = _record_amplitudes(alpha, g, t, n_max, config.lo_phase, np.eye(4))
    # Re sum_jk conj(a_j) a_k C_jk(x), C(x) = sum_{y <= x} H(y): the record's
    # cumulative density (points, inputs), as a real product of float views
    gram = kraus.conj().transpose(2, 0, 1) @ kraus.transpose(2, 1, 0)
    cum = np.cumsum(gram.reshape(-1, 16), axis=0).view(np.float64)
    idx = np.empty(len(atoms), dtype=np.intp)
    step = max(1, _RECORD_CHUNK // xs.size)
    for lo in range(0, len(atoms), step):
        a = atoms[lo : lo + step]
        cdf = cum @ (a[:, :, None] * a.conj()[:, None, :]).reshape(-1, 16).view(np.float64).T
        cdf /= cdf[-1].copy()
        idx[lo : lo + step] = np.sum(cdf < u1[lo : lo + step], axis=0)
    np.minimum(idx, xs.size - 1, out=idx)
    rows = np.arange(len(atoms))
    s1 = (xs[idx] + noise <= 0.0).astype(np.intp)  # 0 for a positive record
    amps2, raw2 = _read(_turned(cavity1[0]), np.matvec(kraus[:, :, idx].transpose(2, 1, 0), atoms))
    p1 = p1[rows, s1]
    p2, prob = _branch_probs(raw2, p1)
    s2 = ((p1 >= _DEGENERATE_PROB) & (u2 >= p2[:, 0])).astype(np.intp)
    gates, targets = _corrections(cmath.phase(alpha))
    picked = amps2[rows, s2], raw2[rows, s2], prob[rows, s2]
    return 2 * s1 + s2, _corrected(gates[s1, s2], targets[s1, s2], *picked)[1]


@lru_cache(maxsize=4)
def _measure_law(amplitudes: bytes, dims: tuple[int, ...], lo_phase: float) -> tuple:
    """homodyne_measure's law for the joint state of these amplitude bytes,
    kept for repeated draws: the grid on +-(sqrt(nbar) + 5), the (atoms,
    record) amplitudes (4, points) and their cumulative density."""
    mat = np.frombuffer(amplitudes, dtype=np.complex128).reshape(4, dims[2])
    nbar = float(np.dot(np.sum(np.abs(mat) ** 2, axis=0), np.arange(dims[2])))
    xs, amps = _quadrature(math.sqrt(max(nbar, 0.0)) + 5.0, mat, lo_phase)
    return _frozen(xs, amps, _record_cdf(amps))


def homodyne_measure(
    state: StateVector, cfg: HomodyneConfig, rng: np.random.Generator
) -> tuple[float, StateVector]:
    """Sample a quadrature record from a joint two-atom + field state and
    collapse the atoms.

    The true quadrature is drawn from the ideal density and the atoms are
    collapsed with the ideal projector there; the returned record adds
    Gaussian read noise of variance (1-efficiency)/(4*efficiency), so
    inefficiency only blurs the classical record, never the collapse.
    """
    dims = state.dims
    if len(dims) != 3 or dims[:2] != (2, 2):
        raise ValueError("expected a two-qubit + field state")
    xs, amps, cdf = _measure_law(state.amplitudes.tobytes(), dims, cfg.lo_phase)
    x_rec, idx = _draw_quadrature(xs, cdf, cfg, rng)
    return x_rec, StateVector.normalized(amps[:, idx], (2, 2))
