"""GHZ generation, the two-cavity Bell measurement, and homodyne detection.

The protocol pipeline: evolve atoms + coherent field to half the revival
time, discriminate the field between two nearly orthogonal coherent states
(ideally or by balanced homodyne detection), repeat in a second cavity
whose field phase is advanced by pi/4, then apply a conditional one-qubit
gate.  The composed field measurements act on the atoms as the four
elements of a complete Bell-basis POVM.

Each cavity readout is a pair of 4x4 operators on the atoms, the finite-nbar
form of M_phi^+- (measurement_operator).  They are computed once per
(alpha, g, t, cutoff, engine) by evolving the four product-basis atomic
states with the field and projecting onto |+-alpha>; every shot, outcome
table and Haar sample then composes them on its own atomic state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import DensityMatrix, fidelity, sample_rng
from .dynamics import (
    SectorSpectrum,
    coherent_branch_state,
    revival_time,
    sector_spectrum,
)
from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    Operator,
    StateVector,
    atom_tag,
    bell_state,
    coherent_state,
    hermite_functions,
    tensor,
    tripartite_tag,
    two_qubit_tag,
)
from .models import EffectiveModelParams

__all__ = [
    "OutcomeLabel",
    "ALL_OUTCOMES",
    "ProtocolResult",
    "HomodyneConfig",
    "TimingCurves",
    "ghz_input",
    "ghz_target",
    "run_ghz",
    "measurement_operator",
    "composed_measurement",
    "correction_gate",
    "bell_target",
    "bell_outcome_table",
    "run_bell_protocol",
    "timing_sensitivity",
    "quadrature_overlap",
    "hermite_functions",
    "homodyne_measure",
    "homodyne_outcome_table",
]

_SQRT2 = math.sqrt(2.0)
_DEGENERATE_PROB = 1e-12
# Quadrature grid of homodyne sampling, over +-(sqrt(nbar) + 5).
_QUADRATURE_POINTS = 2001
# The field of cavity 2 is that of cavity 1 turned by pi/4.
_CAVITY2_TURN = cmath.exp(1j * math.pi / 4.0)


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

# Per-outcome targets and single-qubit corrections (on atom A), keyed by
# physical detector signs (cavity 1, cavity 2).
_TARGET_KIND = {
    ("+", "+"): "psi-",
    ("+", "-"): "phi-",
    ("-", "+"): "psi+",
    ("-", "-"): "phi+",
}


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


@lru_cache(maxsize=8)
def _w_operator(g: float, n_max: int) -> SectorSpectrum:
    """Sector spectrum of W, shared by every exact evolution at (g, n_max)."""
    return sector_spectrum(EffectiveModelParams(g, FockCutoff(n_max)))


def ghz_input(phi: float) -> tuple[AtomCoeffs, StateVector]:
    """Product preparation that turns the half-revival state into a GHZ
    state: each atom in e^{i pi/4}(e^{-i phi}|g> - i e^{i phi}|e>)/sqrt(2)."""
    single = StateVector(
        cmath.exp(1j * math.pi / 4.0)
        * np.array([cmath.exp(-1j * phi), -1j * cmath.exp(1j * phi)])
        / _SQRT2,
        atom_tag(2),
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
    return StateVector(amps, two_qubit_tag() * coherent_state(alpha, cutoff).space)


@lru_cache(maxsize=16)
def _cavity(
    alpha: complex, g: float, t: float, n_max: int, engine: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cavity as a linear map on the atoms, independent of their state.

    Returns the four product-basis atomic states (x) |alpha> evolved to t,
    field-resolved with shape (4, 4, dim); the readout operators onto
    |+alpha> and |-alpha>, stacked with shape (2, 4, 4); and the Gram matrix
    of the evolved basis, which is the identity for the unitary exact engine
    and carries the norm of the unnormalized analytic branch form.
    """
    cutoff = FockCutoff(n_max)
    field = coherent_state(alpha, cutoff).amplitudes
    eye = np.eye(4, dtype=np.complex128)
    if engine == "exact":
        spectrum, times = _w_operator(g, n_max), np.array([t])
        basis = np.stack([spectrum.propagate(np.kron(e, field), times)[0] for e in eye])
    elif engine == "analytic":
        basis = np.stack([
            coherent_branch_state(
                AtomCoeffs.from_state(StateVector(e, two_qubit_tag())), alpha, g, t
            ).amplitudes(cutoff)
            for e in eye
        ])
    else:
        raise ValueError(f"unknown engine {engine!r}")
    basis = basis.reshape(4, 4, cutoff.dim)
    refs = np.stack([field, coherent_state(-alpha, cutoff).amplitudes])
    readout = (basis @ refs.conj().T).transpose(2, 1, 0)
    flat = basis.reshape(4, -1)
    gram = flat.conj() @ flat.T
    for arr in (basis, readout, gram):
        arr.flags.writeable = False
    return basis, readout, gram


def run_ghz(
    alpha: complex, phi: float, g: float, cutoff: FockCutoff, engine: str = "exact"
) -> float:
    """Fidelity of the state generated at t_r/2 from ghz_input(phi) with
    field amplitude |alpha| e^{i phi}, against ghz_target."""
    amp = abs(alpha) * cmath.exp(1j * phi)
    coeffs, _ = ghz_input(phi)
    basis = _cavity(amp, g, revival_time(g) / 2.0, cutoff.n_max, engine)[0]
    psi = StateVector.normalized(
        np.tensordot(coeffs.to_state().amplitudes, basis, 1), tripartite_tag(cutoff)
    )
    return fidelity(psi, ghz_target(amp, phi, cutoff, g_sign=1 if g > 0 else -1))


def _sigma_phi(phi: float) -> np.ndarray:
    return np.array(
        [[0.0, cmath.exp(-1j * phi)], [cmath.exp(1j * phi), 0.0]],
        dtype=np.complex128,
    )


_SIGMA_Z = np.diag([-1.0 + 0j, 1.0 + 0j])


def measurement_operator(phi: float, sign: str) -> Operator:
    """Atomic back-action of finding one cavity field along +-|alpha|e^{i phi}:
    '+' projects onto span{|psi->, |phi_2phi^->}; '-' swaps |psi+> with
    |phi_2phi^+> (times -i)."""
    if sign == "+":
        psi_m = bell_state("psi-").amplitudes
        phi_m = bell_state("phi-", 2.0 * phi).amplitudes
        mat = np.outer(psi_m, psi_m.conj()) + np.outer(phi_m, phi_m.conj())
        return Operator(mat, two_qubit_tag(), hermitian=True)
    if sign == "-":
        psi_p = bell_state("psi+").amplitudes
        phi_p = bell_state("phi+", 2.0 * phi).amplitudes
        mat = -1j * (np.outer(phi_p, psi_p.conj()) + np.outer(psi_p, phi_p.conj()))
        return Operator(mat, two_qubit_tag())
    raise ValueError("sign must be '+' or '-'")


def composed_measurement(phi: float, s1: str, s2: str) -> Operator:
    """Both cavities in sequence: M_{phi+pi/4}^{s2} M_phi^{s1}."""
    m1 = measurement_operator(phi, s1).matrix
    m2 = measurement_operator(phi + math.pi / 4.0, s2).matrix
    return Operator(m2 @ m1, two_qubit_tag())


@lru_cache(maxsize=16)
def correction_gate(outcome: OutcomeLabel, phi: float) -> Operator:
    """Conditional one-qubit gate on atom A completing the Bell measurement:
    (+,+) -> 1, (-,+) -> i sigma_2phi, (+,-) -> sigma_2phi sigma_z,
    (-,-) -> i sigma_z."""
    key = (outcome.d1, outcome.d2)
    if key == ("+", "+"):
        u = np.eye(2, dtype=np.complex128)
    elif key == ("-", "+"):
        u = 1j * _sigma_phi(2.0 * phi)
    elif key == ("+", "-"):
        u = _sigma_phi(2.0 * phi) @ _SIGMA_Z
    else:
        u = 1j * _SIGMA_Z
    return Operator(np.kron(u, np.eye(2)), two_qubit_tag(), unitary=True)


def bell_target(outcome: OutcomeLabel, phi: float) -> StateVector:
    """Bell state the corrected protocol leaves behind for this outcome."""
    kind = _TARGET_KIND[(outcome.d1, outcome.d2)]
    return bell_state(kind, 2.0 * phi)


_MIXED = DensityMatrix(np.eye(4, dtype=np.complex128) / 4.0, two_qubit_tag())


def _result(
    outcome: OutcomeLabel,
    prob: float,
    amps: np.ndarray | None,
    phi: float,
    leaked: float,
    record_x: float | None = None,
) -> ProtocolResult:
    """The outcome's atomic amplitudes amps, corrected, with their fidelity
    to the Bell target; below _DEGENERATE_PROB the atoms are left maximally
    mixed with fidelity NaN, and amps is not read."""
    kind = _TARGET_KIND[(outcome.d1, outcome.d2)]
    if prob < _DEGENERATE_PROB:
        return ProtocolResult(outcome, prob, _MIXED, kind, float("nan"), leaked, record_x)
    gate = correction_gate(outcome, phi).matrix
    corrected = StateVector.normalized(gate @ amps, two_qubit_tag())
    fid = fidelity(corrected, bell_target(outcome, phi))
    post = DensityMatrix.from_pure(corrected)
    return ProtocolResult(outcome, prob, post, kind, fid, leaked, record_x)


def _readout(
    cavity: tuple[np.ndarray, np.ndarray, np.ndarray], atoms: np.ndarray
) -> tuple[dict[str, tuple[np.ndarray, float]], float]:
    """Read one cavity out on the product-basis atomic amplitudes `atoms`.
    Returns, per field sign, the unnormalized atomic amplitudes and the
    renormalized probability, and the weight leaked outside the two
    reference states."""
    _, readout, gram = cavity
    amps = readout @ atoms
    raw = [float(np.real(np.vdot(a, a))) for a in amps]
    total = raw[0] + raw[1]
    if total <= 0.0:
        raise ValueError("cavity field has no weight on the reference states")
    leaked = 1.0 - total / float(np.real(np.vdot(atoms, gram @ atoms)))
    return {"+": (amps[0], raw[0] / total), "-": (amps[1], raw[1] / total)}, leaked


def _second_cavity(
    cavity2: tuple[np.ndarray, np.ndarray, np.ndarray], s1: str, amps1: np.ndarray, p1: float
) -> list[tuple[OutcomeLabel, float, np.ndarray, float]]:
    """Cavity 2 read out on the cavity-1 branch s1 (atomic amplitudes amps1,
    probability p1): per s2 = +, -, the outcome, the joint probability
    p1*p2, the atomic amplitudes and p2.  A degenerate cavity-1 branch is
    split evenly and not read."""
    if p1 < _DEGENERATE_PROB:
        return [(OutcomeLabel(s1, s2), p1 * 0.5, amps1, 0.5) for s2 in ("+", "-")]
    branches2 = _readout(cavity2, amps1)[0]
    return [(OutcomeLabel(s1, s2), p1 * p2, amps2, p2) for s2, (amps2, p2) in branches2.items()]


def bell_outcome_table(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    engine: str = "exact",
    interaction_time: float | None = None,
) -> tuple[ProtocolResult, ProtocolResult, ProtocolResult, ProtocolResult]:
    """Deterministic enumeration of all four outcomes with ideal coherent
    discrimination in both cavities; probabilities sum to one."""
    phi = cmath.phase(alpha)
    t = revival_time(g) / 2.0 if interaction_time is None else interaction_time
    cavity1 = _cavity(alpha, g, t, cutoff.n_max, engine)
    cavity2 = _cavity(alpha * _CAVITY2_TURN, g, t, cutoff.n_max, engine)
    branches1, leaked = _readout(cavity1, coeffs.to_state().amplitudes)
    return tuple(
        _result(outcome, prob, amps, phi, leaked)
        for s1, (amps1, p1) in branches1.items()
        for outcome, prob, amps, _ in _second_cavity(cavity2, s1, amps1, p1)
    )


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

    detection='ideal' discriminates cavity 1 by coherent-state projection;
    a HomodyneConfig instead samples a quadrature record and collapses the
    atoms with the ideal projector at the recorded value.  Cavity 2 is
    always read out ideally.  The reported probability is the ideal Born
    probability of the realized outcome.
    """
    phi = cmath.phase(alpha)
    t = revival_time(g) / 2.0
    rng = sample_rng(rng_seed, shot_index)
    cavity1 = _cavity(alpha, g, t, cutoff.n_max, engine)
    cavity2 = _cavity(alpha * _CAVITY2_TURN, g, t, cutoff.n_max, engine)
    atoms = coeffs.to_state().amplitudes
    branches1, leaked = _readout(cavity1, atoms)
    record_x: float | None = None
    if isinstance(detection, HomodyneConfig):
        joint = StateVector.normalized(np.tensordot(atoms, cavity1[0], 1), tripartite_tag(cutoff))
        record_x, collapsed = homodyne_measure(joint, detection, rng)
        s1 = "+" if record_x > 0 else "-"
        amps1, p1 = collapsed.amplitudes, branches1[s1][1]
    elif detection == "ideal":
        s1 = "+" if rng.uniform() < branches1["+"][1] else "-"
        amps1, p1 = branches1[s1]
    else:
        raise ValueError("detection must be 'ideal' or a HomodyneConfig")

    branches2 = _second_cavity(cavity2, s1, amps1, p1)
    # a degenerate cavity-1 branch draws nothing more and reports (s1, +)
    k = 0 if p1 < _DEGENERATE_PROB or rng.uniform() < branches2[0][3] else 1
    outcome, prob, amps2, _ = branches2[k]
    return _result(outcome, prob, amps2, phi, leaked, record_x)


@dataclass(frozen=True)
class TimingCurves:
    """Per-outcome fidelity and probability as the interaction time of both
    cavities sweeps through a window around t_r/2."""

    times: np.ndarray
    fidelities: dict[OutcomeLabel, np.ndarray]
    probabilities: dict[OutcomeLabel, np.ndarray]


def timing_sensitivity(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    t_window: np.ndarray,
    engine: str = "exact",
) -> TimingCurves:
    """Run the ideal protocol at each interaction time in t_window, keeping
    the measurement reference states fixed at their nominal targets."""
    times = np.asarray(t_window, dtype=np.float64)
    fids = {o: np.empty(times.size) for o in ALL_OUTCOMES}
    probs = {o: np.empty(times.size) for o in ALL_OUTCOMES}
    for k, t in enumerate(times):
        for res in bell_outcome_table(
            coeffs, alpha, g, cutoff, engine=engine, interaction_time=float(t)
        ):
            fids[res.outcome][k] = res.fidelity
            probs[res.outcome][k] = res.probability
    return TimingCurves(times, fids, probs)


def quadrature_overlap(x: float, alpha_abs: float, sign: str):
    """(2/pi)^{1/4} exp(-(x +- |alpha|)^2): quadrature wavefunction
    magnitude of the coherent state with amplitude -(+-)|alpha| along the
    optimal local-oscillator phase.  The sign argument is the sign inside
    the exponent, so '+' peaks at x = -|alpha|."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    return (2.0 / math.pi) ** 0.25 * np.exp(-((np.asarray(x) + s * alpha_abs) ** 2))


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

    The record classifies the field between the two reference states, so
    each outcome mixes the ideal table entry of the right cavity-1 branch
    and, with the misclassification weight of the smeared record at the
    quadrature mean |alpha| cos(phase(alpha) - lo_phase), the entry of the
    wrong one.  The post state for each outcome is the mean over records
    classified to that sign; no sampling is involved.  At efficiency 1 and
    lo_phase = phase(alpha) the table reduces to the ideal coherent
    discrimination.  Cavity 2 is always read out ideally.
    """
    phi = cmath.phase(alpha)
    table = bell_outcome_table(coeffs, alpha, g, cutoff, engine)
    ideal = {r.outcome: r for r in table}
    leaked = table[0].leaked_weight
    q_mis = config.misclassification_probability(abs(alpha) * math.cos(phi - config.lo_phase))
    out: list[ProtocolResult] = []
    for outcome in ALL_OUTCOMES:
        misread = OutcomeLabel("-" if outcome.d1 == "+" else "+", outcome.d2)
        # records classified as d1: the true branch d1, or the other one
        # misread, each post state corrected with the gate of its true branch
        mix = ((1.0 - q_mis, ideal[outcome]), (q_mis, ideal[misread]))
        prob = sum(w * r.probability for w, r in mix)
        if prob < _DEGENERATE_PROB:
            out.append(_result(outcome, prob, None, phi, leaked))
            continue
        rho = sum(w * r.probability * r.post_state.matrix for w, r in mix) / prob
        target = bell_target(outcome, phi).amplitudes
        fid = float(np.real(target.conj() @ rho @ target))
        out.append(
            ProtocolResult(
                outcome,
                prob,
                DensityMatrix(rho, two_qubit_tag()),
                _TARGET_KIND[(outcome.d1, outcome.d2)],
                fid,
                leaked,
            )
        )
    return (out[0], out[1], out[2], out[3])


@lru_cache(maxsize=4)
def _quadrature_basis(span: float, dim: int, lo_phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature grid on [-span, span] and the rotated Fock wavefunctions
    e^{-i lo_phase n} h_n(x) there, shared by repeated shots on one state."""
    xs = np.linspace(-span, span, _QUADRATURE_POINTS)
    bras = np.exp(-1j * lo_phase * np.arange(dim))[:, None] * hermite_functions(xs, dim)
    for arr in (xs, bras):
        arr.flags.writeable = False
    return xs, bras


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
    dims = state.space.dims
    if len(dims) != 3 or dims[0] != 2 or dims[1] != 2:
        raise ValueError("expected a two-qubit + field state")
    nf = dims[2]
    mat = state.amplitudes.reshape(4, nf)

    populations = np.sum(np.abs(mat) ** 2, axis=0)
    nbar = float(np.dot(populations, np.arange(nf)))
    xs, bras = _quadrature_basis(math.sqrt(max(nbar, 0.0)) + 5.0, nf, cfg.lo_phase)
    amps = mat @ bras
    pdf = np.sum(np.abs(amps) ** 2, axis=0)

    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, rng.uniform()))
    idx = min(idx, xs.size - 1)
    x_true = float(xs[idx])

    x_rec = x_true
    if cfg.smear_variance > 0.0:
        x_rec += float(rng.normal(0.0, math.sqrt(cfg.smear_variance)))

    collapsed = StateVector.normalized(amps[:, idx], two_qubit_tag())
    return x_rec, collapsed
