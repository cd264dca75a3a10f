"""GHZ generation, the two-cavity Bell measurement, and homodyne detection.

The protocol pipeline: evolve atoms + coherent field to half the revival
time, discriminate the field between two nearly orthogonal coherent states
(ideally or by balanced homodyne detection), repeat in a second cavity
whose field phase is advanced by pi/4, then apply a conditional one-qubit
gate.  The composed field measurements act on the atoms as the four
elements of a complete Bell-basis POVM.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import DensityMatrix, sample_rng
from .dynamics import (
    SectorSpectrum,
    coherent_branch_state,
    evolve_exact,
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
    tensor,
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
    """Balanced homodyne detector: local-oscillator phase, efficiency, and
    the quadrature grid used for sampling.  efficiency < 1 smears the ideal
    record by a Gaussian of variance (1-efficiency)/(4*efficiency)."""

    lo_phase: float
    efficiency: float = 1.0
    grid_points: int = 2001
    grid_span: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if self.grid_points < 16:
            raise ValueError("grid too small to resolve the quadrature density")

    @property
    def smear_variance(self) -> float:
        return (1.0 - self.efficiency) / (4.0 * self.efficiency)

    def misclassification_probability(self, alpha_abs: float) -> float:
        """Mass of the smeared record on the wrong side of x = 0 for a pure
        coherent input at the optimal local-oscillator phase."""
        sigma = math.sqrt(0.25 + self.smear_variance)
        return 0.5 * math.erfc(alpha_abs / (sigma * _SQRT2))


@lru_cache(maxsize=8)
def _w_operator(g: float, n_max: int) -> SectorSpectrum:
    """Sector spectrum of W, shared by every exact evolution at (g, n_max)."""
    return sector_spectrum(EffectiveModelParams(g, FockCutoff(n_max)))


def _half_revival(g: float) -> float:
    return revival_time(g) / 2.0


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


def _evolved_joint(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    t: float,
    cutoff: FockCutoff,
    engine: str,
) -> StateVector:
    if engine == "exact":
        psi0 = tensor(coeffs.to_state(), coherent_state(alpha, cutoff))
        return evolve_exact(_w_operator(g, cutoff.n_max), psi0, t)
    if engine == "analytic":
        return coherent_branch_state(coeffs, alpha, g, t).reconstruct(cutoff)
    raise ValueError(f"unknown engine {engine!r}")


def run_ghz(
    alpha: complex, phi: float, g: float, cutoff: FockCutoff, engine: str = "exact"
) -> float:
    """Fidelity of the state generated at t_r/2 from ghz_input(phi) with
    field amplitude |alpha| e^{i phi}, against ghz_target."""
    amp = abs(alpha) * cmath.exp(1j * phi)
    coeffs, _ = ghz_input(phi)
    t_half = _half_revival(g)
    psi = _evolved_joint(coeffs, amp, g, t_half, cutoff, engine)
    target = ghz_target(amp, phi, cutoff, g_sign=1 if g > 0 else -1)
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


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


def _project_coherent(
    joint: StateVector, alpha: complex, cutoff: FockCutoff
) -> tuple[np.ndarray, float]:
    """Unnormalized atomic amplitudes and probability of finding the field
    in the truncated coherent state alpha."""
    field = coherent_state(alpha, cutoff).amplitudes
    mat = joint.amplitudes.reshape(4, cutoff.dim)
    amps = mat @ field.conj()
    return amps, float(np.real(np.vdot(amps, amps)))


def _coeffs_of(atom_amps: np.ndarray) -> AtomCoeffs:
    return AtomCoeffs.from_state(StateVector.normalized(atom_amps, two_qubit_tag()))


def _mixed_result(outcome: OutcomeLabel, probability: float, leaked: float) -> ProtocolResult:
    post = DensityMatrix(np.eye(4, dtype=np.complex128) / 4.0, two_qubit_tag())
    return ProtocolResult(
        outcome,
        probability,
        post,
        _TARGET_KIND[(outcome.d1, outcome.d2)],
        float("nan"),
        leaked,
    )


def _finish_branch(
    outcome: OutcomeLabel,
    probability: float,
    atom_amps: np.ndarray,
    phi: float,
    leaked: float,
    record_x: float | None = None,
) -> ProtocolResult:
    gate = correction_gate(outcome, phi).matrix
    corrected = StateVector.normalized(gate @ atom_amps, two_qubit_tag())
    target = bell_target(outcome, phi)
    fid = float(abs(np.vdot(target.amplitudes, corrected.amplitudes)) ** 2)
    return ProtocolResult(
        outcome,
        probability,
        DensityMatrix.from_pure(corrected),
        _TARGET_KIND[(outcome.d1, outcome.d2)],
        fid,
        leaked,
        record_x,
    )


def _branches(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    t: float,
    cutoff: FockCutoff,
    engine: str,
) -> tuple[dict[str, tuple[np.ndarray, float]], float, StateVector]:
    """Evolve one cavity and project its field onto +-alpha.  Returns the
    unnormalized atomic amplitudes and renormalized branch probabilities,
    the weight leaked outside the two reference states, and the evolved
    joint state itself."""
    joint = _evolved_joint(coeffs, alpha, g, t, cutoff, engine)
    amps_p, p_raw = _project_coherent(joint, alpha, cutoff)
    amps_m, m_raw = _project_coherent(joint, -alpha, cutoff)
    total = p_raw + m_raw
    if total <= 0.0:
        raise ValueError("cavity field has no weight on the reference states")
    return (
        {"+": (amps_p, p_raw / total), "-": (amps_m, m_raw / total)},
        1.0 - total,
        joint,
    )


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
    t = _half_revival(g) if interaction_time is None else interaction_time
    branches1, leaked, _ = _branches(coeffs, alpha, g, t, cutoff, engine)
    out: list[ProtocolResult] = []
    for outcome in ALL_OUTCOMES:
        amps1, p1 = branches1[outcome.d1]
        if p1 < _DEGENERATE_PROB:
            prob = p1 * 0.5
            out.append(_mixed_result(outcome, prob, leaked))
            continue
        branches2 = _branches(_coeffs_of(amps1), alpha * _CAVITY2_TURN, g, t, cutoff, engine)[0]
        amps2, p2 = branches2[outcome.d2]
        prob = p1 * p2
        if prob < _DEGENERATE_PROB:
            out.append(_mixed_result(outcome, prob, leaked))
            continue
        out.append(_finish_branch(outcome, prob, amps2, phi, leaked))
    return tuple(out)


def run_bell_protocol(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    engine: str = "exact",
    detection: str | HomodyneConfig = "ideal",
    rng_seed: int = 0,
    shot_index: int = 0,
    interaction_time: float | None = None,
) -> ProtocolResult:
    """Sample one protocol shot.

    detection='ideal' discriminates cavity 1 by coherent-state projection;
    a HomodyneConfig instead samples a quadrature record and collapses the
    atoms with the ideal projector at the recorded value.  Cavity 2 is
    always read out ideally.  The reported probability is the ideal Born
    probability of the realized outcome.
    """
    phi = cmath.phase(alpha)
    t = _half_revival(g) if interaction_time is None else interaction_time
    rng = sample_rng(rng_seed, shot_index)

    branches1, leaked, joint = _branches(coeffs, alpha, g, t, cutoff, engine)
    record_x: float | None = None
    if isinstance(detection, HomodyneConfig):
        record_x, collapsed = homodyne_measure(joint, detection, rng)
        s1 = "+" if record_x > 0 else "-"
        amps1 = collapsed.amplitudes
        p1 = branches1[s1][1]
    elif detection == "ideal":
        p_plus = branches1["+"][1]
        s1 = "+" if rng.uniform() < p_plus else "-"
        amps1, p1 = branches1[s1]
    else:
        raise ValueError("detection must be 'ideal' or a HomodyneConfig")

    if p1 < _DEGENERATE_PROB:
        return _mixed_result(OutcomeLabel(s1, "+"), p1 * 0.5, leaked)
    branches2 = _branches(_coeffs_of(amps1), alpha * _CAVITY2_TURN, g, t, cutoff, engine)[0]
    p2_plus = branches2["+"][1]
    s2 = "+" if rng.uniform() < p2_plus else "-"
    amps2, p2 = branches2[s2]
    outcome = OutcomeLabel(s1, s2)
    prob = p1 * p2
    if prob < _DEGENERATE_PROB:
        return _mixed_result(outcome, prob, leaked)
    return _finish_branch(outcome, prob, amps2, phi, leaked, record_x)


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


def hermite_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """Quadrature-representation Fock wavefunctions h_n(x) = <x|n> for the
    convention x = (a + a^dag)/2; shape (dim, len(x)).

    Three-term recurrence with normalized functions, stable to large n.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((dim, x.size), dtype=np.float64)
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-(x**2))
    if dim > 1:
        out[1] = 2.0 * x * out[0]
    for n in range(1, dim - 1):
        out[n + 1] = (2.0 * x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


def homodyne_outcome_table(
    coeffs: AtomCoeffs,
    alpha: complex,
    g: float,
    cutoff: FockCutoff,
    config: HomodyneConfig,
    engine: str = "exact",
    interaction_time: float | None = None,
) -> tuple[ProtocolResult, ProtocolResult, ProtocolResult, ProtocolResult]:
    """Deterministic per-outcome results with balanced homodyne readout of
    cavity 1.

    The record classifies the field between the two reference states, so
    each cavity-1 sign is a mixture of the right branch and, with the
    Gaussian-overlap misclassification weight of the smeared record, the
    wrong one.  The post state for each outcome is the mean over records
    classified to that sign; no sampling is involved.  At efficiency 1 the
    table reduces to the ideal coherent discrimination.  Cavity 2 is always
    read out ideally.
    """
    phi = cmath.phase(alpha)
    t = _half_revival(g) if interaction_time is None else interaction_time
    branches1, leaked, _ = _branches(coeffs, alpha, g, t, cutoff, engine)
    q_mis = config.misclassification_probability(abs(alpha))

    # chains[σ][s2] = (corrected post state, renormalized p2) for the true
    # cavity-1 branch σ followed by an ideal cavity-2 readout
    chains: dict[str, dict[str, tuple[np.ndarray | None, float]]] = {}
    for sigma in ("+", "-"):
        amps1, p1 = branches1[sigma]
        if p1 < _DEGENERATE_PROB:
            chains[sigma] = {"+": (None, 0.5), "-": (None, 0.5)}
            continue
        branches2 = _branches(_coeffs_of(amps1), alpha * _CAVITY2_TURN, g, t, cutoff, engine)[0]
        per_s2: dict[str, tuple[np.ndarray | None, float]] = {}
        for s2 in ("+", "-"):
            amps2, p2 = branches2[s2]
            if p2 < _DEGENERATE_PROB:
                per_s2[s2] = (None, p2)
                continue
            gate = correction_gate(OutcomeLabel(sigma, s2), phi).matrix
            corrected = gate @ amps2
            corrected = corrected / math.sqrt(
                float(np.real(np.vdot(corrected, corrected)))
            )
            per_s2[s2] = (corrected, p2)
        chains[sigma] = per_s2

    out: list[ProtocolResult] = []
    for s1 in ("+", "-"):
        opposite = "-" if s1 == "+" else "+"
        for s2 in ("+", "-"):
            outcome = OutcomeLabel(s1, s2)
            rho = np.zeros((4, 4), dtype=np.complex128)
            prob = 0.0
            for sigma, w_cls in ((s1, 1.0 - q_mis), (opposite, q_mis)):
                state, p2 = chains[sigma][s2]
                weight = w_cls * branches1[sigma][1] * p2
                if state is None or weight <= 0.0:
                    rho += weight * np.eye(4) / 4.0
                else:
                    rho += weight * np.outer(state, state.conj())
                prob += weight
            if prob < _DEGENERATE_PROB:
                out.append(_mixed_result(outcome, prob, leaked))
                continue
            rho /= prob
            target = bell_target(outcome, phi).amplitudes
            fid = float(np.real(target.conj() @ rho @ target))
            out.append(
                ProtocolResult(
                    outcome,
                    prob,
                    DensityMatrix(rho, two_qubit_tag()),
                    _TARGET_KIND[(s1, s2)],
                    fid,
                    leaked,
                )
            )
    return (out[0], out[1], out[2], out[3])


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
    span = (
        cfg.grid_span
        if cfg.grid_span is not None
        else math.sqrt(max(nbar, 0.0)) + 5.0
    )
    xs = np.linspace(-span, span, cfg.grid_points)

    herm = hermite_functions(xs, nf)
    bras = np.exp(-1j * cfg.lo_phase * np.arange(nf))[:, None] * herm
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
