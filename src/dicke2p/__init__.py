"""Two-atom two-photon cavity dynamics and coherent-state Bell protocols."""

from .hilbert import (
    AtomCoeffs,
    FockCutoff,
    StateVector,
    bell_state,
    coherent_state,
    tensor,
)
from .models import (
    EffectiveModelParams,
    FullModelParams,
    effective_coupling,
    validity_report,
)
from .dynamics import (
    analytic_state,
    rabi_see_analytic,
    revival_time,
)
from .analysis import (
    DensityMatrix,
    fidelity,
    wigner,
)
from .protocols import (
    HomodyneConfig,
    OutcomeLabel,
    ProtocolResult,
    bell_outcome_table,
    correction_gate,
    ghz_input,
    ghz_target,
    homodyne_outcome_table,
    run_bell_protocol,
    run_ghz,
)

__version__ = "0.1.0"

__all__ = [
    "AtomCoeffs",
    "FockCutoff",
    "StateVector",
    "bell_state",
    "coherent_state",
    "tensor",
    "EffectiveModelParams",
    "FullModelParams",
    "effective_coupling",
    "validity_report",
    "analytic_state",
    "rabi_see_analytic",
    "revival_time",
    "DensityMatrix",
    "fidelity",
    "wigner",
    "HomodyneConfig",
    "OutcomeLabel",
    "ProtocolResult",
    "bell_outcome_table",
    "correction_gate",
    "ghz_input",
    "ghz_target",
    "homodyne_outcome_table",
    "run_bell_protocol",
    "run_ghz",
    "__version__",
]
