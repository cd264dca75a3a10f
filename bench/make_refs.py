"""Regenerate bench/refs.npz, the stored outputs the benchmark checks against.

    python3 bench/make_refs.py

Run it only when a change is meant to alter dicke2p's numbers, and say so
in the change.  The references cover the seed-dependent outputs at
workloads.REFERENCE_SEEDS and the seed-independent ones once.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from dicke2p import protocols, scans  # noqa: E402
from dicke2p.hilbert import AtomCoeffs, FockCutoff  # noqa: E402


def main() -> None:
    refs = {}
    for seed in wl.REFERENCE_SEEDS:
        refs[f"hierarchy_seed{seed}"] = scans.fidelity_scan(
            nbars=wl.HIERARCHY_NBARS, ensemble=wl.HIERARCHY_ENSEMBLE, seed=seed,
            time_points=wl.HIERARCHY_TIME_POINTS).rows
        refs[f"bell_ensemble_seed{seed}"] = scans.bell_ensemble(
            nbars=(int(wl.NBAR),), ensemble=wl.BELL_TABLE_ENSEMBLE, seed=seed).rows

    refs["rabi"] = scans.rabi_curve(wl.NBAR, wl.G, 1.2, wl.RABI_POINTS).rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panels = scans.wigner_panels(wl.NBAR, 2.0 * math.pi / 3.0, wl.G, wl.WIGNER_GRID)
    for label in wl.WIGNER_LABELS:
        sub, proj, _ = wl.wigner_digest(panels[label].rows[:, 2])
        refs[f"wigner_{label}_sub"] = sub
        refs[f"wigner_{label}_proj"] = proj

    cut = FockCutoff.for_mean_photon(wl.NBAR)
    alpha = math.sqrt(wl.NBAR) * np.exp(1j * wl.PHI)
    coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
    cfg = protocols.HomodyneConfig(lo_phase=wl.PHI, efficiency=0.5)
    for key, table in (
        ("bell_ideal_table", protocols.bell_outcome_table(coeffs, alpha, wl.G, cut)),
        ("bell_homodyne_table", protocols.homodyne_outcome_table(coeffs, alpha, wl.G, cut, cfg)),
    ):
        if [str(r.outcome) for r in table] != list(wl.OUTCOME_NAMES):
            raise SystemExit(f"{key}: outcome order changed")
        refs[key] = np.array([[r.probability, r.fidelity] for r in table])
    refs["bell_timing"] = scans.bell_timing(points=wl.BELL_TIMING_POINTS).rows

    np.savez_compressed(wl.REFS_PATH, **refs)
    print(f"wrote {len(refs)} arrays to {wl.REFS_PATH.name}")


if __name__ == "__main__":
    main()
