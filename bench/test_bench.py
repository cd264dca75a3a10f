"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py

The count test makes two traced repetitions of every workload, about a
minute and a half on a 2-core machine.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import run
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent

# Counts a later change may cite as evidence; they must repeat exactly.
EXACT_COUNTS = {
    "hierarchy": ("dynamics.eigh.dim3_sum", "models.dense_bytes",
                  "dynamics.evolve_exact_many.amplitudes", "cli.bytes_written"),
    "revival": ("dynamics.eigh.dim3_sum", "models.dense_bytes",
                "dynamics.evolve_exact_many.amplitudes", "analysis.wigner.grid_points",
                "cli.bytes_written"),
    "bell": ("dynamics.eigh.dim3_sum", "models.dense_bytes",
             "protocols.evolutions_per_shot", "protocols.evolutions_per_homodyne_shot",
             "protocols.hermite_builds_per_shot", "protocols.coherent_states_per_shot"),
}


def _traced_counts(tmp_path, workload: str, seed: int) -> dict:
    session = run.Session(workload, seed, tmp_path / f"{workload}-{seed}")
    traced = session.spawn("trace")
    assert "error" not in traced, traced.get("error")
    assert traced["failed"] == 0, traced["failures"]
    summ = summarize(traced["dir"] / "trace.npz")
    return run.layer_metrics(list(EXACT_COUNTS[workload]), summ, traced, traced)


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_counts_repeat_exactly_at_a_fixed_seed(tmp_path, workload):
    first = _traced_counts(tmp_path / "a", workload, 3)
    second = _traced_counts(tmp_path / "b", workload, 3)
    assert first == second
    assert all(v > 0 for v in first.values()), first


def test_tracing_covers_every_binding_site_and_keeps_caches():
    # Three traced shots in a fresh interpreter, so the wrapping never leaks
    # into the test process.
    script = textwrap.dedent(f"""
        import json, math, sys
        sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]
        from tracer import Tracer, install
        tracer = Tracer()
        sites = install(tracer)
        import dicke2p
        from dicke2p import protocols
        from dicke2p.hilbert import AtomCoeffs, FockCutoff
        cut = FockCutoff.for_mean_photon(10.0)
        coeffs = AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)
        alpha = math.sqrt(10.0)
        for i in range(3):
            dicke2p.run_bell_protocol(coeffs, alpha, -0.002, cut, shot_index=i)
        info = protocols._w_operator.cache_info()
        op = protocols._w_operator(-0.002, cut.n_max)
        print(json.dumps({{
            "sites": sites,
            "names": tracer.names,
            "cache": [info.hits, info.misses],
            "eig_cached": getattr(op, "_eig", None) is not None,
        }}))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    sites = got["sites"]
    for site in ("dynamics.evolve_exact", "protocols.evolve_exact", "dicke2p.evolve_exact"):
        assert sites[site] == "dynamics.evolve_exact"
    assert sites["scans.evolve_exact_many"] == "dynamics.evolve_exact_many"
    names = got["names"]
    assert names.count("protocols.run_bell_protocol") == 3
    assert names.count("dynamics.evolve_exact") == 6  # two per ideal shot
    assert names.count("dynamics.eigh") == 1  # the spectrum stays cached
    assert names.count("models.two_photon_w") == 1
    # one miss on the first shot, hits for the other calls
    assert got["cache"][1] == 1 and got["cache"][0] > 0
    assert got["eig_cached"]


def test_self_time_subtracts_direct_children(tmp_path):
    tracer = Tracer()
    tracer.names += ["a.outer", "b.inner", "b.inner", "a.outer"]
    tracer.start += [0.0, 1.0, 4.0, 10.0]
    tracer.end += [6.0, 3.0, 5.0, 11.0]
    tracer.parent += [-1, 0, 0, -1]
    tracer.counters["b.inner.work"] += 7
    tracer.slices["second"] = (3, 4, 1)
    tracer.save(tmp_path / "t.npz")
    summ = summarize(tmp_path / "t.npz")
    assert summ["spans"]["a.outer"] == {"calls": 2, "self_s": 4.0}
    assert summ["spans"]["b.inner"] == {"calls": 2, "self_s": 3.0}
    assert summ["root_s"] == 7.0
    assert summ["counters"] == {"b.inner.work": 7.0}
    assert summ["slices"]["second"]["calls"]["a.outer"] == 1
    assert summ["slices"]["second"]["ops"] == 1


def test_binomial_check_accepts_exact_counts_and_flags_a_shift():
    from workloads import _binomial_outliers

    probs = {"x": 0.7, "y": 0.3}
    assert _binomial_outliers({"x": 700, "y": 300}, probs, 1000, 1e-4) == []
    assert len(_binomial_outliers({"x": 600, "y": 400}, probs, 1000, 1e-4)) == 2
