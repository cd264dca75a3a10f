"""dicke2p benchmark.

    python3 bench/run.py --workload {hierarchy,revival,bell} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; dicke2p is imported from src/.
Every repetition runs in a fresh interpreter (bench/worker.py) with the
BLAS thread count pinned to the number of usable cores.

--trace 0 starts repetitions until S seconds have passed and reports the
end-to-end metrics of BENCHMARK.json: medians over the repetitions, and
for setup_s over the repetitions plus set-up-only starts between them.  --trace 1 makes one untraced repetition and one
traced one (hierarchy adds a traced one with BLAS pinned to one thread)
and reports the per-layer metrics.  Either way the outputs are checked;
`failed` counts operations that raised or failed a check, and
failed/attempted is the run's failed-operation fraction.

Every metric is printed by name with its unit, then one line of machine
information, then the result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
# Set-up-only starts before each repetition and after the last; spreading
# them over the run keeps a minute-scale swing in machine speed from
# landing on all set-up samples at once.
SETUP_STARTS_PER_GAP = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BELL_RATES = ("ideal_shots_per_s", "homodyne_shots_per_s", "tables_per_s",
              "timing_points_per_s", "shot_ms_p50", "shot_ms_p99")


class Session:
    """Spawns repetitions into a scratch directory and keeps the clock."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.t_start = time.perf_counter()
        self.count = 0
        self.nproc = len(os.sched_getaffinity(0))

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def spawn(self, mode: str, threads: int | None = None) -> dict:
        """One repetition; returns the worker's result, with setup_s and,
        if the worker failed, an `error` message."""
        self.count += 1
        rep = self.scratch / f"rep{self.count}"
        rep.mkdir(parents=True)
        env = dict(os.environ, **{k: str(threads or self.nproc) for k in BLAS_ENV})
        result = rep / "result.json"
        cmd = [sys.executable, str(WORKER), self.workload, str(self.seed), mode, str(result)]
        t0 = time.perf_counter()
        with open(rep / "stderr.txt", "wb") as err:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                      cwd=rep, timeout=max(1.0, DEADLINE_S - self.elapsed()))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result.exists():
            tail = (rep / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            return {"error": f"{mode} worker exited with {code}: {' | '.join(tail)}"}
        out = json.loads(result.read_text())
        out["setup_s"] = out["t_first"] - t0
        out["dir"] = rep
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def tally(reps: list[dict], ops_per_rep: int) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages: list[str] = []
    for r in reps:
        if "error" in r:
            attempted += ops_per_rep
            failed += ops_per_rep
            messages.append(r["error"])
        else:
            attempted += r["attempted"]
            failed += r["failed"]
            messages += r["failures"]
    return attempted, failed, messages


def end_to_end(s: Session, seconds: float, ops_per_rep: int):
    reps, setups = [], []
    while True:
        setups += [s.spawn("setup") for _ in range(SETUP_STARTS_PER_GAP)]
        reps.append(s.spawn("run"))
        if "error" in reps[-1] or s.elapsed() >= seconds:
            break
    setups += [s.spawn("setup") for _ in range(SETUP_STARTS_PER_GAP)]
    ok = [r for r in reps if "error" not in r]
    setup_samples = [r["setup_s"] for r in ok + setups if "error" not in r]
    metrics = {
        "setup_s": _median(setup_samples),
        "peak_rss_mb": _median([r["rss_mb"] for r in ok]),
        "scan_s": _median([r["timings"]["scan_s"] for r in ok]),
    }
    extra = {k: _median([r["timings"][k] for r in ok]) for k in (ok[0]["timings"] if ok else {})}
    extra.pop("scan_s", None)
    attempted, failed, messages = tally(reps + [r for r in setups if "error" in r], ops_per_rep)
    info = {"repetitions": len(reps), "setup_samples": len(setup_samples),
            "scan_s_each": [r["timings"]["scan_s"] for r in ok]}
    return metrics, extra, (attempted, failed, messages), info


def per_layer(s: Session, names: list[str], ops_per_rep: int):
    plain = s.spawn("run")
    traced = s.spawn("trace")
    passes = [plain, traced]
    eigh_1thread = 0.0
    if s.workload == "hierarchy":
        single = s.spawn("trace", threads=1)
        passes.append(single)
        if "error" not in single:
            spans = summarize(single["dir"] / "trace.npz")["spans"]
            eigh_1thread = spans["dynamics.eigh"]["self_s"]
    ops = tally(passes, ops_per_rep)
    if "error" in traced or "error" in plain:
        return {n: 0.0 for n in names}, ops, {}
    summ = summarize(traced["dir"] / "trace.npz")
    metrics = layer_metrics(names, summ, traced, plain)
    metrics["dynamics.eigh.self_s_1thread"] = eigh_1thread
    return metrics, ops, {"span_names": len(summ["spans"])}


def layer_metrics(names: list[str], summ: dict, traced: dict, plain: dict) -> dict:
    """Per-layer metrics of one traced repetition, with the untraced
    repetition `plain` for the overhead and the bell rates."""
    spans, slices = summ["spans"], summ["slices"]
    counters = {**summ["counters"], **traced["counters"]}
    wall = traced["timings"]["scan_s"]
    plain_wall = plain["timings"]["scan_s"]

    def per_shot(slice_name: str, span: str) -> float:
        sl = slices.get(slice_name)
        return sl["calls"].get(span, 0) / sl["ops"] if sl else 0.0

    special = {
        "protocols.evolutions_per_shot": per_shot("ideal", "dynamics.evolve_exact"),
        "protocols.evolutions_per_homodyne_shot": per_shot("homodyne", "dynamics.evolve_exact"),
        "protocols.hermite_builds_per_shot": per_shot("homodyne", "protocols.hermite_functions"),
        "protocols.coherent_states_per_shot": per_shot("ideal", "hilbert.coherent_state"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_frac": (wall - plain_wall) / plain_wall,
        "trace.coverage_frac": summ["root_s"] / wall,
        "trace.spans": summ["n_spans"],
    }
    special.update({k: plain["timings"].get(k, 0.0) for k in BELL_RATES})

    metrics = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif name in counters:
            metrics[name] = counters[name]
        elif field == "self_s" and base in LAYERS:
            metrics[name] = sum(v["self_s"] for k, v in spans.items()
                                if k.split(".", 1)[0] == base)
        elif field in ("calls", "self_s"):
            metrics[name] = spans.get(base, {field: 0})[field]
        else:
            metrics[name] = 0.0  # a count the workload never incremented
    return metrics


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "dicke2p"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": len(os.sched_getaffinity(0)),
        "blas_env_inherited": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dicke2p" / "__init__.py").is_file():
        print(f"error: no dicke2p sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    ops_per_rep = WORKLOADS[args.workload].ops_per_rep
    scratch = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    session = Session(args.workload, args.seed, scratch)
    try:
        if args.trace:
            declared = spec["per_layer"]
            metrics, ops, info = per_layer(session, [m["name"] for m in declared], ops_per_rep)
            extra = {}
        else:
            declared = spec["end_to_end"]
            metrics, extra, ops, info = end_to_end(session, args.seconds, ops_per_rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run left files there

    attempted, failed, messages = ops
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:45s} {value:>16.6g} (info)")
    print(f"{'failed_ops_frac':45s} {failed / max(attempted, 1):>16.6g} frac")
    for msg in messages[:10]:
        print(f"check failed: {msg}")
    print("info " + json.dumps({**machine_info(), "workload": args.workload,
                                "seed": args.seed, **info}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
