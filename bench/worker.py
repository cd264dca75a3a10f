"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE RESULT_JSON

MODE is `setup` (import dicke2p and make the inputs, then stop), `run`
(also run the workload, untraced, and check its outputs) or `trace` (the
same under the span tracer, whose spans go to trace.npz next to
RESULT_JSON).  A fresh process per repetition keeps caches such as
`protocols._w_operator` and the eigendecomposition stored on an `Operator`
from carrying one repetition's work into the next, as for a CLI user.
"""

import sys
import time


def main() -> int:
    workload, seed, mode, result_path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    sys.path.insert(0, str(src))
    import dicke2p
    import dicke2p.cli
    import dicke2p.scans

    if src.resolve() not in Path(dicke2p.__file__).resolve().parents:
        print(f"dicke2p imported from {dicke2p.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Result

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    wl = WORKLOADS[workload]
    workdir = Path(result_path).parent
    inp = wl.setup(dicke2p, seed, workdir)
    out = {"t_first": time.perf_counter()}
    if mode != "setup":
        raw = wl.run(dicke2p, inp, tracer)
        import resource

        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(workdir / "trace.npz")
        res = Result()
        wl.check(inp, raw, res)
        out.update(timings=res.timings, attempted=res.attempted, failed=res.failed,
                   failures=res.failures[:20], counters=res.counters)

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
