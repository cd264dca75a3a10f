"""In-memory span tracer for the benchmark's traced run.

`install` wraps every public function of each dicke2p module, under every
name that binds it (home module, importing modules and the package), plus
the `__post_init__` of the validated containers and `numpy.linalg.eigh`.
Each call records one span (name, start, end, parent).  Spans stay in
memory until `save` writes them out when the run ends; `summarize` turns a
saved trace into per-layer calls, self times and counts.

Wrapping replaces module attributes only: arguments, return values,
instances and the package's own caches (`protocols._w_operator`, the
eigendecomposition stored on an `Operator`) are passed through untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("hilbert", "models", "dynamics", "analysis", "protocols", "scans", "cli")

# Containers whose construction validates its input.
VALIDATED_CLASSES = {"hilbert": ("StateVector", "Operator"), "analysis": ("DensityMatrix",)}


def _dense_bytes(counters, out):
    counters["models.dense_bytes"] += 16 * out.dim * out.dim


def _amplitudes(counters, out):
    counters["dynamics.evolve_exact_many.amplitudes"] += out.size


def _grid_points(counters, out):
    counters["analysis.wigner.grid_points"] += out.values.size


# Work counts derived from array sizes; they repeat exactly at a fixed seed.
METERS = {
    "models.full_hamiltonian": _dense_bytes,
    "models.two_photon_w": _dense_bytes,
    "dynamics.evolve_exact_many": _amplitudes,
    "analysis.wigner": _grid_points,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: Counter = Counter()
        # label -> (first span, end span, operations) of a marked slice
        self.slices: dict[str, tuple[int, int, int]] = {}
        self._stack: list[int] = []

    def _call(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, meter=None):
        call, counters = self._call, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = call(name, fn, args, kwargs)
            if meter is not None:
                meter(counters, out)
            return out

        return traced

    def wrap_eigh(self, eigh):
        """numpy.linalg.eigh, named after the layer of the span that called
        it (dynamics.eigh for the exact engine), with the sum of dim^3."""
        call, counters, names, stack = self._call, self.counters, self.names, self._stack

        @functools.wraps(eigh)
        def traced(a, *args, **kwargs):
            layer = names[stack[-1]].split(".", 1)[0] if stack else "numpy"
            out = call(f"{layer}.eigh", eigh, (a, *args), kwargs)
            counters[f"{layer}.eigh.dim3_sum"] += int(np.shape(a)[-1]) ** 3
            return out

        return traced

    def mark(self) -> int:
        """Index of the next span; slices of a run are marked with it."""
        return len(self.names)

    def save(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            table=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            counters_keys=np.array(list(self.counters), dtype=str),
            counters_vals=np.array(list(self.counters.values()), dtype=np.float64),
            **{f"slice_{k}": np.array(v, dtype=np.int64) for k, v in self.slices.items()},
        )


def install(tracer: Tracer) -> dict[str, str]:
    """Wrap dicke2p's public functions at every binding site.

    Returns {binding site: span name}, e.g. {"protocols.evolve_exact":
    "dynamics.evolve_exact"}, for inspection and tests.
    """
    package = importlib.import_module("dicke2p")
    modules = {m: importlib.import_module(f"dicke2p.{m}") for m in LAYERS}

    wrapped: dict[int, tuple[object, object, str]] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, METERS.get(name)), name)

    sites: dict[str, str] = {}
    for site_name, mod in [("dicke2p", package), *modules.items()]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                sites[f"{site_name}.{attr}"] = hit[2]

    for short, classes in VALIDATED_CLASSES.items():
        for cls_name in classes:
            cls = getattr(modules[short], cls_name)
            cls.__post_init__ = tracer.wrap(f"{short}.{cls_name}", cls.__post_init__)
            sites[f"{short}.{cls_name}.__post_init__"] = f"{short}.{cls_name}"

    np.linalg.eigh = tracer.wrap_eigh(np.linalg.eigh)
    sites["numpy.linalg.eigh"] = "<caller layer>.eigh"
    return sites


def summarize(path) -> dict:
    """Per-name calls and self seconds, counters and marked slices of a
    saved trace.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced run is single-threaded.
    """
    with np.load(path) as z:
        table = [str(n) for n in z["table"]]
        name, start, end, parent = z["name"], z["start"], z["end"], z["parent"]
        counters = dict(zip((str(k) for k in z["counters_keys"]), z["counters_vals"].tolist()))
        extra = {k: z[k] for k in z.files if k.startswith("slice_")}
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    calls = np.bincount(name, minlength=len(table))
    selfs = np.bincount(name, weights=self_s, minlength=len(table))
    spans = {
        n: {"calls": int(calls[i]), "self_s": float(selfs[i])} for i, n in enumerate(table)
    }
    slices = {}
    for key, (lo, hi, ops) in extra.items():
        names_in = np.bincount(name[int(lo):int(hi)], minlength=len(table))
        slices[key.removeprefix("slice_")] = {
            "ops": int(ops),
            "calls": {n: int(names_in[i]) for i, n in enumerate(table)},
        }
    return {
        "spans": spans,
        "counters": counters,
        "slices": slices,
        "root_s": float(dur[~has_parent].sum()),
        "n_spans": int(name.size),
    }
