"""Every exported name resolves: no __all__ names code that is gone."""

import importlib
import inspect

import pytest

MODULES = ("dicke2p",) + tuple(
    f"dicke2p.{m}" for m in ("hilbert", "models", "dynamics", "analysis", "protocols", "scans", "cli")
)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES)
def test_caches_are_bounded(name):
    """Every lru_cache of every module has a finite maxsize, so no cache
    grows with the inputs it has seen; an unbounded cache is allowed only
    on a function of no parameters, which holds one entry."""
    module = importlib.import_module(name)
    caches = {k: v for k, v in vars(module).items() if hasattr(v, "cache_info")}
    unbounded = [k for k, v in caches.items() if v.cache_info().maxsize is None]
    assert [k for k in unbounded if inspect.signature(caches[k]).parameters] == []
    if name == "dicke2p.protocols":
        required = {"_cavity", "_ideal_law", "_homodyne_law", "_measure_law"}
        assert required <= caches.keys()
