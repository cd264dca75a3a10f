"""Every exported name resolves: no __all__ names code that is gone."""

import importlib

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


@pytest.mark.parametrize("name", ["dicke2p.protocols", "dicke2p.analysis"])
def test_caches_are_bounded(name):
    """Every lru_cache of the modules that cache per input has a finite
    maxsize, so no cache grows with the inputs it has seen."""
    module = importlib.import_module(name)
    caches = {k: v for k, v in vars(module).items() if hasattr(v, "cache_info")}
    assert [k for k, v in caches.items() if v.cache_info().maxsize is None] == []
    if name == "dicke2p.protocols":
        required = {"_cavity", "_ideal_law", "_homodyne_law", "_quadrature_map", "_measure_law"}
        assert required <= caches.keys()
