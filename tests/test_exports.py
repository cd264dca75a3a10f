"""Every exported name resolves: no __all__ names code that is gone."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

MODULES = ("dicke2p",) + tuple(
    f"dicke2p.{m}" for m in ("hilbert", "models", "dynamics", "analysis", "protocols", "scans", "cli")
)
SOURCES = sorted(Path(importlib.import_module("dicke2p").__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Every name a module of the package imports is read in it or
    exported by its __all__, so a deletion leaves no stale import behind.
    A submodule import such as `import numpy.random` counts as used."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name for a in node.names if a.asname or "." not in a.name}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"dicke2p.{path.stem}".removesuffix(".__init__"))
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []
