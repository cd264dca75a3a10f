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
