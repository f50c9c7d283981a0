"""Every package that loads its exports on first access (PEP 562) keeps
its ``_LAZY`` map, its ``__all__`` and its ``__getattr__`` in step: a
typo in one would otherwise surface only when a user touches that
name."""

import importlib

import pytest

LAZY_PACKAGES = ["repro.apps", "repro.bench", "repro.faults", "repro.ga",
                 "repro.obs"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve(name):
    package = importlib.import_module(name)
    assert callable(package.__dict__.get("__getattr__"))
    missing = sorted(set(package._LAZY) - set(package.__all__))
    assert not missing, f"_LAZY names outside __all__: {missing}"
    for export in package.__all__:
        getattr(package, export)
    with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_name'"):
        getattr(package, "no_such_name")
