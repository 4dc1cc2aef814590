"""The package's star import binds its 42 public names: no module, and each
the very object that its submodule defines."""

import importlib
from types import ModuleType

import supertoroidal
from supertoroidal import fock_lattice, verifier


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from supertoroidal import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(supertoroidal.__all__)
    assert len(supertoroidal.__all__) == 42 == len(names)
    assert supertoroidal.__all__ == sorted(names)
    assert not [name for name in names if isinstance(namespace[name], ModuleType)]
    for name in names:
        obj = namespace[name]
        owner = obj.__module__
        assert owner.startswith("supertoroidal.") and owner != "supertoroidal.__init__", name
        assert getattr(importlib.import_module(owner), name) is obj, name
    assert namespace["vertex_modes"] is fock_lattice.vertex_modes
    assert namespace["CheckConfig"] is verifier.CheckConfig
