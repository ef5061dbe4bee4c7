"""Every name a monolab module lists in ``__all__`` exists, so a star import
of any module works."""

import importlib
import pkgutil

import monolab


def test_every_exported_name_resolves():
    names = ["monolab"] + [info.name for info in
                           pkgutil.walk_packages(monolab.__path__, "monolab.")]
    assert "monolab.solutions.grids" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
