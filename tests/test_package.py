"""Package surface: each module's ``__all__`` is exactly its public API."""

import importlib
import inspect
import pkgutil

import pytest

import jwalk

MODULES = [importlib.import_module(f"jwalk.{info.name}")
           for info in pkgutil.iter_modules(jwalk.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_all_lists_every_public_definition(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {name for name, obj in vars(module).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__ and not name.startswith("_")}
    assert sorted(defined - set(module.__all__)) == []


def test_package_all_resolves():
    assert {module.__name__ for module in EXPORTING} >= {
        "jwalk.arc_engine", "jwalk.johnson", "jwalk.reduced", "jwalk.reports",
        "jwalk.spectral", "jwalk.validation"}
    assert [name for name in jwalk.__all__ if not hasattr(jwalk, name)] == []
