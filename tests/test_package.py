"""Package surface: each module's ``__all__`` is exactly its public API, and
its records are NamedTuples."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import jwalk
from jwalk import arc_engine
from jwalk.johnson import graph_params

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


def _defined_classes():
    return [(module.__name__, obj) for module in MODULES for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__]


def test_no_class_is_a_dataclass():
    # a dataclass execs its generated methods when its module is imported;
    # the records are NamedTuples, whose methods are shared
    classes = _defined_classes()
    assert len(classes) >= 13
    assert [f"{name}.{cls.__name__}" for name, cls in classes
            if dataclasses.is_dataclass(cls)] == []


RECORDS = [cls for _, cls in _defined_classes() if issubclass(cls, tuple)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(record):
    # attributes cannot be set, and records compare and hash by value
    values = range(len(record._fields))
    first, second = record(*values), record(*values)
    with pytest.raises(AttributeError):
        setattr(first, record._fields[0], -1)
    with pytest.raises(AttributeError):
        first.extra = -1
    assert first == second and hash(first) == hash(second)
    changed = first._replace(**{record._fields[-1]: -1})
    assert changed != first and tuple(changed) == (*values[:-1], -1)


def test_graph_params_keys_the_pair_block_cache():
    # an equal GraphParams built apart finds the cached pair block
    index = arc_engine._pair_block(graph_params(9, 3), 5)
    hits = arc_engine._pair_block.cache_info().hits
    assert arc_engine._pair_block(graph_params(9, 3), 5) is index
    assert arc_engine._pair_block.cache_info().hits == hits + 1
    n, k, num_vertices, degree, num_arcs = graph_params(9, 3)
    assert (n, k, num_vertices, degree, num_arcs) == (9, 3, 84, 18, 1512)
