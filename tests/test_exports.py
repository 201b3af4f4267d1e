import importlib
import pkgutil

import pytest

import blowuplab

# every module of the package that declares its public names
LAYERS = [
    mod
    for mod in (importlib.import_module(f"blowuplab.{info.name}") for info in pkgutil.iter_modules(blowuplab.__path__))
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("module", LAYERS, ids=lambda mod: mod.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


CORE = [importlib.import_module(f"blowuplab.{name}") for name in ("bound_engine", "experiments", "exponents", "solver")]


def test_package_exports_exactly_the_core_modules_all():
    # the four lists are disjoint, and the package exports exactly their union
    union = {name for module in CORE for name in module.__all__}
    assert len(union) == sum(len(module.__all__) for module in CORE)
    homes = {module.__name__ for module in CORE}
    from_core = {name for name, obj in vars(blowuplab).items() if getattr(obj, "__module__", None) in homes}
    assert from_core == union
