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
