import importlib
import pkgutil

import pytest

import olacsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(olacsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but still listed in its __all__ breaks `from olacsim.<module> import *`
    module = importlib.import_module(f"olacsim.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
