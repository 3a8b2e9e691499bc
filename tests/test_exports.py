import importlib
import pkgutil

import congruent


def test_every_exported_name_exists():
    modules = [info.name for info in pkgutil.iter_modules(congruent.__path__)]
    assert "conics" in modules
    for name in modules:
        module = importlib.import_module(f"congruent.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
