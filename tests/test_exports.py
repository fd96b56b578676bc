import importlib
import pkgutil

import tailbayes


def test_every_exported_name_resolves():
    """Each name in the ``__all__`` of the package or of one of its modules is defined there, so ``import *`` works."""
    modules = [tailbayes] + [
        importlib.import_module(f"tailbayes.{info.name}") for info in pkgutil.iter_modules(tailbayes.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
