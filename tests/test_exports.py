import importlib
import pkgutil

import pytest

import abelcodes

MODULES = [abelcodes] + [
    importlib.import_module(f"abelcodes.{info.name}")
    for info in pkgutil.iter_modules(abelcodes.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves_and_is_listed_once(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(names) == len(set(names))
