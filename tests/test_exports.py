import importlib
import pkgutil

import pytest

import nsasym

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsasym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"nsasym.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_listed_by_their_module():
    exported = {name: obj.__module__ for name, obj in vars(nsasym).items()
                if not name.startswith("_")
                and (getattr(obj, "__module__", None) or "").startswith("nsasym.")}
    assert exported
    unlisted = [name for name, home in exported.items()
                if name not in importlib.import_module(home).__all__]
    assert unlisted == []
