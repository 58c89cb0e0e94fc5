import importlib
import pkgutil

import pytest

import qschur

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(qschur.__path__, "qschur.")
    if info.name != "qschur.__main__"
)


@pytest.mark.parametrize("name", ["qschur", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def test_the_walk_sees_the_modules():
    assert "qschur.suites" in MODULES and "qschur.laurent" in MODULES
