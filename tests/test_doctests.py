import doctest
import importlib
import pkgutil

import pytest

import mask_oracle
import mfl
import per_w_reference

# every module of the package, so that a new one is run too
MODULES = [
    importlib.import_module(f"mfl.{name}")
    for _, name, _ in pkgutil.iter_modules(mfl.__path__)
] + [per_w_reference, mask_oracle]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    if module.__name__ in (
        "mfl.permcomb", "mfl.matchfield", "mfl.tableaux", "per_w_reference", "mask_oracle"
    ):
        assert result.attempted > 0
