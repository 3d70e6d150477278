import doctest
import importlib
import inspect
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
    # a module with an example runs it, so none drops out unseen
    assert result.attempted > 0 or ">>> " not in inspect.getsource(module)
