import doctest

import pytest

import mfl.exactla
import mfl.matchfield
import mfl.permcomb
import mfl.quadideal
import mfl.tableaux
import mfl.theoremsets
import per_w_reference

MODULES = [
    mfl.permcomb,
    mfl.matchfield,
    mfl.quadideal,
    mfl.tableaux,
    mfl.theoremsets,
    mfl.exactla,
    per_w_reference,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    if module in (mfl.permcomb, mfl.matchfield, per_w_reference):
        assert result.attempted > 0
