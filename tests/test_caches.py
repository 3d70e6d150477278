"""Every memo table in the package is bounded, above the working set of the
runs it serves; a per-cut memo that no run reads again once it moves on
holds the one cut in hand."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import mfl
from mfl import coherence, flagideal, matchfield, permcomb, quadideal, tableaux, theoremsets
from mfl.suites import run_suite, run_tableaux, run_theorem_a


def _caches():
    # every module of the package, so that a new one is checked too
    for _, name, _ in pkgutil.iter_modules(mfl.__path__):
        module = importlib.import_module(f"mfl.{name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                yield f"{name}.{attr}", obj


def test_every_cache_is_bounded():
    caches = dict(_caches())
    assert "tableaux._bijection_table" in caches
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name
    # the six rows of test_bounds_cover_working_sets, plus
    # oracle._fibers, oracle.quadratic_relations,
    # flagideal._flag_ideal, flagideal._theorem_a_cuts and
    # tableaux._bijection_table
    assert len(caches) == 11, sorted(caches)


def test_no_module_level_family_dict():
    assert not hasattr(theoremsets, "_family_cache")
    assert theoremsets.family_masks(5, 2) is theoremsets.family_masks(5, 2)


def test_per_call_helpers_carry_no_cache():
    # the monomial-map image is read once per variable by cached callers,
    # and each distinct Theorem A layout once per n; the weight matrix and
    # |Z_n| cost microseconds to build, and a chain end's Bruhat up-set is
    # at most two ANDs of alive masks, one per descent
    assert not hasattr(matchfield.image_code, "cache_info")
    assert not hasattr(flagideal._block_layout, "cache_info")
    assert not hasattr(coherence.weight_matrix, "cache_info")
    assert not hasattr(permcomb.zero_family_size, "cache_info")
    assert not hasattr(permcomb.bruhat_up_set, "cache_info")


@pytest.mark.parametrize(
    "cached, working_set",
    [
        # the tableaux suite reads n = 3..8, and an alive-mask build at n
        # reads n - 1, so it keeps n = 1..8
        (permcomb._alive_masks, 8),
        # the families up to n = 8 (the slow tests) build n = 1..8
        (theoremsets._families, 8),
        # the census and the slow fiber tests split the blocks of n = 3..8
        (quadideal._degree_blocks, 6),
        # the census folds all cuts of n = 3..7 from one table per n, and a
        # verify run those of n = 3..6, in several suites
        (quadideal._fiber_table, 5),
        (quadideal._fiber_folds, 5),
        # a tableaux suite to n = 8 builds each n's level, with its
        # chains, once
        (tableaux._level, 6),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_bounds_cover_working_sets(cached, working_set):
    assert cached.cache_info().maxsize >= working_set


def test_tableaux_suite_evicts_nothing():
    per_n = (permcomb._alive_masks, tableaux._level)
    for cached in per_n + (tableaux._bijection_table,):
        cached.cache_clear()
    assert run_tableaux(5).ok
    for cached in per_n:
        info = cached.cache_info()
        assert info.misses > 0 and info.currsize == info.misses, cached.__name__
    # one table per cut of n = 3..5, built once and held until the next
    info = tableaux._bijection_table.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (12, 1, 1)


def test_bijection_report_reads_the_cut_table():
    # the suite writes a report only after the failing mask of its cut
    tableaux._bijection_table.cache_clear()
    tableaux.bijection_failing_mask(4, 1)
    tableaux.verify_bijection(4, 1, (3, 1, 2, 4))
    info = tableaux._bijection_table.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_verify_folds_each_n_once():
    quadideal._fiber_table.cache_clear()
    quadideal._fiber_folds.cache_clear()
    theoremsets._families.cache_clear()
    assert run_suite("all").ok
    # theoremB, P, theoremC, a1_rank and the family build (at n = 3) read
    # the 18 cuts of n = 3..6, and theoremA all cuts of n = 3, 4 at once,
    # 74 times in all; all cuts of one n are folded together from one table
    info = quadideal._fiber_folds.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert info.hits + info.misses == 74
    info = quadideal._fiber_table.cache_info()
    assert (info.misses, info.currsize) == (4, 4)


def test_theorem_a_decides_each_n_once():
    # all cuts of one n are decided together, and only the n in hand is held
    flagideal._theorem_a_cuts.cache_clear()
    assert run_theorem_a(5, cap=5).ok
    info = flagideal._theorem_a_cuts.cache_info()
    assert (info.misses, info.hits, info.currsize, info.maxsize) == (3, 9, 1, 1)


def test_no_family_masks_at_import():
    code = (
        "import mfl.cli, mfl.theoremsets as t, mfl.permcomb as p, "
        "mfl.quadideal as q, mfl.oracle as o; "
        "assert t._families.cache_info().currsize == 0; "
        "assert p._alive_masks.cache_info().currsize == 0; "
        "assert q._degree_blocks.cache_info().currsize == 0; "
        "assert q._fiber_table.cache_info().currsize == 0; "
        "assert q._fiber_folds.cache_info().currsize == 0; "
        "assert o._fibers.cache_info().currsize == 0"
    )
    src = pathlib.Path(theoremsets.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.slow
def test_tableaux_suite_n7_builds_each_chain_once_slow(monkeypatch):
    # _level builds its chains unchecked, through _min_chain2
    calls = []
    real = tableaux._min_chain2

    def counted(n, columns):
        calls.append(n)
        return real(n, columns)

    monkeypatch.setattr(tableaux, "_min_chain2", counted)
    tableaux._level.cache_clear()
    assert run_tableaux(7).ok
    # one chain per two-column tableau with 3 <= n <= 7
    assert len(calls) == 8283
