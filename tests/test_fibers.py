"""The fibers, their folds over S_n and the flag-ideal blocks, read off the
int-coded multidegree blocks, against the direct groupings they replace:
the fibers and folds of all cuts of n, built from one table of distinct
fibers, against the per-cut splits and folds."""

import itertools

import pytest

from initial_ideal_oracle import DegreeTwoSpace, degree2_flag_ideal
from mask_oracle import reference_block_fibers, reference_fiber_folds
from mfl import exactla
from mfl.flagideal import _FlagBlock, _flag_ideal
from mfl.permcomb import all_index_keys
from mfl.oracle import MonoKey, _fibers, _key_fibers, _mono_order, mono_key
from mfl.quadideal import _degree_blocks, _fiber_folds, _fiber_table
from per_w_reference import variable_image_key


def reference_fibers(n, ell):
    """Every degree-two monomial grouped by its sorted tuple of image cells;
    the groups of size >= 2, sorted by image, members in monomial order."""
    variables = all_index_keys(n)
    images = {v: variable_image_key(n, ell, v) for v in variables}
    groups = {}
    for a, b in itertools.combinations_with_replacement(variables, 2):
        ca, sa = images[a]
        cb, sb = images[b]
        groups.setdefault(tuple(sorted(ca + cb)), []).append((mono_key(a, b), sa * sb))
    return tuple(
        tuple(sorted(members, key=lambda ms: _mono_order(ms[0])))
        for _, members in sorted(groups.items())
        if len(members) >= 2
    )


def reference_incidence_relations(n):
    """The incidence Pluecker relations in degree two, as (multidegree, row
    keyed by monomial); terms with a repeated index vanish, repeated
    monomials are merged, and zero coefficients are left to ``rref``."""
    for p in range(1, n):
        for q in range(p, n):
            for lower in itertools.combinations(range(1, n + 1), p - 1):
                for upper in itertools.combinations(range(1, n + 1), q + 1):
                    row: dict[MonoKey, int] = {}
                    for k, j in enumerate(upper):
                        if j in lower:
                            continue
                        # sorting (lower, j) moves j past every larger entry
                        sign = -1 if (k + sum(i > j for i in lower)) % 2 else 1
                        mono = mono_key(
                            tuple(sorted(lower + (j,))), upper[:k] + upper[k + 1:]
                        )
                        row[mono] = row.get(mono, 0) + sign
                    yield (tuple(sorted(lower + upper)), (p, q)), row


def reference_flag_ideal(n):
    """The flag ideal over all monomials and its blocks, grouped by (sorted
    columns, sorted sizes) tuples, one monomial at a time."""
    variables = all_index_keys(n)
    monomials = tuple(itertools.combinations_with_replacement(variables, 2))
    groups = {}
    for i, (a, b) in enumerate(monomials):
        degree = (tuple(sorted(a + b)), tuple(sorted((len(a), len(b)))))
        groups.setdefault(degree, []).append(i)
    relations: dict[tuple, list[dict[MonoKey, int]]] = {}
    for degree, row in reference_incidence_relations(n):
        relations.setdefault(degree, []).append(row)
    blocks = []
    global_rows = []
    for degree, members in groups.items():
        if len(members) < 2:
            continue
        local = {monomials[i]: c for c, i in enumerate(members)}
        basis = exactla.rref(
            {local[m]: v for m, v in row.items()} for row in relations.get(degree, ())
        )
        blocks.append(_FlagBlock(tuple(members), tuple(basis.rows)))
        global_rows.extend(
            tuple(sorted((members[c], v) for c, v in row.items()))
            for row in basis.rows
        )
    space = DegreeTwoSpace(monomials, tuple(sorted(global_rows)))
    return space, tuple(blocks)


def keyed_fibers(n, ell):
    """The block-column fibers of ``_fibers`` with each column mapped to its
    monomial key, sorted by their first member: the reference is sorted by
    image instead, so the comparison sorts both sides."""
    variables = all_index_keys(n)
    blocks, fibers = _degree_blocks(n), _fibers(n, ell)
    assert len(fibers) == len(blocks)
    out = []
    for pairs, block_fibers in zip(blocks, fibers):
        for fiber in block_fibers:
            columns = [c for c, _ in fiber]
            assert columns == sorted(set(columns)) and columns[-1] < len(pairs)
            out.append(tuple(
                ((variables[pairs[c][0]], variables[pairs[c][1]]), s) for c, s in fiber
            ))
    return sorted(out)


PAIRS = [(n, ell) for n in range(1, 8) for ell in range(n)]


@pytest.mark.parametrize("n, ell", PAIRS, ids=lambda v: str(v))
def test_fibers_match_reference(n, ell):
    assert keyed_fibers(n, ell) == sorted(reference_fibers(n, ell))


@pytest.mark.parametrize("n, ell", PAIRS, ids=lambda v: str(v))
def test_key_fibers_map_the_block_columns(n, ell):
    assert sorted(map(tuple, _key_fibers(n, ell))) == keyed_fibers(n, ell)


@pytest.mark.slow
@pytest.mark.parametrize("ell", range(8))
def test_fibers_match_reference_n8_slow(ell):
    assert keyed_fibers(8, ell) == sorted(reference_fibers(8, ell))


@pytest.mark.parametrize("n, ell", PAIRS, ids=lambda v: str(v))
def test_fibers_match_per_cut_split(n, ell):
    # order included: blocks, fibers by first column, members by column
    assert _fibers(n, ell) == reference_block_fibers(n, ell)


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_table_cut_masks_match_reference(n):
    variables = all_index_keys(n)
    blocks = _degree_blocks(n)
    table = _fiber_table(n)
    assert list(table) == sorted(table)
    masks = {
        tuple((variables[i], variables[j]) for i, j in map(blocks[b].__getitem__, columns)): cuts
        for b, columns, cuts in table
    }
    assert len(masks) == len(table)
    expected = {}
    for ell in range(n):
        for fiber in reference_fibers(n, ell):
            members = tuple(m for m, _ in fiber)
            expected[members] = expected.get(members, 0) | 1 << ell
    assert masks == expected


def check_folds(n):
    folds = _fiber_folds(n)
    assert len(folds) == n
    for ell, fold in enumerate(folds):
        surviving = fold.monomial | fold.once
        got = (fold.monomial, surviving, fold.once, fold.twice)
        assert got == reference_fiber_folds(n, ell), ell


@pytest.mark.parametrize("n", range(3, 8))
def test_folds_match_per_cut_reference(n):
    check_folds(n)


@pytest.mark.slow
def test_folds_match_per_cut_reference_n8_slow():
    check_folds(8)


@pytest.mark.parametrize("n", range(2, 8))
def test_flag_ideal_matches_reference(n):
    space, blocks = reference_flag_ideal(n)
    assert _flag_ideal(n) == blocks
    # the same rows to rref in the same order: each row's entries in order too
    assert [[list(row.items()) for row in block.rows] for block in _flag_ideal(n)] == [
        [list(row.items()) for row in block.rows] for block in blocks
    ]
    assert degree2_flag_ideal(n, cap=n) == space

