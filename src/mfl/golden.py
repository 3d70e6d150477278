"""Frozen reference data for the small-n classification.

Everything in this module is recomputed from scratch by the library; the
constants pin the expected results so regressions are caught byte-for-byte.
Two known misprints in the circulated versions of these tables are handled
explicitly:

- the n = 5 row of the count table sums to 144, not the printed total 114;
  :data:`COUNT_TABLE_PRINTED_TOTALS` keeps the printed value and
  ``sum(COUNT_TABLE[5])`` is the computed one;
- the per-variable weight vector printed alongside both n = 4 example
  matrices, :data:`WEIGHT_VECTOR_PRINTED_N4`, does not match the
  minimum-over-placements computation for either matrix (for the diagonal
  field the entry of P_24 is 1, not 3).  The computed vectors are
  authoritative; the constant is kept only so the discrepancy stays visible.

Binomials here are stored over sorted variable keys with the sign convention
of the signed monomial map: ``(mono1, mono2, sign)`` encodes the generator
``P_mono1 - sign * P_mono2``.  Ideal tables whose printed signs are not
self-consistent are stored as unsigned supports.
"""

from __future__ import annotations

#: Z_3 and Z_4, exactly as listed.
ZERO_FAMILY_LISTS = {
    3: ("123", "132", "213"),
    4: ("1234", "1243", "1324", "2134", "2143"),
}

#: Non-zero ideals F_{3, ell, w}: unsigned generator supports.
#: Each cell is a dict with "binomials" (list of unordered monomial pairs)
#: and "monomials" (list of monomials); a monomial is a pair of variable
#: keys, each key a sorted tuple of members.
IDEALS_N3 = {
    (0, "231"): {"binomials": [(((2,), (1, 3)), ((1,), (2, 3)))], "monomials": []},
    (0, "312"): {"binomials": [], "monomials": [((2,), (1, 3))]},
    (0, "321"): {"binomials": [(((2,), (1, 3)), ((1,), (2, 3)))], "monomials": []},
    (1, "231"): {"binomials": [], "monomials": [((2,), (1, 3))]},
    (1, "312"): {"binomials": [(((3,), (1, 2)), ((2,), (1, 3)))], "monomials": []},
    (1, "321"): {"binomials": [(((3,), (1, 2)), ((2,), (1, 3)))], "monomials": []},
    (2, "231"): {"binomials": [], "monomials": [((1,), (2, 3))]},
    (2, "312"): {"binomials": [], "monomials": [((3,), (1, 2))]},
    (2, "321"): {"binomials": [(((1,), (2, 3)), ((3,), (1, 2)))], "monomials": []},
}

#: w not in Z_4 with binomial (toric) restricted ideal, per block cut.
TORIC_LISTS_N4 = {
    0: ("1342", "1432", "2314", "2341", "2431", "3214", "3241", "3421", "4321"),
    1: ("1342", "1432", "3124", "3142", "3214", "3241", "4132", "4321"),
    2: ("1342", "1432", "3214", "3241", "4231", "4321"),
    3: ("1342", "1432", "2314", "2341", "3214", "3241", "4321"),
}

#: Binomial counts per (n, ell), ell = 0..n-1.  The n = 3 row is forced by
#: the nine printed ideals of :data:`IDEALS_N3` (two binomial cells at
#: ell = 1, one at ell = 2); the circulated count table prints (2, 1, 2)
#: for that row, which contradicts its own ideal table and the oracle.
#: The n = 7 row is not in the circulated table; it is pinned because the
#: binomial family, the per-permutation oracle and the bitset kernel agree.
#: The n = 8 row is pinned because the bitset families, the per-permutation
#: insert-max construction and the kernel (oracle bound raised to 8) agree.
COUNT_TABLE = {
    3: (2, 2, 1),
    4: (9, 8, 6, 7),
    5: (34, 29, 24, 26, 31),
    6: (119, 99, 85, 90, 104, 115),
    7: (408, 333, 291, 305, 347, 384, 403),
    8: (1396, 1121, 989, 1031, 1163, 1287, 1361, 1390),
}

#: The n = 3 row as printed in the circulated count table; kept only to keep
#: the misprint visible.
COUNT_TABLE_PRINTED_N3 = (2, 1, 2)

#: Row totals as printed; the n = 5 entry is a known misprint (sum is 144).
COUNT_TABLE_PRINTED_TOTALS = {3: 5, 4: 30, 5: 114, 6: 612}


#: The ten degree-two generators of the n = 4 field with cut ell = 2,
#: signed: (mono1, mono2, sign) means P_mono1 - sign * P_mono2.
GENERATORS_N4_ELL2 = (
    (((2, 4), (1, 3, 4)), ((1, 4), (2, 3, 4)), 1),
    (((2, 3), (1, 3, 4)), ((1, 3), (2, 3, 4)), 1),
    (((2, 3), (1, 2, 4)), ((1, 2), (2, 3, 4)), 1),
    (((1, 3), (1, 2, 4)), ((1, 2), (1, 3, 4)), 1),
    (((1, 4), (2, 3)), ((1, 3), (2, 4)), 1),
    (((3,), (1, 2, 4)), ((1,), (2, 3, 4)), -1),
    (((4,), (2, 3)), ((3,), (2, 4)), 1),
    (((4,), (1, 3)), ((3,), (1, 4)), 1),
    (((4,), (1, 2)), ((1,), (2, 4)), -1),
    (((3,), (1, 2)), ((1,), (2, 3)), -1),
)

#: The ten generators of the diagonal n = 4 field.
GENERATORS_N4_DIAGONAL = (
    (((2, 4), (1, 3, 4)), ((1, 4), (2, 3, 4)), 1),
    (((2, 3), (1, 3, 4)), ((1, 3), (2, 3, 4)), 1),
    (((2, 3), (1, 2, 4)), ((1, 2), (2, 3, 4)), 1),
    (((1, 3), (1, 2, 4)), ((1, 2), (1, 3, 4)), 1),
    (((1, 4), (2, 3)), ((1, 3), (2, 4)), 1),
    (((2,), (1, 3, 4)), ((1,), (2, 3, 4)), 1),
    (((3,), (2, 4)), ((2,), (3, 4)), 1),
    (((3,), (1, 4)), ((1,), (3, 4)), 1),
    (((2,), (1, 4)), ((1,), (2, 4)), 1),
    (((2,), (1, 3)), ((1,), (2, 3)), 1),
)

#: Single surviving generator of the (4, 2, 3214) restriction: unsigned
#: support (the printed sign is not consistent with the signed map).
RESTRICTED_CELL_4_2_3214 = (((3,), (1, 2)), ((1,), (2, 3)))

#: The principal ideal shared by both n = 4 members of the A1 clause,
#: identical for every cut once written over sorted keys.
A1_N4_SUPPORT = (((1, 3), (1, 2, 4)), ((1, 2), (1, 3, 4)))
A1_N4_MEMBERS = ("1342", "1432")

#: Weight vector printed next to both n = 4 example matrices, over the
#: variables in (size, lexicographic) order; known to be wrong for both.
WEIGHT_VECTOR_PRINTED_N4 = (0, 0, 0, 0, 1, 2, 2, 1, 3, 3, 5, 3, 4, 3)

#: Column displays of the 14 variables of the (4, 2) field, in (size, lex)
#: variable order.
DISPLAYS_N4_ELL2 = (
    (1,), (2,), (3,), (4,),
    (1, 2), (3, 1), (4, 1), (3, 2), (4, 2), (3, 4),
    (1, 2, 3), (1, 2, 4), (3, 1, 4), (3, 2, 4),
)
