from hypothesis import given, settings, strategies as st

from expansion_oracle import left_kernel
from initial_ideal_oracle import span_equal
from mfl.exactla import EchelonBasis, make_primitive, rref


class TestPrimitive:
    def test_content_and_sign(self):
        assert make_primitive({0: 4, 2: -6}) == {0: 2, 2: -3}
        assert make_primitive({1: -3, 4: 9}) == {1: 1, 4: -3}
        assert make_primitive({0: 0, 1: 0}) == {}


class TestRref:
    def test_simple(self):
        basis = rref([{0: 1, 1: 1}, {0: 1, 1: -1}])
        assert basis.rank == 2
        assert basis.canonical() == (((0, 1),), ((1, 1),))

    def test_dependent_rows(self):
        basis = rref([{0: 2, 1: 4}, {0: 1, 1: 2}, {0: 3, 1: 6}])
        assert basis.rank == 1
        assert basis.canonical() == (((0, 1), (1, 2)),)

    def test_column_order_changes_pivots(self):
        rows = [{0: 1, 1: 1}]
        assert rref(rows).pivots == [0]
        assert rref(rows, col_pos={0: 5, 1: 2}).pivots == [1]

    def test_contains(self):
        basis = rref([{0: 1, 1: -1}, {1: 1, 2: -1}])
        assert basis.contains({0: 1, 2: -1})
        assert basis.contains({0: 2, 1: -1, 2: -1})
        assert not basis.contains({0: 1, 2: 1})

    def test_span_equal(self):
        a = [{0: 1, 1: 1}, {1: 1, 2: 1}]
        b = [{0: 1, 2: -1}, {0: 1, 1: 2, 2: 1}]
        assert span_equal(a, b)
        assert not span_equal(a, [{0: 1}])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_rref_canonical_under_row_ops(self, matrix):
        rows = [
            {j: v for j, v in enumerate(r) if v} for r in matrix
        ]
        shuffled = list(reversed(rows))
        doubled = [{c: 2 * v for c, v in r.items()} for r in rows]
        assert rref(rows).canonical() == rref(shuffled).canonical()
        assert rref(rows).canonical() == rref(doubled).canonical()
        basis = rref(rows)
        for row in rows:
            assert basis.contains(row)


class TestLeftKernel:
    def test_known_kernel(self):
        rows = [
            {"a": 1, "b": -1},
            {"a": 1, "c": -1},
            {"b": 1, "c": -1},
        ]
        kernel = left_kernel(rows)
        assert len(kernel) == 1
        (vec,) = kernel
        # vec combines the rows to zero
        combo = {}
        for c, row in zip(vec, rows):
            for k, v in row.items():
                combo[k] = combo.get(k, 0) + c * v
        assert all(v == 0 for v in combo.values())

    def test_full_rank_rows(self):
        rows = [{"x": 1}, {"y": 1}]
        assert left_kernel(rows) == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    def test_kernel_annihilates(self, matrix):
        rows = [
            {j: v for j, v in enumerate(r) if v} for r in matrix
        ]
        kernel = left_kernel(rows)
        for vec in kernel:
            combo = {}
            for c, row in zip(vec, rows):
                for k, v in row.items():
                    combo[k] = combo.get(k, 0) + c * v
            assert all(v == 0 for v in combo.values()), (matrix, vec)
        # dimension check: rank + kernel dim = number of rows
        rank = rref(rows).rank
        assert rank + len(kernel) == len(rows)

    def test_kernel_vectors_independent(self):
        rows = [{0: 1}, {0: 2}, {0: 3}]
        kernel = left_kernel(rows)
        assert len(kernel) == 2
        basis = EchelonBasis()
        for vec in kernel:
            assert basis.insert({j: v for j, v in enumerate(vec) if v})
