import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lndkit._linalg import (
    RowSpace,
    _echelon,
    _primitive,
    _solutions,
    nullspace,
    rank,
    solve,
)
from oracles import canonical


def _random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        rows.append(row)
    return rows


def _apply(rows, vec):
    out = []
    for row in rows:
        s = Fraction(0)
        for j, c in row.items():
            x = vec.get(j)
            if x is not None:
                s += Fraction(c) * x
        out.append(s)
    return out


class TestNullspace:
    def test_vectors_annihilate(self):
        rng = random.Random(101)
        for _ in range(30):
            ncols = rng.randint(1, 8)
            rows = _random_rows(rng, rng.randint(0, 8), ncols)
            for vec in nullspace(rows, ncols):
                assert all(s == 0 for s in _apply(rows, vec))

    def test_rank_nullity(self):
        rng = random.Random(102)
        for _ in range(30):
            ncols = rng.randint(1, 8)
            rows = _random_rows(rng, rng.randint(0, 8), ncols)
            basis = nullspace(rows, ncols)
            assert len(basis) == ncols - rank(rows, ncols)
            space = RowSpace()
            for vec in basis:
                assert space.insert(vec)  # basis vectors are independent

    def test_identity_has_trivial_nullspace(self):
        rows = [{i: 1} for i in range(5)]
        assert nullspace(rows, 5) == []


class TestSolve:
    def test_residual_is_zero(self):
        rng = random.Random(103)
        solved = 0
        for _ in range(40):
            ncols = rng.randint(1, 7)
            rows = _random_rows(rng, rng.randint(1, 7), ncols)
            target = {j: Fraction(rng.randint(-3, 3)) for j in range(ncols)
                      if rng.random() < 0.5}
            rhs = _apply(rows, target)  # consistent by construction
            vec = solve(rows, rhs, ncols)
            assert vec is not None
            assert _apply(rows, vec) == rhs
            assert canonical(vec)
            solved += 1
        assert solved == 40

    def test_entries_in_the_stored_form(self):
        # each entry as `Polynomial` stores it: an int when integral, else a
        # Fraction with denominator above 1, as nullspace gives them
        vec = solve([{0: 2, 1: 4}], {0: 6}, 2)
        assert vec == {0: 3} and type(vec[0]) is int
        vec = solve([{0: 2, 1: 1}, {1: 3}], [1, 1], 2)
        assert vec == {0: Fraction(1, 3), 1: Fraction(1, 3)} and canonical(vec)

    def test_inconsistent_detected(self):
        rows = [{0: 1}, {0: 1}]
        assert solve(rows, [1, 2], 1) is None


class TestRowSpace:
    def test_membership_and_dimension(self):
        space = RowSpace()
        assert space.insert({0: Fraction(1), 1: Fraction(2)})
        assert space.insert({1: Fraction(1)})
        assert not space.insert({0: Fraction(2), 1: Fraction(1)})
        assert space.dimension() == 2
        assert space.contains({0: Fraction(5)})
        assert not space.contains({2: Fraction(1)})

    def test_tuple_column_keys(self):
        # exponent tuples as columns, as the span comparison uses them
        space = RowSpace()
        assert space.insert({(2, 0): Fraction(1, 2), (1, 1): Fraction(3)})
        assert space.insert({(1, 1): Fraction(1), (0, 2): Fraction(-1)})
        assert not space.insert({(2, 0): Fraction(1), (0, 2): Fraction(6)})
        assert space.contains({(1, 1): Fraction(-2), (0, 2): Fraction(2)})
        assert not space.contains({(0, 2): Fraction(1)})
        assert space.dimension() == 2


def _back_substitute_by_scan(echelon, vec, below):
    """The reference back-substitution: every pivot row below the given
    column, highest first, whether or not it meets the vector."""
    for pc in sorted((pc for pc in echelon if pc < below), reverse=True):
        row = echelon[pc]
        s = sum(v * vec[j] for j, v in row.items() if j in vec)
        if s:
            g = gcd(s, row[pc])
            scale = row[pc] // g
            if scale != 1:
                vec = {j: x * scale for j, x in vec.items()}
            vec[pc] = -s // g
    return vec


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


@st.composite
def _sparse_matrices(draw, entry=_FRACTIONS):
    ncols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, ncols), entry, max_size=4)
    return draw(st.lists(row, max_size=10)), ncols


def _vector_of(table, fc):
    """The rational solution vector of free column fc in a `_solutions`
    table: 1 there, each pivot's value, nothing elsewhere."""
    vec = {fc: Fraction(1)}
    for pc, (num, den) in table.items():
        if fc in num:
            vec[pc] = Fraction(num[fc], den)
    return vec


class TestBackSubstitution:
    @given(_sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan(self, matrix):
        # column ncols plays the right-hand side of solve: every free
        # column, that one included, gets the scan's vector, whether the
        # table tracks all free columns, as nullspace does, or one, as
        # solve does
        rows, ncols = matrix
        echelon = _echelon(rows)
        free = [fc for fc in range(ncols + 1) if fc not in echelon]
        table = _solutions(echelon, set(free))
        for num, den in table.values():
            assert num and all(num.values()) and den > 0
            assert gcd(den, *num.values()) == 1
        wants = {}
        for fc in free:
            scan = _back_substitute_by_scan(echelon, {fc: 1}, fc)
            want = wants[fc] = {j: Fraction(v, scan[fc]) for j, v in scan.items()}
            assert _vector_of(table, fc) == want
            assert _vector_of(_solutions(echelon, {fc}), fc) == want
        # nullspace returns the scan's vectors normalised at their free column
        assert nullspace(rows, ncols) == [wants[fc] for fc in free if fc < ncols]


class TestEchelon:
    """The column-by-column echelon against a RowSpace fed the same rows
    one at a time.  Duplicates, scaled copies and sums of two rows wait at
    the column of a row like them, so they reach a pivot, if at all, only
    after a reduction, and the pivot row chosen there may be one of them."""

    @given(_sparse_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_primitive_pivot_rows_and_pivots_of_the_row_space(self, matrix, data):
        rows = list(matrix[0])
        scale = _FRACTIONS.filter(bool)
        for _ in range(data.draw(st.integers(0, 6)) if rows else 0):
            a, b = (data.draw(st.sampled_from(rows)) for _ in range(2))
            s = data.draw(st.just(1) | scale)  # 1 with t = 0: a duplicate
            t = data.draw(st.sampled_from([0, 1]) | scale)  # 0: a copy of a
            row = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in a.keys() | b.keys()}
            rows.append({j: c for j, c in row.items() if c})
        rows = data.draw(st.permutations(rows))
        echelon = _echelon(rows)
        inserted = RowSpace()
        for row in rows:
            inserted.insert(row)
        assert set(echelon) == set(inserted.rows)
        spanned = RowSpace()
        for pc, row in echelon.items():
            assert min(row) == pc and row[pc] > 0
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
            assert inserted.contains(row)
            assert spanned.insert(row)
        assert all(spanned.contains(row) for row in rows)


def _primitive_by_hand(row):
    """Nonzero int entries over their gcd, positive at the lowest column."""
    row = {j: c for j, c in row.items() if c}
    if not row:
        return row
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return {j: c // g for j, c in row.items()}


class TestCallerRowsUnchanged:
    """The echelon reduces fresh rows in place; the caller's dicts are
    never among them, also when they are int rows already in primitive
    form, which `_primitive` takes without rescaling."""

    @given(_sparse_matrices(entry=st.integers(-9, 9)))
    @settings(max_examples=200, deadline=None)
    def test_primitive_int_rows(self, matrix):
        rows, ncols = matrix
        rows = [_primitive_by_hand(row) for row in rows]
        assert all(_primitive(row) == row for row in rows)
        copy = [dict(row) for row in rows]
        nullspace(rows, ncols)
        solve(rows, [1 + i % 2 for i in range(len(rows))], ncols + 1)
        rank(rows, ncols)
        space = RowSpace()
        for row in rows:
            space.insert(row)
        for row in rows:
            assert space.contains(row)
            assert not space.insert(row)
        assert all(r is not row for r in space.rows.values() for row in rows)
        assert rows == copy


def _as_fractions(rows):
    return [{j: Fraction(c) for j, c in row.items()} for row in rows]


class TestIntegerRows:
    """Rows of Python ints, alone or mixed with Fractions, as the
    derivation matrix hands them over, give the answers of the same rows
    as Fractions, in any row order: nullspace vectors with 1 on their free
    column and 0 on the other free columns, and solutions, each entry in
    `Polynomial`'s stored form.  They leave their inputs as they were."""

    @given(_sparse_matrices(entry=st.integers(-9, 9)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_int_rows_match_fraction_rows(self, matrix, data):
        rows, ncols = matrix
        mixed = [{j: c if data.draw(st.booleans()) else Fraction(c, 2)
                  for j, c in row.items()} for row in rows]
        for given_rows in (rows, mixed):
            copy = [dict(row) for row in given_rows]
            exact = _as_fractions(given_rows)
            basis = nullspace(given_rows, ncols)
            assert basis == nullspace(exact, ncols)
            free = [fc for fc in range(ncols) if fc not in _echelon(exact)]
            assert len(basis) == len(free)
            for fc, vec in zip(free, basis):
                assert type(vec[fc]) is int and vec[fc] == 1
                assert not any(j in free for j in vec if j != fc)
                assert all(type(c) is int and c != 0
                           or type(c) is Fraction and c.denominator > 1
                           for c in vec.values())
            assert rank(given_rows, ncols) == rank(exact, ncols)
            rhs = [1 + i % 3 for i in range(len(given_rows))]
            vec = solve(given_rows, rhs, ncols)
            assert vec == solve(exact, [Fraction(b) for b in rhs], ncols)
            assert vec is None or canonical(vec)
            space = RowSpace()
            for row in given_rows:
                space.insert(row)
                assert space.contains(row)
            assert given_rows == copy
            # the echelon picks the shortest row waiting at each column as
            # its pivot row; no row order changes an answer
            assert nullspace(given_rows[::-1], ncols) == basis
            assert rank(given_rows[::-1], ncols) == rank(exact, ncols)


class TestSympyOracle:
    """Seeded random sparse rational matrices against sympy's exact answers."""

    @staticmethod
    def _cases(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            ncols = rng.randint(1, 7)
            yield rng, ncols, _random_rows(rng, rng.randint(1, 7), ncols,
                                           density=rng.choice([0.2, 0.4, 0.7]))

    @staticmethod
    def _matrix(sympy, rows, ncols):
        return sympy.Matrix([[sympy.Rational(row.get(j, 0)) for j in range(ncols)]
                             for row in rows])

    def test_nullspace_and_rank(self):
        sympy = pytest.importorskip("sympy")
        for _, ncols, rows in self._cases(201, 100):
            m = self._matrix(sympy, rows, ncols)
            # sympy's vectors, like ours, hold 1 on their free column and
            # 0 on the other free columns
            want = [{j: Fraction(int(c.p), int(c.q)) for j, c in enumerate(v) if c}
                    for v in m.nullspace()]
            assert nullspace(rows, ncols) == want
            assert rank(rows, ncols) == m.rank()

    def test_solve_consistency(self):
        sympy = pytest.importorskip("sympy")
        for rng, ncols, rows in self._cases(202, 100):
            rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
            m = self._matrix(sympy, rows, ncols)
            augmented = m.row_join(sympy.Matrix([sympy.Rational(b) for b in rhs]))
            vec = solve(rows, rhs, ncols)
            assert (vec is None) == (augmented.rank() > m.rank())
            if vec is not None:
                assert _apply(rows, vec) == rhs
