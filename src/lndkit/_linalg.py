"""Exact rational linear algebra on one sparse integer row echelon.

A row is a dict mapping a column to its entry, integer or Fraction.
Columns are 0..ncols-1 for matrices, and any comparable keys (such as
exponent tuples) for a RowSpace.  Every routine runs on the same kind of
echelon: one primitive integer row per pivot column, where a row's pivot
is its lowest column, and one reduction step, `_step`, which clears a
row's lowest column with that column's pivot row.  A matrix is eliminated
column by column from the lowest (`_echelon`); a RowSpace reduces each new
row at its lowest column until it vanishes or has a pivot of its own.
Scaling a row changes neither the nullspace nor solvability, and the
pivots are exactly the columns independent of the columns before them,
so every answer depends only on the matrix and the column order, not on
the order of the rows or on which row becomes a pivot row.

`nullspace` and `solve` share one back-substitution pass, `_solutions`:
it solves for the pivots from the highest down, each value a coprime
integer row over the free columns it tracks plus a denominator.  Setting
one tracked free column to 1 and every other free column to 0 fixes a
unique solution, so each answer is read off the one table.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly_core import _quotient


def _primitive(row):
    """A fresh row scaled to coprime integers, positive at its lowest
    column.  A row of polynomial coefficients, which are ints wherever they
    are integral, is often all ints and skips the common denominator:
    `gcd` refuses a Fraction entry, and only then are the entries brought
    to the lcm of their denominators."""
    try:
        g = gcd(*row.values())
    except TypeError:
        denom = lcm(*[c.denominator for c in row.values()])
        ints = {j: c.numerator * (denom // c.denominator) for j, c in row.items() if c}
        g = gcd(*ints.values())
    else:
        ints = {j: c for j, c in row.items() if c}
    if not ints:
        return ints
    if ints[min(ints)] < 0:
        g = -g
    if g == 1:
        return ints
    return {j: v // g for j, v in ints.items()}


def _step(row, pivot_row, lead):
    """A row the caller owns, with its entry at `lead` cleared by that
    column's primitive pivot row: updated in place, or rescaled into a
    fresh dict when the pivot entry does not divide the row's entry."""
    p, f = pivot_row[lead], row[lead]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in pivot_row.items():
        s = row.get(j, 0) - f * v
        if s:
            row[j] = s
        else:
            del row[j]
    return row


def _reduce(echelon, row):
    """Reduce a fresh row at its lowest column until it is zero (None) or
    its lowest column is not yet a pivot; returns (row, lowest column)."""
    while row:
        lead = min(row)
        pivot_row = echelon.get(lead)
        if pivot_row is None:
            return row, lead
        row = _step(row, pivot_row, lead)
    return None, None


def _echelon(rows):
    """The echelon of the rows, built column by column from the lowest.

    Each row waits at its lowest column.  At column c the shortest waiting
    row, made primitive, becomes c's pivot row and clears c from the other
    rows waiting there, which then wait at their new lowest columns.  Short
    pivot rows fill in little (Markowitz's rule, one column at a time), and
    which row is chosen changes no answer: the pivots and the normalised
    solutions belong to the row space."""
    waiting = {}
    for row in rows:
        row = _primitive(row)
        if row:
            waiting.setdefault(min(row), []).append(row)
    columns = list(waiting)
    heapify(columns)
    echelon = {}
    while columns:
        c = heappop(columns)
        bucket = waiting.pop(c)
        shortest = min(bucket, key=len)
        pivot_row = echelon[c] = _primitive(shortest)
        for row in bucket:
            if row is not shortest:
                row = _step(row, pivot_row, c)
                if row:
                    lead = min(row)
                    if lead not in waiting:
                        heappush(columns, lead)
                    waiting.setdefault(lead, []).append(row)
    return echelon


def _solutions(echelon, free):
    """Each pivot's value in terms of the tracked free columns, the other
    free columns set to zero: pivot column -> (integer row over `free`,
    positive denominator), coprime, highest pivot first, nonzero values only.

    A pivot row's lowest column is its pivot, so the pivots are visited
    from the highest down and each is solved for from values already known.
    """
    table = {}
    for pc in sorted(echelon, reverse=True):
        row = echelon[pc]
        sums, known, denom = {}, [], 1
        for j, v in row.items():
            if j in free:
                sums[j] = v
            else:
                value = table.get(j)
                if value is not None:
                    known.append((v, value))
                    denom = lcm(denom, value[1])
        if denom != 1:
            sums = {j: v * denom for j, v in sums.items()}
        for v, (num, den) in known:
            f = v * (denom // den)
            for k, a in num.items():
                sums[k] = sums.get(k, 0) + f * a
        sums = {k: a for k, a in sums.items() if a}
        if sums:
            denom *= row[pc]
            g = gcd(denom, *sums.values())
            table[pc] = ({k: -a // g for k, a in sums.items()}, denom // g)
    return table


def nullspace(rows, ncols):
    """Basis of the right nullspace of the sparse matrix.

    One vector per free column, ordered by it: the unique nullspace vector
    with 1 on that free column and 0 on the other free columns, its
    entries read off the `_solutions` table by `_quotient`.
    """
    echelon = _echelon(rows)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in echelon}
    for pc, (num, den) in _solutions(echelon, basis).items():
        for fc, a in num.items():
            basis[fc][pc] = _quotient(a, den)
    return list(basis.values())


def solve(rows, rhs, ncols):
    """A particular solution of A x = b, or None when inconsistent.

    Free coordinates are set to zero, so the solution is supported on the
    earliest independent columns.  The negated right-hand side is the extra
    column ncols, the one free column tracked by `_solutions`, set to 1;
    the system is inconsistent exactly when that column is a pivot.
    """
    if not isinstance(rhs, dict):
        rhs = dict(enumerate(rhs))
    echelon = _echelon({**r, ncols: -rhs[i]} if rhs.get(i) else r
                       for i, r in enumerate(rows))
    if ncols in echelon:
        return None
    return {pc: _quotient(num[ncols], den)
            for pc, (num, den) in _solutions(echelon, {ncols}).items()}


def rank(rows, ncols):
    return len(_echelon(rows))


class RowSpace:
    """Incremental row space over Q for span comparisons.

    Holds the shared sparse echelon (pivot column -> primitive integer
    row); `insert` reports whether the vector enlarged the space,
    `contains` tests membership.  Columns may be any comparable keys.
    """

    def __init__(self):
        self.rows = {}

    def contains(self, vec):
        return _reduce(self.rows, _primitive(vec))[0] is None

    def insert(self, vec):
        row, lead = _reduce(self.rows, _primitive(vec))
        if row is not None:
            self.rows[lead] = _primitive(row)
        return row is not None

    def dimension(self):
        return len(self.rows)
