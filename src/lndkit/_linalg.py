"""Exact rational linear algebra on one sparse integer row echelon.

A row is a dict mapping a column to its entry, integer or Fraction.
Columns are 0..ncols-1 for matrices, and any comparable keys (such as
exponent tuples) for a RowSpace.  Every routine runs on the same
incremental echelon: one primitive integer row per pivot column, where a
row's pivot is its lowest column.  A new row is reduced at its lowest
column until it vanishes or has a pivot of its own.  Scaling a row changes
neither the nullspace nor solvability, and the pivots are exactly the
columns independent of the columns before them, so every answer depends
only on the matrix and the column order, not on the order of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd


def _primitive(row):
    """Scale a row to coprime integers, positive at its lowest column."""
    denom = 1
    for c in row.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {j: c.numerator * (denom // c.denominator) for j, c in row.items() if c}
    if not ints:
        return ints
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {j: v // g for j, v in ints.items()}


def _reduce(echelon, row):
    """Reduce a primitive row at its lowest column until it is zero (None)
    or its lowest column is not yet a pivot; returns (row, lowest column).

    The row is updated in place: every caller passes the fresh dict that
    `_primitive` built.  It is rescaled only when the pivot entry does not
    divide its entry at the pivot column."""
    while row:
        lead = min(row)
        pivot_row = echelon.get(lead)
        if pivot_row is None:
            return row, lead
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
    return None, None


def _insert(echelon, row):
    """Add a row to the echelon; True when it has a new pivot."""
    row, lead = _reduce(echelon, _primitive(row))
    if row is None:
        return False
    echelon[lead] = _primitive(row)
    return True


def _echelon(rows):
    """The echelon of the rows, inserted shortest first.  The order changes
    no answer, since the pivots and the normalised solutions belong to the
    row space, but short rows give sparse pivot rows, so the longer rows
    reduced by them later fill in less and their entries grow less."""
    echelon = {}
    for row in sorted(rows, key=len):
        _insert(echelon, row)
    return echelon


def _pivots_meeting(echelon):
    """Column -> the pivot columns of the other echelon rows that have an
    entry there (all of them below that column)."""
    meeting = {}
    for pc, row in echelon.items():
        for j in row:
            if j != pc:
                meeting.setdefault(j, []).append(pc)
    return meeting


def _back_substitute(echelon, vec, meeting):
    """Fill in the pivot coordinates of an integer vector from the echelon,
    highest pivot first.  Only rows that meet a coordinate already set can
    give a nonzero entry; a max-heap visits exactly those, in the order a
    scan of every pivot below the vector's columns would.  The vector is
    rescaled whenever a pivot does not divide its coordinate."""
    heap, queued = [], set()

    def enqueue(col):
        for pc in meeting.get(col, ()):
            if pc not in queued:
                queued.add(pc)
                heappush(heap, -pc)

    for j in vec:
        enqueue(j)
    while heap:
        pc = -heappop(heap)
        row = echelon[pc]
        s = sum(v * vec[j] for j, v in row.items() if j in vec)
        if s:
            g = gcd(s, row[pc])
            scale = row[pc] // g
            if scale != 1:
                vec = {j: x * scale for j, x in vec.items()}
            vec[pc] = -s // g
            enqueue(pc)
    return vec


def nullspace(rows, ncols):
    """Basis of the right nullspace of the sparse matrix, as int dicts.

    One vector per free column, ordered by it: the unique nullspace vector
    with 1 on that free column and 0 on the other free columns, scaled to
    primitive integers with positive leading entry.
    """
    echelon = _echelon(rows)
    meeting = _pivots_meeting(echelon)
    return [_primitive(_back_substitute(echelon, {fc: 1}, meeting))
            for fc in range(ncols) if fc not in echelon]


def solve(rows, rhs, ncols):
    """A particular solution of A x = b, or None when inconsistent.

    Free coordinates are set to zero, so the solution is supported on the
    earliest independent columns.  The negated right-hand side is the extra
    column ncols, set to 1 in back-substitution; the system is inconsistent
    exactly when that column is a pivot.
    """
    if not isinstance(rhs, dict):
        rhs = dict(enumerate(rhs))
    echelon = _echelon({**r, ncols: -rhs[i]} if rhs.get(i) else r
                       for i, r in enumerate(rows))
    if ncols in echelon:
        return None
    vec = _back_substitute(echelon, {ncols: 1}, _pivots_meeting(echelon))
    denom = vec.pop(ncols)
    return {j: Fraction(v, denom) for j, v in vec.items()}


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
        return _insert(self.rows, vec)

    def dimension(self):
        return len(self.rows)
