"""Buchberger's algorithm and the ideal toolkit every downstream test uses.

Membership, quotient, saturation, elimination and equality all reduce to
reduced Groebner bases.  Every S-pair reduction is charged to the current
budget scope (`config.budget`, summed over all the runs in it), so runaway
computations end in clean errors instead of wrong answers.  Buchberger
divides by the elements' division records (`poly_core`) and builds each
element monic from its integer remainder row; each element keeps its
record, cached on it, for every normal form taken modulo the basis.  The
pair queue, both criteria and inter-reduction read the records' packed
leading monomials, so they test divisibility as the division loop does;
the chain criterion reads each element's popped partners from a bitmask,
and the reductions of one run share a memo of first divisors (`_reduce`).
Inside a `basis_memo()` scope, which `lnd run` opens once per session,
each distinct input's reduced basis is computed once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush

from .config import current_budget
from .errors import VariableMismatchError
from .poly_core import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    _layout,
    exact_div,
    monic_remainder,
    remainder,
    s_pair_remainder,
)


@dataclass
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, sorted by leading term."""

    elements: list
    order: MonomialOrder

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def is_trivial(self):
        """True for the unit ideal."""
        return any(p.is_constant() for p in self.elements)


class Ideal:
    """An ideal of a polynomial ring, given by its nonzero generators.

    Zero generators are dropped, so the zero ideal has no generators.
    Groebner bases are cached per monomial order.
    """

    def __init__(self, generators, vars=None):
        generators = list(generators)
        if vars is None:
            if not generators:
                raise ValueError("an ideal needs generators or a variable set")
            vars = generators[0].vars
        self.vars = tuple(vars)
        self.generators = []
        for g in generators:
            if g.vars != self.vars:
                raise VariableMismatchError(
                    f"generator over {g.vars}, ideal over {self.vars}")
            if not g.is_zero():
                self.generators.append(g)
        self._bases = {}

    def groebner(self, order=GREVLEX):
        basis = self._bases.get(order)
        if basis is None:
            basis = buchberger(self.generators, order)
            self._bases[order] = basis
        return basis

    def is_zero(self):
        return not self.generators

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def _interreduce(basis, records, order, guard):
    """Turn a generating set with the Groebner property, given with its
    elements' division records, into a reduced basis.  Minimality and both
    sorts read the records' packed leading monomials: -X ascends as the
    order does (`poly_core._Layout`), and a lead divides another when their
    difference sets no `guard` bit."""
    # minimality: drop elements whose leading term another one divides
    minimal, kept = [], []
    for i in sorted(range(len(basis)), key=lambda i: -records[i][0]):
        lead = records[i][0]
        if any(not (lead - q[0]) & guard for q in kept):
            continue
        minimal.append(basis[i])
        kept.append(records[i])
    # no other leading term divides an element's own, so its remainder keeps it
    reduced = [monic_remainder(p, kept[:i] + kept[i + 1:], order)
               for i, p in enumerate(minimal)]
    reduced.sort(key=lambda p: p.division_record(order)[0])
    return reduced


_MEMO = ContextVar("lndkit_basis_memo", default=None)


@contextmanager
def basis_memo():
    """Scope in which `buchberger` keeps each basis it computes under the
    order with its input, and with its own elements (a reduced basis is
    unique, so a hit changes no result).  A hit charges no pairs; a run
    that raises keeps nothing.  Outside any scope each call computes."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def buchberger(generators, order=GREVLEX):
    """Reduced Groebner basis of the given generators, from the current
    `basis_memo` scope when it already holds one for them."""
    generators = tuple(generators)
    memo = _MEMO.get()
    if memo is None:
        return _buchberger(generators, order)
    key = (order, generators)
    basis = memo.get(key)
    if basis is None:
        basis = _buchberger(generators, order)
        memo[key] = memo[(order, tuple(basis.elements))] = basis
    return basis


def _buchberger(generators, order):
    """Reduced Groebner basis of the given generators, computed.

    Pairs go by degree, deg(lcm) + max(ecart_i, ecart_j) with ecart =
    degree - deg(leading monomial), then by smallest lcm; every ecart is 0
    under a graded order, whose key starts with the degree, so that is
    normal selection.  Buchberger's coprimality and chain criteria skip
    pairs.  Each S-polynomial reduction is charged to the current budget,
    which raises BudgetExceededError past its pair limit.  The loop keeps
    every element's division record; an S-pair is formed on two records
    and reduced by all of them (`s_pair_remainder`), and a new element
    comes back monic with its record already made.

    The pair queue and both criteria run on the records' packed leading
    monomials (`poly_core._Layout`).  A pair's lcm is packed once, when it
    is pushed, and queued as -X(lcm): the packing reverses the order, so
    that is the order ascending, and equal packed forms are equal monomials;
    the popped X(lcm) goes to `s_pair_remainder` as it is.
    The leads are coprime exactly when X(lcm) = X(lead_i) + X(lead_j), and
    lead_k divides the lcm exactly when X(lcm) - X(lead_k) sets no guard
    bit, the test `_reduce` makes at every step.

    done[i] has bit k set once the pair (i, k) has popped, so the chain
    criterion tests only the leads of done[i] & done[j] (Gebauer and
    Moeller, JSC 6, 1988).  The run's reductions share `firsts`, a memo of
    first divisors, valid as `records` only grows by appending (`_reduce`).
    Neither changes a decision, so every count is the plain scans'.
    """
    budget = current_budget()
    basis = [g for g in generators if not g.is_zero()]
    # interreduce the input; repeat until stable so the starting set is lean
    while True:
        records = [p.division_record(order) for p in basis]
        slimmed, kept = [], []
        for i, p in enumerate(basis):
            r = monic_remainder(p, kept + records[i + 1:], order)
            if not r.is_zero():
                slimmed.append(r)
                kept.append(r.division_record(order))
        if slimmed == basis:
            break
        basis = slimmed
    if not basis:
        return GroebnerBasis([], order)

    layout = _layout(order, len(basis[0].vars))
    pack, guard = layout.pack, layout.guard
    start, basis = basis, []
    lms, ecarts, records, leads, done, heap = [], [], [], [], [], []

    def add(p):
        """Keep p and queue its pairs with the elements kept before it."""
        new = len(basis)
        lm = p.leading_monomial(order)
        ecart = p.degree() - sum(lm)
        lcms = [[*map(max, m, lm)] for m in lms]
        for t, (lcm, x) in enumerate(zip(lcms, pack(lcms))):
            heappush(heap, (sum(lcm) + max(ecarts[t], ecart), -x, t, new))
        record = p.division_record(order)
        basis.append(p)
        lms.append(lm)
        ecarts.append(ecart)
        records.append(record)
        leads.append(record[0])
        done.append(0)

    for p in start:
        add(p)
    firsts = {}

    while heap:
        _, x, i, j = heappop(heap)
        x = -x
        done[i] |= 1 << j
        done[j] |= 1 << i
        # coprime leading terms: S-polynomial reduces to zero
        if x == leads[i] + leads[j]:
            continue
        # chain criterion, over the k whose pairs with i and j have both popped
        common = done[i] & done[j]
        while common and (x - leads[common.bit_length() - 1]) & guard:
            common ^= 1 << (common.bit_length() - 1)
        if common:
            continue
        budget.charge_pair()
        r = s_pair_remainder(basis[i].vars, records[i], records[j], x, records, order, firsts)
        if r.is_zero():
            continue
        add(r)

    return GroebnerBasis(_interreduce(basis, records, order, guard), order)


def normal_form(f, basis):
    """The unique remainder of f modulo a reduced GroebnerBasis; f itself
    modulo the zero basis, which has no elements."""
    return remainder(f, basis.elements, basis.order)


def ideal_member(f, ideal, order=GREVLEX):
    """True iff f lies in the ideal."""
    if f.is_zero():
        return True
    basis = ideal.groebner(order)
    return normal_form(f, basis).is_zero()


def eliminate(ideal, first_k):
    """Generators of the intersection with Q[remaining variables].

    Uses a block order eliminating the first `first_k` variables; the
    result is an ideal over the remaining variables.
    """
    n = len(ideal.vars)
    if not 0 < first_k < n:
        raise ValueError(f"cannot eliminate {first_k} of {n} variables")
    order = MonomialOrder.elimination(first_k)
    basis = ideal.groebner(order)
    keep = ideal.vars[first_k:]
    kept = [p.restrict(keep) for p in basis.elements if p.uses_only(keep)]
    return Ideal(kept, keep)


def _tagged(vars):
    """A tag variable named t, t0, t1, ..., the first name not in vars, put
    in front of them: the new variables and the tag as a polynomial."""
    name, k = "t", 0
    while name in vars:
        name, k = f"t{k}", k + 1
    big_vars = (name,) + vars
    return big_vars, Polynomial.variable(name, big_vars)


def ideal_intersection(i, j):
    """Intersection via the single-tag trick: eliminate t from tI + (1-t)J."""
    if i.vars != j.vars:
        raise VariableMismatchError("intersection across different rings")
    big_vars, t = _tagged(i.vars)
    gens = [t * g.embed(big_vars) for g in i.generators]
    gens += [(1 - t) * g.embed(big_vars) for g in j.generators]
    return eliminate(Ideal(gens, big_vars), 1)


def ideal_quotient(ideal, g):
    """The colon ideal (I : g) = {f : f*g in I}, for nonzero g.

    Computed as (I intersect (g)) / g with one auxiliary elimination
    variable.
    """
    if g.is_zero():
        raise ValueError("quotient by the zero element")
    if g.vars != ideal.vars:
        raise VariableMismatchError("quotient element lives in a different ring")
    inter = ideal_intersection(ideal, Ideal([g]))
    return Ideal([exact_div(h, g) for h in inter.generators], ideal.vars)


def saturation(ideal, g):
    """(I : g^infinity) = (I + (1 - t*g)) intersected with Q[vars], for a
    fresh tag t (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    section 4.4, Theorem 14)."""
    if g.is_zero():
        raise ValueError("saturation by the zero element")
    if g.vars != ideal.vars:
        raise VariableMismatchError("saturating element lives in a different ring")
    big_vars, t = _tagged(ideal.vars)
    gens = [f.embed(big_vars) for f in ideal.generators]
    gens.append(1 - t * g.embed(big_vars))
    return eliminate(Ideal(gens, big_vars), 1)
