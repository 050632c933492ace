"""Buchberger's algorithm and the ideal toolkit every downstream test uses.

Membership, quotient, saturation, elimination and equality all reduce to
reduced Groebner bases.  Every S-pair reduction is charged to the current
budget scope (`config.budget`, summed over all the runs in it), so runaway
computations end in clean errors instead of wrong answers.  Buchberger
divides by the elements' division records (`poly_core`) and builds each
element monic from its integer remainder row; a basis keeps its
elements' records for every normal form taken modulo it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .config import current_budget
from .errors import VariableMismatchError
from .poly_core import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    exact_div,
    monomial_div,
    monomial_lcm,
    monomial_mul,
    monic_remainder,
    remainder_by_records,
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

    @cached_property
    def records(self):
        """The elements' division records under the basis order, kept for
        every normal form taken modulo the basis."""
        return [p.division_record(self.order) for p in self.elements]


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


def _interreduce(polys, order):
    """Turn a generating set with the Groebner property into a reduced basis."""
    # minimality: drop elements whose leading term another one divides
    minimal = []
    for p in sorted(polys, key=lambda p: order.key(p.leading_monomial(order))):
        lm = p.leading_monomial(order)
        if any(monomial_div(lm, q.leading_monomial(order)) is not None for q in minimal):
            continue
        minimal.append(p)
    # no other leading term divides an element's own, so its remainder keeps it
    records = [p.division_record(order) for p in minimal]
    reduced = [monic_remainder(p, records[:i] + records[i + 1:], order)
               for i, p in enumerate(minimal)]
    reduced.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    return reduced


def buchberger(generators, order=GREVLEX):
    """Reduced Groebner basis of the given generators.

    Pairs go by degree, deg(lcm) + max(ecart_i, ecart_j) with ecart =
    degree - deg(leading monomial), then by smallest lcm; every ecart is 0
    under a graded order, whose key starts with the degree, so that is
    normal selection.  Buchberger's coprimality and chain criteria skip
    pairs.  Each S-polynomial reduction is charged to the current budget,
    which raises BudgetExceededError past its pair limit.  The loop keeps
    every element's division record beside its leading monomial; an S-pair
    is formed on two records and reduced by all of them
    (`s_pair_remainder`), and a new element comes back monic with its
    record already made.
    """
    budget = current_budget()
    basis = [g for g in generators if not g.is_zero()]
    # interreduce the input; repeat until stable so the starting set is lean
    while True:
        slimmed = []
        for i, p in enumerate(basis):
            others = [q.division_record(order) for q in slimmed + basis[i + 1:]]
            r = monic_remainder(p, others, order)
            if not r.is_zero():
                slimmed.append(r)
        if slimmed == basis:
            break
        basis = slimmed

    lms = [p.leading_monomial(order) for p in basis]
    records = [p.division_record(order) for p in basis]
    ecarts = [p.degree() - sum(lm) for p, lm in zip(basis, lms)]
    key = order.key
    heap = []

    def push(i, j):
        lcm = monomial_lcm(lms[i], lms[j])
        heappush(heap, (sum(lcm) + max(ecarts[i], ecarts[j]), key(lcm), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)
    done = set()

    while heap:
        _, _, i, j = heappop(heap)
        done.add((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        # coprime leading terms: S-polynomial reduces to zero
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_div(lcm, lms[k]) is None:
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        budget.charge_pair()
        r = s_pair_remainder(basis[i].vars, records[i], records[j], records, order)
        if r.is_zero():
            continue
        new = len(basis)
        basis.append(r)
        lms.append(r.leading_monomial(order))
        records.append(r.division_record(order))
        ecarts.append(r.degree() - sum(lms[new]))
        for t in range(new):
            push(t, new)

    return GroebnerBasis(_interreduce(basis, order), order)


def normal_form(f, basis):
    """The unique remainder of f modulo a reduced GroebnerBasis; f itself
    modulo the zero basis, which has no elements."""
    return remainder_by_records(f, basis.records, basis.order)


def ideal_member(f, ideal, order=GREVLEX):
    """True iff f lies in the ideal."""
    if f.is_zero():
        return True
    basis = ideal.groebner(order)
    return normal_form(f, basis).is_zero()


def ideal_equal(i, j, order=GREVLEX):
    """Mutual membership of generators."""
    return (all(ideal_member(g, j, order) for g in i.generators)
            and all(ideal_member(g, i, order) for g in j.generators))


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
