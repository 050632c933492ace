"""Buchberger's algorithm and the ideal toolkit every downstream test uses.

Membership, quotient, saturation, elimination and equality all reduce to
reduced Groebner bases.  Every S-pair reduction is charged to the current
budget scope (`config.budget`, summed over all the runs in it), so runaway
computations end in clean errors instead of wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    remainder,
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
        return any(p.is_constant() and not p.is_zero() for p in self.elements)


class Ideal:
    """An ideal of a polynomial ring, given by generators.

    The zero ideal is represented by a single zero generator.  Groebner
    bases are cached per monomial order.
    """

    def __init__(self, generators, vars=None):
        generators = list(generators)
        if vars is None:
            if not generators:
                raise ValueError("an ideal needs generators or a variable set")
            vars = generators[0].vars
        self.vars = tuple(vars)
        gens = []
        for g in generators:
            if g.vars != self.vars:
                raise VariableMismatchError(
                    f"generator over {g.vars}, ideal over {self.vars}")
            if not g.is_zero():
                gens.append(g)
        if not gens:
            gens = [Polynomial.zero(self.vars)]
        self.generators = gens
        self._bases = {}

    def groebner(self, order=GREVLEX):
        basis = self._bases.get(order)
        if basis is None:
            basis = buchberger(self.generators, order)
            self._bases[order] = basis
        return basis

    def is_zero(self):
        return all(g.is_zero() for g in self.generators)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def _shifted(p, t, lc):
    """p * t / lc for a monomial t; no division when lc is 1."""
    if lc == 1:
        return Polynomial(p.vars, {monomial_mul(m, t): c for m, c in p.terms.items()})
    return Polynomial(p.vars, {monomial_mul(m, t): c / lc for m, c in p.terms.items()})


def s_polynomial(f, g, order):
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = monomial_lcm(mf, mg)
    return (_shifted(f, monomial_div(lcm, mf), cf)
            - _shifted(g, monomial_div(lcm, mg), cg))


def _interreduce(polys, order):
    """Turn a generating set with the Groebner property into a reduced basis."""
    polys = [p for p in polys if not p.is_zero()]
    # minimality: drop elements whose leading term another one divides
    polys.sort(key=lambda p: order.key(p.leading_monomial(order)))
    minimal = []
    for p in polys:
        lm = p.leading_monomial(order)
        if any(monomial_div(lm, q.leading_monomial(order)) is not None for q in minimal):
            continue
        minimal.append(p)
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = remainder(p, others, order) if others else p
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
    return reduced


def buchberger(generators, order=GREVLEX):
    """Reduced Groebner basis of the given generators.

    Normal pair selection (minimal lcm) with Buchberger's coprimality and
    chain criteria.  Each S-polynomial reduction is charged to the current
    budget, which raises BudgetExceededError past its pair limit.
    """
    budget = current_budget()
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return GroebnerBasis([Polynomial.zero(generators[0].vars)], order)
    vars = basis[0].vars
    # interreduce the input; repeat until stable so the starting set is lean
    while True:
        slimmed = []
        for i, p in enumerate(basis):
            others = slimmed + basis[i + 1:]
            r = remainder(p, others, order) if others else p
            if not r.is_zero():
                slimmed.append(r.monic(order))
        if slimmed == basis:
            break
        basis = slimmed
    if not basis:
        return GroebnerBasis([Polynomial.zero(vars)], order)

    lms = [p.leading_monomial(order) for p in basis]
    key = order.key
    heap = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            heappush(heap, (key(monomial_lcm(lms[i], lms[j])), i, j))
    done = set()

    while heap:
        _, i, j = heappop(heap)
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
        s = s_polynomial(basis[i], basis[j], order)
        r = remainder(s, basis, order)
        if r.is_zero():
            continue
        r = r.monic(order)
        new = len(basis)
        basis.append(r)
        lm_new = r.leading_monomial(order)
        lms.append(lm_new)
        for t in range(new):
            heappush(heap, (key(monomial_lcm(lms[t], lm_new)), t, new))

    return GroebnerBasis(_interreduce(basis, order), order)


def normal_form(f, basis, order=None):
    """The unique remainder of f modulo a (reduced) Groebner basis."""
    if isinstance(basis, GroebnerBasis):
        order = basis.order if order is None else order
        elements = basis.elements
    else:
        elements = list(basis)
        if order is None:
            order = GREVLEX
    elements = [p for p in elements if not p.is_zero()]
    if not elements:
        return f
    return remainder(f, elements, order)


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


def _fresh_name(base, taken):
    name = base
    k = 0
    while name in taken:
        name = f"{base}{k}"
        k += 1
    return name


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


def ideal_intersection(i, j):
    """Intersection via the single-tag trick: eliminate t from tI + (1-t)J."""
    if i.vars != j.vars:
        raise VariableMismatchError("intersection across different rings")
    t = _fresh_name("t", set(i.vars))
    big_vars = (t,) + i.vars
    tp = Polynomial.variable(t, big_vars)
    one_minus_t = Polynomial.one(big_vars) - tp
    gens = [tp * g.embed(big_vars) for g in i.generators if not g.is_zero()]
    gens += [one_minus_t * g.embed(big_vars) for g in j.generators if not g.is_zero()]
    if not gens:
        return Ideal([Polynomial.zero(i.vars)], i.vars)
    inter = eliminate(Ideal(gens, big_vars), 1)
    return Ideal(inter.generators, i.vars)


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
    quots = []
    for h in inter.generators:
        if h.is_zero():
            continue
        quots.append(exact_div(h, g))
    if not quots:
        return Ideal([Polynomial.zero(ideal.vars)], ideal.vars)
    return Ideal(quots, ideal.vars)


def saturation(ideal, g):
    """(I : g^infinity), by iterating the quotient until it stabilizes."""
    if g.is_zero():
        raise ValueError("saturation by the zero element")
    current = ideal
    while True:
        nxt = ideal_quotient(current, g)
        if ideal_equal(nxt, current):
            return current
        current = nxt
