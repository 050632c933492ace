"""Groebner bases and the ideal toolkit every downstream test uses.

Membership, quotient, saturation, elimination and equality all reduce to
reduced Groebner bases, built by a signature-based Buchberger loop
(`_buchberger`).  Every J-pair reduction is charged to the current budget
scope (`config.budget`, summed over all the runs in it), so runaway
computations end in clean errors instead of wrong answers.  The loop
divides by the elements' division records (`poly_core`) and builds each
element monic from its integer remainder row; each element keeps its
record, cached on it, for every normal form taken modulo the basis.  The
pair queue, both criteria and inter-reduction read the records' packed
leading monomials, so they test divisibility as the division loop does,
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
    regular_remainder,
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
    `basis_memo` scope when it already holds one for them.  Generators
    over different variables raise VariableMismatchError."""
    generators = tuple(generators)
    for g in generators[1:]:
        generators[0]._check(g)
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

    A signature loop (Faugere, "A new efficient algorithm for computing
    Groebner bases without reduction to zero (F5)", ISSAC 2002; Gao, Volny
    and Wang, "A new framework for computing Groebner bases", Math. Comp.
    85, 2016; Roune and Stillman, "Practical Groebner basis computation",
    ISSAC 2012).  The slimmed inputs f_0, ..., f_(n-1) stand for the unit
    vectors e_i of a free module, and every element kept is g = sum a_i f_i
    with the signature of its vector, the largest u*e_i in the Schreyer
    order: u*e_i is below v*e_k when u*lm(f_i) is below v*lm(f_k) in the
    ring order, or it equals it and i < k.  Under the layout's packing
    (`poly_core._Layout`), which reverses the order, u*e_i is the int
    (X(u*lm(f_i)) << width) + mask - i, and a larger int is a smaller
    signature; a multiple by the packed t adds t << width.  An element's
    ratio, (X(lm(g)) << width) - sig(g), is the same for all its multiples.

    For two elements whose leads have the lcm L, the J-pair is the one of
    the multiples (L/lm(g))*g with the larger signature; when both
    signatures are equal there is none.  J-pairs pop in increasing
    signature T = u*e_i, and one is skipped, with no reduction:
    - by the syzygy criterion, when a known syzygy's signature divides T:
      the Koszul syzygy f_k*e_i - f_i*e_k of inputs k < i, of signature
      lm(f_k)*e_i (a memo keeps the first input lead dividing each u),
      every T that reduced to zero, and the pair's own Koszul syzygy when
      the two leads are coprime, which is never queued;
    - by the rewrite criterion, when another element h with sig(h) | T has
      a larger ratio: its multiple of signature T has a smaller lead, so
      it covers T (the sig-lead ratio order; this covers the singular
      criterion too).
    Every other J-pair is charged to the current budget, which raises
    BudgetExceededError past its pair limit, and reduced regularly:
    t*g acts only when t*sig(g) < T (`regular_remainder`).  A zero is a
    new syzygy; anything else is kept with signature T, monic and with its
    record already made.  When no J-pair is left, every J-pair is covered,
    so the elements form a Groebner basis (Gao, Volny and Wang's cover
    theorem), which `_interreduce` makes reduced.  The run's reductions
    share `firsts`, a memo of first divisors, valid as `records` only
    grows by appending (`_reduce`).
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

    vars = basis[0].vars
    layout = _layout(order, len(vars))
    weights, guard = layout.weights, layout.guard
    n = len(basis)
    width = n.bit_length()
    mask = (1 << width) - 1
    start, basis = basis, []
    lms, records, leads, sigs, ratios, heap = [], [], [], [], [], []
    # per input i: the elements with signature on e_i, and the packed u of
    # every signature u*e_i that reduced to zero
    parts = [[] for _ in start]
    zeros = [[] for _ in start]
    # packed u -> the first input whose lead divides u, n for none
    koszul = {}

    def add(p, sig):
        """Keep p with signature sig and queue its J-pairs with the
        elements kept before it."""
        new = len(basis)
        lm = p.leading_monomial(order)
        record = p.division_record(order)
        lead = record[0]
        # X(lcm(lm, m)) = X(m) + X(d), d the part of lm that m lacks, packed
        # from the multiples of the weights of lm's few variables
        steps = [(i, e, [j * weights[i] for j in range(e + 1)])
                 for i, e in enumerate(lm) if e]
        for k, m in enumerate(lms):
            d = sum([row[e - m[i]] for i, e, row in steps if m[i] < e])
            if d == lead:
                continue
            a, b = sig + ((leads[k] + d - lead) << width), sigs[k] + (d << width)
            if a != b:
                heappush(heap, (-a, new) if a < b else (-b, k))
        basis.append(p)
        lms.append(lm)
        records.append(record)
        leads.append(lead)
        sigs.append(sig)
        ratios.append((lead << width) - sig)
        parts[mask - (sig & mask)].append(new)

    for i, p in enumerate(start):
        add(p, (p.division_record(order)[0] << width) + mask - i)
    firsts = {}

    while heap:
        sig, j = heappop(heap)
        sig = -sig
        i = mask - (sig & mask)
        u = (sig >> width) - leads[i]
        # f_k*e_i - f_i*e_k, k < i, has the signature lm(f_k)*e_i
        first = koszul.get(u)
        if first is None:
            first = koszul[u] = next((k for k in range(n) if not (u - leads[k]) & guard), n)
        if first < i or any(not (u - z) & guard for z in zeros[i]):
            continue
        ratio = ratios[j]
        if any(ratios[h] > ratio and not ((sig - sigs[h]) >> width) & guard
               for h in parts[i]):
            continue
        budget.charge_pair()
        r = regular_remainder(vars, (sig - sigs[j]) >> width, records[j],
                              (sig, width, ratios), records, order, firsts)
        if r.is_zero():
            zeros[i].append(u)
        else:
            add(r, sig)

    return GroebnerBasis(_interreduce(basis, records, order, guard), order)


def normal_form(f, basis):
    """The unique remainder of f modulo a reduced GroebnerBasis; f itself
    modulo the zero basis, which has no elements.  VariableMismatchError
    when f lives over other variables than the basis (`remainder`)."""
    return remainder(f, basis.elements, basis.order)


def ideal_member(f, ideal, order=GREVLEX):
    """True iff f lies in the ideal; VariableMismatchError when f lives
    over other variables than the ideal."""
    if f.vars != ideal.vars:
        raise VariableMismatchError(f"element over {f.vars}, ideal over {ideal.vars}")
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
