"""Finite presentations of quotient rings and finitely generated subalgebras.

A PresentedRing is an ambient polynomial ring modulo a reduced Groebner
basis of relations; elements are always stored as normal forms, and
equality is equality of normal forms.  A Subalgebra carries a tag-variable
elimination basis, which decides membership and produces witnesses in the
generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInputError, VariableMismatchError
from .groebner_engine import (
    GroebnerBasis,
    Ideal,
    buchberger,
    ideal_member,
    ideal_quotient,
    normal_form,
)
from .poly_core import GREVLEX, MonomialOrder, Polynomial


class PresentedRing:
    """Q[vars] / (relations), with relations a reduced Groebner basis.

    No relations, or only zero ones, present the polynomial ring itself:
    its basis has no elements.  `domain` is True when the ring is known to
    be a domain: a polynomial ring or a subalgebra of a domain.  A
    quotient is not assumed to be one.
    """

    def __init__(self, vars, relations=None, order=GREVLEX):
        self.vars = tuple(vars)
        self.order = order
        if not isinstance(relations, GroebnerBasis):
            relations = buchberger(relations or [], order)
        self.relations = relations
        self.domain = not self.has_relations()

    @classmethod
    def polynomial_ring(cls, vars):
        return cls(vars)

    @classmethod
    def quotient(cls, vars, relation_gens, order=GREVLEX):
        basis = buchberger(relation_gens, order)
        if basis.is_trivial():
            raise DegenerateInputError("relations generate the unit ideal")
        return cls(vars, basis, order)

    def has_relations(self):
        return bool(self.relations.elements)

    def normal(self, f):
        if f.vars != self.vars:
            raise VariableMismatchError(
                f"element over {f.vars}, ring over {self.vars}")
        if not self.has_relations():
            return f
        return normal_form(f, self.relations)

    def is_zero(self, f):
        return self.normal(f).is_zero()

    def equal(self, f, g):
        return self.normal(f) == self.normal(g)

    def lifted_ideal(self, gens):
        """Ideal of the ambient polynomial ring: (gens) + relations."""
        all_gens = [self.normal(g) for g in gens if not self.is_zero(g)]
        all_gens += list(self.relations.elements)
        return Ideal(all_gens, self.vars)

    def zero(self):
        return Polynomial.zero(self.vars)

    def one(self):
        return Polynomial.one(self.vars)

    def variable(self, name):
        return self.normal(Polynomial.variable(name, self.vars))

    def __repr__(self):
        rels = ", ".join(str(p) for p in self.relations.elements) or "0"
        return f"PresentedRing({', '.join(self.vars)}; {rels})"


def _tag_names(count, taken):
    names = []
    taken = set(taken)
    i = 1
    while len(names) < count:
        name = f"T{i}"
        while name in taken:
            name = "_" + name
        names.append(name)
        taken.add(name)
        i += 1
    return names


@dataclass
class MembershipResult:
    member: bool
    witness: object = None  # polynomial in the tag variables when member

    def __bool__(self):
        return self.member


class Subalgebra:
    """A finitely generated subalgebra of a presented ring.

    The tag basis is the Groebner basis of (T_i - g_i) + lifted relations
    under an order eliminating the ambient variables; it is computed once,
    eagerly, so queries are read-only.
    """

    def __init__(self, ambient, generators):
        self.ambient = ambient
        gens = []
        for g in generators:
            g = ambient.normal(g)
            if g.is_zero():
                raise DegenerateInputError("zero subalgebra generator")
            gens.append(g)
        if not gens:
            raise ValueError("a subalgebra needs at least one generator")
        self.generators = gens
        self.tag_vars = tuple(_tag_names(len(gens), ambient.vars))
        self.combined_vars = tuple(ambient.vars) + self.tag_vars
        self.tag_order = MonomialOrder.elimination(len(ambient.vars))
        tag_gens = []
        for name, g in zip(self.tag_vars, gens):
            tag_gens.append(Polynomial.variable(name, self.combined_vars)
                            - g.embed(self.combined_vars))
        for rel in ambient.relations.elements:
            tag_gens.append(rel.embed(self.combined_vars))
        self.tag_basis = buchberger(tag_gens, self.tag_order)
        self._presented = None

    def member(self, f):
        """Membership with a witness expression in the generators."""
        f = self.ambient.normal(f)
        nf = normal_form(f.embed(self.combined_vars), self.tag_basis)
        if nf.uses_only(self.tag_vars):
            return MembershipResult(True, nf.restrict(self.tag_vars))
        return MembershipResult(False)

    def express(self, f):
        res = self.member(f)
        if not res.member:
            raise DegenerateInputError(
                f"{f} is not a member of the subalgebra")
        return res.witness

    def to_ambient(self, tag_poly):
        """Substitute the generators back into a tag polynomial."""
        images = {name: g for name, g in zip(self.tag_vars, self.generators)}
        value = tag_poly.substitute(images, self.ambient.vars)
        return self.ambient.normal(value)

    def presentation_ideal(self):
        """Relations among the generators: tag basis intersected with Q[T]."""
        kept = [p.restrict(self.tag_vars) for p in self.tag_basis.elements
                if p.uses_only(self.tag_vars)]
        return Ideal(kept, self.tag_vars)

    def presented_ring(self):
        """The subalgebra as a presented ring over its tag variables.

        The block order restricted to the tags is grevlex, so the tag-only
        elements of the reduced tag basis are already the reduced grevlex
        basis of the relations, in grevlex order.
        """
        if self._presented is None:
            rels = self.presentation_ideal().generators
            self._presented = PresentedRing(self.tag_vars, GroebnerBasis(rels, GREVLEX))
            self._presented.domain = self.ambient.domain
        return self._presented

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Subalgebra({gens})"


def present_subalgebra(ambient, generators):
    return Subalgebra(ambient, generators)


@dataclass
class NzdResult:
    regular: bool
    witness: object = None  # h with h*g in the ideal but h outside it
    colon: Ideal = None  # ((ideal + relations) : g) in the ambient ring

    def __bool__(self):
        return self.regular


def nzd_test(g, mod_ideal, ring, lifted=None):
    """Is g a nonzerodivisor modulo the ideal in the presented ring?

    True iff ((mod_ideal + relations) : g) equals mod_ideal + relations in
    the ambient polynomial ring; the result carries that colon ideal.  When
    false, a witness h with h*g inside but h outside is extracted from the
    quotient basis.  A caller that already holds mod_ideal + relations, as
    `ring.lifted_ideal` made it, passes it as `lifted`, so that its cached
    Groebner basis serves this test too.
    """
    if lifted is None:
        lifted = ring.lifted_ideal(
            mod_ideal.generators if isinstance(mod_ideal, Ideal) else mod_ideal)
    g = ring.normal(g)
    if g.is_zero() or ideal_member(g, lifted):
        raise DegenerateInputError(
            "element reduces to zero modulo relations and the ideal")
    quotient = ideal_quotient(lifted, g)
    basis = lifted.groebner()
    for h in quotient.generators:
        if not normal_form(h, basis).is_zero():
            return NzdResult(False, ring.normal(h), quotient)
    return NzdResult(True, colon=quotient)
