"""Grade computation for image ideals of derivations.

Grades are reported from the value set {0, 1, 2, inf}: the unit ideal gets
inf, and anything of true depth beyond two is capped at 2, which is all
the downstream classification distinguishes.  A witness is a regular
sequence on the presented ring itself: unless the ring is known to be a
domain (`PresentedRing.domain`: a polynomial ring or a subalgebra of one),
its first element passes a nonzerodivisor test.

Every value is decided by a colon certificate, with no search budget,
and the same input always gets the same witness.  An ideal I contains an
element regular on R exactly when (relations : I) = relations, and, for
a regular a in I, an element regular mod a exactly when ((a) : I) = (a) +
relations (prime avoidance: I then lies in no associated prime; Bruns and
Herzog, Cohen-Macaulay Rings, 1.2).  A certificate that says such an
element exists is backed by a witness from the moment curve
g_1 + t*g_2 + ... + t^(n-1)*g_n, t = 1, 2, ...: for each of the finitely
many associated primes Q not containing I, the curve is a nonzero
polynomial in t of degree at most n - 1 over the domain R/Q, so at most
n - 1 values of t put it in Q.  Each test the search runs is a Groebner
computation, charged to the pair budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import count

from .errors import DegenerateInputError
from .groebner_engine import (
    Ideal,
    ideal_intersection,
    ideal_member,
    ideal_quotient,
    normal_form,
)
from .poly_core import Polynomial
from .presentation import NzdResult, nzd_test


class GradeValue(Enum):
    ZERO = "0"
    ONE = "1"
    TWO = "2"
    INFINITE = "inf"

    def __str__(self):
        return self.value


@dataclass
class GradeReport:
    """Outcome of a grade computation: a regular sequence of the reported
    length as witness (empty for the unit ideal and for grade 0), and the
    colon certificate behind a value the witness alone does not prove."""

    value: GradeValue
    witness: list = field(default_factory=list)
    method: str = "two-generator"
    notes: list = field(default_factory=list)


def image_ideal(d):
    """The ideal generated by the variable images (relations not included)."""
    # equal images once each, in variable order, for stable, lean generator lists
    return Ideal(dict.fromkeys(p for _, p in d.nonzero_images()), d.ring.vars)


def fpf_test(d):
    """Fixed point free: the images generate the unit ideal mod relations."""
    ideal = d.ring.lifted_ideal([p for _, p in d.nonzero_images()])
    return ideal_member(d.ring.one(), ideal)


def _regular(g, ring):
    """Is the nonzero element g a nonzerodivisor of the ring?  Always on a
    ring known to be a domain, where no colon is computed."""
    return ring.domain or nzd_test(g, [], ring).regular


def _regular_mod(b, a, modulus, ring):
    """Is b a nonzerodivisor mod (a)?  `modulus` is (a) + relations, lifted
    once per a, so that one Groebner basis serves every test mod a.
    Membership of b in (a) counts as no (zero is a zerodivisor of a nonzero
    quotient), with no colon computed."""
    try:
        return nzd_test(b, [a], ring, lifted=modulus)
    except DegenerateInputError:
        return NzdResult(False)


def _outside(colons, base):
    """An element of the intersection of the colon ideals that lies outside
    the base ideal, or None."""
    colon = reduce(ideal_intersection, colons)
    basis = base.groebner()
    return next((h for h in colon.generators
                 if not normal_form(h, basis).is_zero()), None)


def _moment_point(gens, ring, accept):
    """The first nonzero g_1 + t*g_2 + ... + t^(n-1)*g_n, t = 1, 2, ...,
    that `accept` takes.  Called only where a colon certificate proves
    that the search ends (see the module docstring)."""
    for t in count(1):
        point = Polynomial.zero(ring.vars)
        for i, g in enumerate(gens):
            point = point + g * t**i
        point = ring.normal(point)
        if not point.is_zero() and accept(point):
            return point


def grade_two_generated(a, b, ring):
    """Grade of a two-generated ideal (a, b) of a presented ring.

    inf when the ideal is the unit ideal; 2 exactly when the pair forms a
    regular sequence in some order; 1 when a generator is regular on the
    ring.  When neither is, generic_combination_grade decides.
    """
    a, b = ring.normal(a), ring.normal(b)
    if a.is_zero() and b.is_zero():
        raise DegenerateInputError("both generators reduce to zero")
    lifted = ring.lifted_ideal([a, b])
    if ideal_member(ring.one(), lifted):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal")
    nonzero = [p for p in (a, b) if not p.is_zero()]
    regular = [p for p in nonzero if _regular(p, ring)]
    for first in regular:
        for second in nonzero:
            if second is not first and _regular_mod(second, first,
                                                    ring.lifted_ideal([first]), ring):
                return GradeReport(GradeValue.TWO, [first, second], "two-generator")
    if regular:
        return GradeReport(GradeValue.ONE, regular[:1], "two-generator")
    return generic_combination_grade(Ideal(nonzero, ring.vars), ring)


def generic_combination_grade(ideal, ring):
    """Grade of an ideal, capped at 2: grade_of_ideal's route beyond two
    generators, and grade_two_generated's when neither generator is regular.

    The first witness element a is the first generator regular on the
    ring.  With none, (relations : I) decides: strictly larger than the
    relations, a nonzero element kills I and the grade is 0; equal, a is
    taken from the moment curve.  The partner is the first other generator
    regular mod a.  With none, ((a) : I), the intersection of the colons
    the nonzerodivisor tests built, decides: strictly larger than (a) +
    relations, every element of I is a zerodivisor mod a and the grade is
    1; equal, the grade is 2 and the partner comes from the moment curve.
    """
    gens = [ring.normal(g) for g in ideal.generators]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("ideal reduces to zero")
    lifted = ring.lifted_ideal(gens)
    if ideal_member(ring.one(), lifted):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal")

    a = next((g for g in gens if _regular(g, ring)), None)
    if a is None:
        relations = ring.lifted_ideal([])
        killer = _outside([ideal_quotient(relations, g) for g in gens], relations)
        if killer is not None:
            return GradeReport(GradeValue.ZERO, [], "generic-combination",
                               notes=[f"annihilator certificate: {killer}"])
        a = _moment_point(gens, ring, lambda c: _regular(c, ring))
    partners = [g for g in gens if g is not a]
    if not partners:
        return GradeReport(GradeValue.ONE, [a], "generic-combination")

    modulus, colons = ring.lifted_ideal([a]), []
    for b in partners:
        result = _regular_mod(b, a, modulus, ring)
        if result:
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination")
        # nzd_test built the colon ((a) : b) unless b lies in (a)
        colons.append(result.colon or ideal_quotient(modulus, b))
    excess = _outside(colons, modulus)
    if excess is not None:
        return GradeReport(GradeValue.ONE, [a], "generic-combination",
                           notes=[f"zerodivisor certificate: {excess}"])
    b = _moment_point(gens, ring, lambda c: _regular_mod(c, a, modulus, ring))
    return GradeReport(GradeValue.TWO, [a, b], "generic-combination")


def grade_of_ideal(ideal, ring):
    """Grade of an ideal of a presented ring: the two-generator test for
    at most two nonzero generators, generic_combination_grade beyond."""
    gens = ideal.generators
    if not gens:
        raise DegenerateInputError("zero ideal has no grade")
    if len(gens) <= 2:
        b = gens[1] if len(gens) > 1 else Polynomial.zero(ring.vars)
        return grade_two_generated(gens[0], b, ring)
    return generic_combination_grade(ideal, ring)


def grade_of_derivation(d):
    """Grade of the ideal generated by all variable images of d."""
    if d.is_zero():
        raise DegenerateInputError("zero derivation has no image ideal")
    if fpf_test(d):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal")
    return grade_of_ideal(image_ideal(d), d.ring)
