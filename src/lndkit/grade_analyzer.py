"""Grade computation for image ideals of derivations.

Grades are reported from the value set {0, 1, 2, inf}: the unit ideal gets
inf, and anything of true depth beyond two is capped at 2, which is all
the downstream classification distinguishes.  A witness is a regular
sequence on the presented ring itself: unless the ring is known to be a
domain (`PresentedRing.domain`: a polynomial ring or a subalgebra of one),
its first element passes a nonzerodivisor test, and an ideal of
zerodivisors gets grade 0, certified by a nonzero annihilator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from . import config
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
    """Outcome of a grade computation.

    The witness is a regular sequence of the reported length (empty for
    the unit ideal and for grade 0).  Every value is certified, so
    `exhaustive` stays True and `probabilistic` False: a search that fails
    where its colon certificate says a witness exists raises instead.
    """

    value: GradeValue
    witness: list = field(default_factory=list)
    method: str = "two-generator"
    exhaustive: bool = True
    probabilistic: bool = False
    seed: int = None
    notes: list = field(default_factory=list)


def image_ideal(d):
    """The ideal generated by the variable images (relations not included)."""
    images = [p for _, p in d.nonzero_images()]
    # deduplicate for stable, lean generator lists
    seen, gens = set(), []
    for p in images:
        key = frozenset(p.terms.items())
        if key not in seen:
            seen.add(key)
            gens.append(p)
    return Ideal(gens, d.ring.vars)


def fpf_test(d):
    """Fixed point free: the images generate the unit ideal mod relations."""
    ideal = d.ring.lifted_ideal([p for _, p in d.nonzero_images()])
    return ideal_member(d.ring.one(), ideal)


def _regular(g, ring):
    """Is the nonzero element g a nonzerodivisor of the ring?  Always on a
    ring known to be a domain, where no colon is computed."""
    return ring.domain or nzd_test(g, [], ring).regular


def _regular_mod(b, a, ring):
    """Is b a nonzerodivisor mod (a)?  Membership of b in (a) counts as no
    (zero is a zerodivisor of a nonzero quotient), with no colon computed."""
    try:
        return nzd_test(b, Ideal([a], ring.vars), ring)
    except DegenerateInputError:
        return NzdResult(False)


def _outside(colons, base):
    """An element of the intersection of the colon ideals that lies outside
    the base ideal, or None."""
    colon = colons[0]
    for q in colons[1:]:
        colon = ideal_intersection(colon, q)
    basis = base.groebner()
    return next((h for h in colon.generators
                 if not normal_form(h, basis).is_zero()), None)


def _grade_zero(gens, ring, method, seed=None):
    """Grade 0 for an ideal in which no element regular on the ring was
    found: certified when (relations : I) is strictly larger than the
    relations, i.e. a nonzero element of the ring kills the whole ideal."""
    relations = ring.lifted_ideal([])
    killer = _outside([ideal_quotient(relations, g) for g in gens], relations)
    if killer is None:
        raise DegenerateInputError(
            "no element regular on the ring found among the generators and "
            "their combinations, although (relations : I) = relations")
    return GradeReport(GradeValue.ZERO, [], method, seed=seed,
                       notes=[f"annihilator certificate: {killer}"])


def grade_two_generated(a, b, ring, trials=None, seed=0):
    """Grade of a two-generated ideal (a, b) of a presented ring.

    inf when the ideal is the unit ideal; 2 exactly when the pair forms a
    regular sequence in some order; 1 when a generator is regular on the
    ring.  When neither is, the generic-combination search decides.
    """
    trials = _trials(trials)
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
            if second is not first and _regular_mod(second, first, ring):
                return GradeReport(GradeValue.TWO, [first, second], "two-generator")
    if regular:
        return GradeReport(GradeValue.ONE, regular[:1], "two-generator")
    return generic_combination_grade(Ideal(nonzero, ring.vars), ring,
                                     trials=trials, seed=seed)


def generic_combination_grade(ideal, ring, trials=None, seed=0):
    """Grade of an ideal, capped at 2: grade_of_ideal's route beyond two
    generators, and grade_two_generated's when neither generator is regular.

    The first witness element a is the first generator regular on the
    ring, else the first regular random combination; with none, the
    ideal has grade 0 (see _grade_zero).  Then it searches for a partner
    regular mod a among the other generators and random small-integer
    combinations (prime avoidance over Q makes generic choices succeed
    whenever the grade is at least 2).  When the search fails, the answer
    1 is certified deterministically: ((a) : I) = (a) holds iff some
    element of I is regular mod a, so a strictly larger quotient proves
    grade 1.  Equality proves grade at least 2: a widened search then
    looks for the partner, and raises DegenerateInputError when it finds
    none, rather than report a value the certificate contradicts.
    """
    trials = _trials(trials)
    gens = [ring.normal(g) for g in ideal.generators]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("ideal reduces to zero")
    lifted = ring.lifted_ideal(gens)
    if ideal_member(ring.one(), lifted):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal", seed=seed)

    rng = random.Random(seed)
    # combinations of one generator are its multiples: regular only if it is
    combinations = (ring.normal(_random_combination(rng, gens))
                    for _ in range(trials if len(gens) > 1 else 0))
    a = next((g for g in chain(gens, combinations)
              if not g.is_zero() and _regular(g, ring)), None)
    if a is None:
        return _grade_zero(gens, ring, "generic-combination", seed)
    partners = [g for g in gens if g is not a]
    if not partners:
        return GradeReport(GradeValue.ONE, [a], "generic-combination", seed=seed)

    quotients = []
    for b in partners:
        result = _regular_mod(b, a, ring)
        if result:
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed)
        # nzd_test built the colon ((a) : b) unless b lies in (a)
        quotients.append(result.colon or ideal_quotient(ring.lifted_ideal([a]), b))

    for _ in range(trials):
        b = ring.normal(_random_combination(rng, gens))
        if b.is_zero():
            continue
        if _regular_mod(b, a, ring):
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed)

    # certificate: ((a) : I) strictly larger than (a) + relations forces
    # every element of I to be a zerodivisor mod a, hence grade 1
    excess = _outside(quotients, ring.lifted_ideal([a]))
    if excess is not None:
        return GradeReport(GradeValue.ONE, [a], "generic-combination",
                           seed=seed,
                           notes=[f"zerodivisor certificate: {excess}"])
    # the certificate says a regular partner exists; widen the search
    for extra in range(trials, 16 * trials):
        b = ring.normal(_random_combination(rng, gens, spread=1 + extra // trials))
        if b.is_zero():
            continue
        if _regular_mod(b, a, ring):
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed,
                               notes=["witness found after widened search"])
    # the colon certificate proves grade >= 2, so grade 1 would be false
    raise DegenerateInputError(
        f"colon certificate ((a) : I) = (a) + relations for a = {a} proves "
        f"grade >= 2, but no element regular mod a was found among the "
        f"generators and {16 * trials} random combinations")


def _trials(trials):
    """The number of random trials: the configured default for None; fewer
    than one leaves the search nothing to try."""
    if trials is None:
        return config.DEFAULT_TRIALS
    if trials < 1:
        raise DegenerateInputError(f"trials must be at least 1, not {trials}")
    return trials


def _random_combination(rng, gens, spread=1):
    bound = 9 * spread
    combo = Polynomial.zero(gens[0].vars)
    for g in gens:
        combo = combo + g * rng.randint(-bound, bound)
    return combo


def grade_of_ideal(ideal, ring, trials=None, seed=0):
    """Grade of an ideal of a presented ring: the two-generator test for
    at most two nonzero generators, the generic-combination search beyond."""
    gens = ideal.generators
    if not gens:
        raise DegenerateInputError("zero ideal has no grade")
    if len(gens) <= 2:
        b = gens[1] if len(gens) > 1 else Polynomial.zero(ring.vars)
        return grade_two_generated(gens[0], b, ring, trials=trials, seed=seed)
    return generic_combination_grade(ideal, ring, trials=trials, seed=seed)


def grade_of_derivation(d, trials=None, seed=0):
    """Grade of the ideal generated by all variable images of d."""
    if d.is_zero():
        raise DegenerateInputError("zero derivation has no image ideal")
    if fpf_test(d):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal", seed=seed)
    return grade_of_ideal(image_ideal(d), d.ring, trials=trials, seed=seed)
