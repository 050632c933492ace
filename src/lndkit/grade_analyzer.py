"""Grade computation for image ideals of derivations.

Grades are reported from the value set {0, 1, 2, inf}: the unit ideal gets
inf, and anything of true depth beyond two is capped at 2, which is all
the downstream classification distinguishes.  Nonzero proper ideals of a
domain always have grade at least 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

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
from .presentation import nzd_test


class GradeValue(Enum):
    ONE = "1"
    TWO = "2"
    INFINITE = "inf"

    def __str__(self):
        return self.value


@dataclass
class GradeReport:
    """Outcome of a grade computation.

    The witness is a regular sequence of the reported length (empty for
    the unit ideal).  `exhaustive` marks a deterministic conclusion;
    `probabilistic` flags a value-1 answer that rests on failed random
    trials only (it is never set when the quotient certificate ran).
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
    if not images:
        return Ideal([Polynomial.zero(d.ring.vars)], d.ring.vars)
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


def _regular_mod(b, a, ring):
    """Is b a nonzerodivisor mod (a)?  Membership of b in (a) counts as no
    (zero is a zerodivisor of a nonzero quotient)."""
    try:
        return bool(nzd_test(b, Ideal([a], ring.vars), ring))
    except DegenerateInputError:
        return False


def grade_two_generated(a, b, ring):
    """Grade of a two-generated ideal (a, b) of a presented domain.

    inf when the ideal is the unit ideal; 2 exactly when the pair forms a
    regular sequence in some order; otherwise 1.
    """
    a, b = ring.normal(a), ring.normal(b)
    if a.is_zero() and b.is_zero():
        raise DegenerateInputError("both generators reduce to zero")
    lifted = ring.lifted_ideal([a, b])
    if ideal_member(ring.one(), lifted):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal")
    nonzero = [p for p in (a, b) if not p.is_zero()]
    if len(nonzero) <= 1:
        return GradeReport(GradeValue.ONE, nonzero[:1], "two-generator")
    a, b = nonzero
    if _regular_mod(b, a, ring):
        return GradeReport(GradeValue.TWO, [a, b], "two-generator")
    if _regular_mod(a, b, ring):
        return GradeReport(GradeValue.TWO, [b, a], "two-generator")
    return GradeReport(GradeValue.ONE, [a], "two-generator")


def generic_combination_grade(ideal, ring, trials=None, seed=0):
    """Grade of an ideal with three or more generators, capped at 2.

    Searches for a length-2 regular sequence among generator pairs and
    random small-integer combinations (prime avoidance over Q makes
    generic choices succeed whenever the grade is at least 2).  When the
    search fails, the answer 1 is certified deterministically: with a the
    first nonzero generator, ((a) : I) = (a) holds iff some element of I
    is regular mod a, so a strictly larger quotient proves grade 1.
    """
    if trials is None:
        trials = config.DEFAULT_TRIALS
    gens = [ring.normal(g) for g in ideal.generators]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("ideal reduces to zero")
    lifted = ring.lifted_ideal(gens)
    if ideal_member(ring.one(), lifted):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal", seed=seed)
    if len(gens) == 1:
        return GradeReport(GradeValue.ONE, gens[:1], "generic-combination", seed=seed)

    a = gens[0]
    quotients = []
    for b in gens[1:]:
        if _regular_mod(b, a, ring):
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed)
        quotients.append(ideal_quotient(ring.lifted_ideal([a]), b))

    rng = random.Random(seed)
    for _ in range(trials):
        b = ring.normal(_random_combination(rng, gens))
        if b.is_zero():
            continue
        if _regular_mod(b, a, ring):
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed)

    # certificate: ((a) : I) strictly larger than (a) + relations forces
    # every element of I to be a zerodivisor mod a, hence grade 1
    colon = quotients[0]
    for q in quotients[1:]:
        colon = ideal_intersection(colon, q)
    lifted_a = ring.lifted_ideal([a])
    basis = lifted_a.groebner()
    excess = [h for h in colon.generators
              if not normal_form(h, basis).is_zero()]
    if excess:
        return GradeReport(GradeValue.ONE, [a], "generic-combination",
                           seed=seed,
                           notes=[f"zerodivisor certificate: {excess[0]}"])
    # the certificate says a regular partner exists; widen the search
    for extra in range(trials, 16 * max(trials, 1)):
        b = ring.normal(_random_combination(rng, gens, spread=1 + extra // trials))
        if b.is_zero():
            continue
        if _regular_mod(b, a, ring):
            return GradeReport(GradeValue.TWO, [a, b], "generic-combination",
                               seed=seed,
                               notes=["witness found after widened search"])
    return GradeReport(GradeValue.ONE, [a], "generic-combination",
                       exhaustive=False, probabilistic=True, seed=seed,
                       notes=["trials exhausted; certificate inconclusive"])


def _random_combination(rng, gens, spread=1):
    bound = 9 * spread
    combo = Polynomial.zero(gens[0].vars)
    for g in gens:
        combo = combo + g * rng.randint(-bound, bound)
    return combo


def grade_of_ideal(ideal, ring, trials=None, seed=0):
    """Grade of an ideal of a presented domain: the two-generator test for
    at most two nonzero generators, the generic-combination search beyond."""
    gens = [g for g in ideal.generators if not g.is_zero()]
    if not gens:
        raise DegenerateInputError("zero ideal has no grade")
    if len(gens) <= 2:
        b = gens[1] if len(gens) > 1 else Polynomial.zero(ring.vars)
        return grade_two_generated(gens[0], b, ring)
    return generic_combination_grade(ideal, ring, trials=trials, seed=seed)


def grade_of_derivation(d, trials=None, seed=0):
    """Grade of the ideal generated by all variable images of d."""
    if d.is_zero():
        raise DegenerateInputError("zero derivation has no image ideal")
    if fpf_test(d):
        return GradeReport(GradeValue.INFINITE, [], "unit-ideal", seed=seed)
    return grade_of_ideal(image_ideal(d), d.ring, trials=trials, seed=seed)
