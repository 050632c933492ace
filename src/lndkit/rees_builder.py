"""Ordinary and symbolic powers of ideals and truncated symbolic Rees
algebras, plus the comparison of kernel generators against the graded
pieces.

Symbolic powers are computed by saturating at a user-supplied element
rather than through primary decomposition; that this gives the symbolic
power is the user's claim, which no check here can refute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import DegenerateInputError, SaturatorUnsoundError
from .groebner_engine import Ideal, ideal_member, saturation
from .poly_core import Polynomial


def ideal_power(ideal, n):
    """Generators of I^n: all n-fold products of the generators (I^0 = (1))."""
    if n < 0:
        raise DegenerateInputError("negative ideal power")
    vars = ideal.vars
    if n == 0:
        return Ideal([Polynomial.one(vars)], vars)
    products = []
    for combo in combinations_with_replacement(ideal.generators, n):
        p = Polynomial.one(vars)
        for g in combo:
            p = p * g
        products.append(p)
    return Ideal(products, vars)


def symbolic_power(ideal, n, saturator, ring):
    """The n-th symbolic power (I^n : s^infinity), computed in the ambient
    polynomial ring with the relations adjoined.

    The saturating element must stay outside I + relations.
    """
    return _saturated_power(ideal, n, _checked_saturator(ideal, saturator, ring), ring)


def _checked_saturator(ideal, saturator, ring):
    """The saturator's normal form, which must stay outside I + relations."""
    s = ring.normal(saturator)
    if s.is_zero() or ideal_member(s, ring.lifted_ideal(ideal.generators)):
        raise DegenerateInputError("saturating element lies in the ideal")
    return s


def _saturated_power(ideal, n, s, ring):
    """(I^n : s^infinity) for a saturator already checked."""
    sat = saturation(ring.lifted_ideal(ideal_power(ideal, n).generators), s)
    return Ideal([ring.normal(g) for g in sat.generators], ring.vars)


@dataclass
class ReesData:
    """Truncated symbolic Rees algebra: graded pieces I^(0) .. I^(n)."""

    ring: object
    ideal: Ideal
    truncation: int
    pieces: list
    saturator: Polynomial
    notes: list = field(default_factory=list)


def rees_truncation(ideal, n, saturator, ring):
    """Pieces (L_k : s^infinity), L_k = I^k + relations, up to k = n, with
    I^k inside piece k and piece a * piece b inside piece a + b checked.

    Both hold for every saturator, since L_a * L_b lies in L_{a+b}: they
    catch a wrong computation, not a saturator that misses an embedded
    prime of I^k, whose pieces fall short of the symbolic powers.  A
    failure is raised, never silently recorded.
    """
    if n < 1:
        raise DegenerateInputError("truncation must be at least 1")
    s = _checked_saturator(ideal, saturator, ring)  # once, not once per piece
    pieces = [Ideal([Polynomial.one(ring.vars)], ring.vars)]
    pieces += [_saturated_power(ideal, k, s, ring) for k in range(1, n + 1)]
    # each piece lifted once: the Ideal caches its Groebner bases for both loops
    lifted = [ring.lifted_ideal(piece.generators) for piece in pieces]
    failures = []
    for k in range(1, n + 1):
        for g in ideal_power(ideal, k).generators:
            if not ideal_member(g, lifted[k]):
                failures.append(f"I^{k} not inside piece {k}")
                break
    for a in range(1, n + 1):
        for b in range(a, n + 1 - a):
            ok = all(
                ideal_member(ring.normal(ga * gb), lifted[a + b])
                for ga in pieces[a].generators
                for gb in pieces[b].generators)
            if not ok:
                failures.append(f"piece {a} * piece {b} escapes piece {a + b}")
    if failures:
        raise SaturatorUnsoundError(
            "saturator unsound for this ideal: " + "; ".join(failures))
    return ReesData(ring, ideal, n, pieces, s)


@dataclass
class ReesKernelEntry:
    generator: Polynomial
    grading_degree: int
    cofactor: Polynomial
    in_piece: bool
    note: str = ""


@dataclass
class ReesKernelComparison:
    entries: list
    ok: bool


def compare_kernel_to_rees(kernel_report, rees_data, grading_var):
    """Check each kernel generator against the graded Rees pieces.

    A generator's grading degree is its top power of the grading variable;
    the coefficient of that power must lie in the matching symbolic power
    (degree 0 pieces are the whole ring).  Generators with extra lower
    terms are noted, not rejected.
    """
    ring = rees_data.ring
    entries = []
    for g in kernel_report.generators or kernel_report.basis:
        g = ring.normal(g) if g.vars == ring.vars else g.embed(ring.vars)
        i = g.degree_in(grading_var)
        if i < 0:
            continue
        cofactor = _coefficient_of_power(g, grading_var, i)
        pure = cofactor * Polynomial.variable(grading_var, ring.vars) ** i
        note = "" if ring.equal(g, pure) else "mixed terms below the top grading degree"
        if i == 0:
            in_piece = True  # piece 0 is the whole ring
        elif i >= len(rees_data.pieces):
            in_piece = False
            note = (note + "; " if note else "") + "grading degree beyond truncation"
        else:
            lifted = ring.lifted_ideal(rees_data.pieces[i].generators)
            in_piece = ideal_member(cofactor, lifted)
        entries.append(ReesKernelEntry(g, i, cofactor, in_piece, note))
    return ReesKernelComparison(entries, all(e.in_piece for e in entries))


def _coefficient_of_power(p, name, power):
    i = p.vars.index(name)
    terms = {}
    for m, c in p.terms.items():
        if m[i] == power:
            terms[m[:i] + (0,) + m[i + 1:]] = c
    return Polynomial(p.vars, terms)
