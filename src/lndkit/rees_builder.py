"""Ordinary and symbolic powers of ideals and truncated symbolic Rees
algebras, plus the comparison of kernel generators against the graded
pieces.

Symbolic powers are computed by saturating at a user-supplied element
rather than through primary decomposition; multiplicativity diagnostics
catch an unsound saturator empirically.
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
    gens = [g for g in ideal.generators if not g.is_zero()]
    if not gens:
        return Ideal([Polynomial.zero(vars)], vars)
    products = []
    for combo in combinations_with_replacement(gens, n):
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
    s = ring.normal(saturator)
    lifted_i = ring.lifted_ideal(ideal.generators)
    if s.is_zero() or ideal_member(s, lifted_i):
        raise DegenerateInputError("saturating element lies in the ideal")
    power = ideal_power(ideal, n)
    lifted = ring.lifted_ideal(power.generators)
    sat = saturation(lifted, s)
    gens = [ring.normal(g) for g in sat.generators]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [Polynomial.zero(ring.vars)]
    return Ideal(gens, ring.vars)


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
    """Graded pieces of the symbolic Rees algebra up to degree n, with all
    containment and multiplicativity checks executed.

    Failures mean the saturator cannot be trusted for this ideal and are
    raised, never silently recorded.
    """
    if n < 1:
        raise DegenerateInputError("truncation must be at least 1")
    pieces = [Ideal([Polynomial.one(ring.vars)], ring.vars)]
    for k in range(1, n + 1):
        pieces.append(symbolic_power(ideal, k, saturator, ring))
    failures = []
    for k in range(1, n + 1):
        lifted = ring.lifted_ideal(pieces[k].generators)
        for g in ideal_power(ideal, k).generators:
            if not ideal_member(g, lifted):
                failures.append(f"I^{k} not inside piece {k}")
                break
    for a in range(1, n + 1):
        for b in range(a, n + 1 - a):
            target = ring.lifted_ideal(pieces[a + b].generators)
            ok = all(
                ideal_member(ring.normal(ga * gb), target)
                for ga in pieces[a].generators
                for gb in pieces[b].generators)
            if not ok:
                failures.append(f"piece {a} * piece {b} escapes piece {a + b}")
    if failures:
        raise SaturatorUnsoundError(
            "saturator unsound for this ideal: " + "; ".join(failures))
    return ReesData(ring, ideal, n, pieces, ring.normal(saturator))


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
        cofactor = _coefficient_of_power(g, grading_var, max(i, 0))
        pure = cofactor * Polynomial.variable(grading_var, ring.vars) ** max(i, 0)
        note = "" if ring.equal(g, pure) else "mixed terms below the top grading degree"
        if i <= 0:
            in_piece = True  # piece 0 is the whole ring
            i = 0
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
