"""Kernel computation, slice search, Dixmier projection and slice-theorem
reconstruction, plus degree-bounded generator verification.

Kernels are computed by exact linear algebra on the finite-dimensional
space of normal forms up to a stated degree: correctness up to that degree
is unconditional, and no claim is made beyond it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .config import budget, current_budget
from ._linalg import RowSpace, nullspace, solve
from .derivation_engine import apply, certify_nilpotent
from .errors import DegenerateInputError, DimensionBudgetError
from .poly_core import Polynomial, monomial_div


def standard_monomials(ring, degree):
    """Monomials of total degree <= degree that are normal forms mod the
    relations; ascending under (degree, ring order).  Raises
    DimensionBudgetError past the current budget's monomial limit."""
    limit = current_budget().dims
    lts = [p.leading_monomial(ring.order) for p in ring.relations.elements] \
        if ring.has_relations() else []
    n = len(ring.vars)
    out = []

    def emit(mono):
        if all(monomial_div(mono, lt) is None for lt in lts):
            out.append(mono)
            if len(out) > limit:
                raise DimensionBudgetError(
                    f"dimension budget {limit} exceeded at degree {degree}")

    def rec(pos, remaining, prefix):
        if pos == n - 1:
            for e in range(remaining + 1):
                emit(prefix + (e,))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, prefix + (e,))

    if n == 0:
        return [()]
    rec(0, degree, ())
    out.sort(key=lambda m: (sum(m), ring.order.key(m)))
    return out


@dataclass
class KernelReport:
    """Exact kernel data up to the stated degree bound."""

    degree_bound: int
    basis: list                     # ring elements, monic, by (degree, order)
    generators: list = field(default_factory=list)
    expected: object = None         # Subalgebra the user compared against
    kernel_in_expected: bool = None
    expected_in_kernel: bool = None

    def ambient_basis(self, host):
        return [host.to_ambient(p) for p in self.basis]


def _derivation_matrix(d, monomials, power=1):
    """Sparse rows of D^power on the monomials (one column each), with the
    row index of every image monomial, numbered in order of appearance."""
    ring = d.ring
    row_index = {}
    rows = {}
    for ci, mono in enumerate(monomials):
        image = Polynomial(ring.vars, {mono: Fraction(1)})
        for _ in range(power):
            image = apply(d, image)
        for m, c in image.terms.items():
            ri = row_index.setdefault(m, len(row_index))
            rows.setdefault(ri, {})[ci] = c
    return [rows[i] for i in range(len(row_index))], row_index


def _vector_to_polynomial(vec, monomials, ring):
    terms = {monomials[j]: c for j, c in vec.items()}
    p = Polynomial(ring.vars, terms)
    return p.monic(ring.order)


def kernel_basis(d, degree, certificate=None, assume_nilpotent=False):
    """Q-basis of Ker(D) intersected with normal forms of degree <= degree.

    Requires a nilpotency certificate (computed here when not supplied)
    unless the caller overrides; the kernel itself is exact regardless.
    """
    if degree < 1:
        raise DegenerateInputError("degree bound must be at least 1")
    if not assume_nilpotent and certificate is None:
        certificate = certify_nilpotent(d)
        if not certificate.certified:
            raise DegenerateInputError(
                "derivation not certified locally nilpotent at the default "
                "bound; pass assume_nilpotent=True to proceed")
    ring = d.ring
    monomials = standard_monomials(ring, degree)
    rows, _ = _derivation_matrix(d, monomials)
    vectors = nullspace(rows, len(monomials))
    basis = [_vector_to_polynomial(v, monomials, ring) for v in vectors]
    # deterministic listing: degree first, then lexicographically biggest
    # leading monomial first (u before v, X before Y)
    basis.sort(key=lambda p: (p.degree(),
                              tuple(-e for e in p.leading_monomial(ring.order))))
    return KernelReport(degree_bound=degree, basis=basis)


def kernel_generators(d, degree, certificate=None, assume_nilpotent=False,
                      pair_budget=None):
    """Kernel basis plus a greedy minimal generating sublist.

    Walks the basis by degree and keeps an element only when it is not a
    member of the subalgebra generated by those already kept.  A given
    `pair_budget` opens a budget scope of its own around the call; the
    parameter stays because the benchmark's known-defect job passes it.
    """
    from .presentation import present_subalgebra

    with budget(pairs=pair_budget) if pair_budget is not None else nullcontext():
        report = kernel_basis(d, degree, certificate, assume_nilpotent)
        kept = []
        sub = None
        for p in report.basis:
            if p.is_constant():
                continue
            if sub is None or not sub.member(p).member:
                kept.append(p)
                sub = present_subalgebra(d.ring, kept)
    report.generators = kept
    return report


def compare_kernel_to_subalgebra(report, d, subalgebra):
    """Two-sided containment check against a claimed kernel subalgebra.

    Kernel elements are mapped to the ambient ring when the derivation
    lives on a subalgebra presentation.
    """
    elements = report.ambient_basis(d.host) if d.host is not None else report.basis
    report.expected = subalgebra
    report.kernel_in_expected = all(subalgebra.member(p).member for p in elements)
    gens_killed = all(apply(d, _pull_in(g, d, subalgebra)).is_zero()
                      for g in subalgebra.generators)
    report.expected_in_kernel = gens_killed
    return report


def _pull_in(g, d, subalgebra):
    if d.host is not None:
        return d.host.express(g)
    return g


@dataclass
class SliceData:
    """A slice D(s) = 1, or a local slice D(s) = c with D(c) = 0, c != 0."""

    slice: object
    cofactor: object = None  # None for a true slice

    def is_local(self):
        return self.cofactor is not None


def slice_search(d, degree):
    """Solve D(s) = 1 over degree-bounded normal forms; on failure look for
    a local slice D(s) = c, D(c) = 0 with c of least degree.  Returns None
    when neither exists within the bound."""
    ring = d.ring
    monomials = standard_monomials(ring, degree)
    rows, row_index = _derivation_matrix(d, monomials)
    one_mono = (0,) * len(ring.vars)
    rhs = {}
    if one_mono in row_index:
        rhs[row_index[one_mono]] = 1
        vec = solve(rows, rhs, len(monomials))
        if vec is not None:
            s = Polynomial(ring.vars, {monomials[j]: c for j, c in vec.items()})
            return SliceData(ring.normal(s))
    # local slices: s in Ker(D^2) \ Ker(D), minimizing the cofactor degree
    square_rows, _ = _derivation_matrix(d, monomials, power=2)
    best = None
    for vec in nullspace(square_rows, len(monomials)):
        s = _vector_to_polynomial(vec, monomials, ring)
        c = apply(d, s)
        if c.is_zero():
            continue
        c = c.monic(ring.order)
        key = (c.degree(), ring.order.key(c.leading_monomial(ring.order)),
               s.degree())
        if best is None or key < best[0]:
            best = (key, s, c)
    if best is None:
        return None
    _, s, c = best
    return SliceData(s, c)


@dataclass
class DixmierResult:
    """Kernel projection of f.  For a local slice the true value is
    numerator / cofactor^denominator_power in the localization."""

    numerator: object
    denominator_power: int = 0
    cofactor: object = None

    @property
    def value(self):
        return self.numerator


def _nilpotency_steps(d, f, certificate):
    total = 1
    for v in d.ring.vars:
        order = certificate.orders.get(v, 1)
        deg = f.degree_in(v)
        if deg > 0:
            total += deg * (order - 1)
    return total


def dixmier(d, slice_data, f, certificate=None):
    """The projection sum((-s)^i D^i(f) / i!) onto the kernel.

    Finite by local nilpotency; for a local slice (s, c) the result keeps
    an explicit denominator exponent instead of localizing the ring.
    """
    if isinstance(slice_data, Polynomial):
        slice_data = SliceData(slice_data)
    if certificate is None:
        certificate = certify_nilpotent(d)
        if not certificate.certified:
            raise DegenerateInputError("derivation not certified nilpotent")
    ring = d.ring
    f = ring.normal(f)
    bound = _nilpotency_steps(d, f, certificate)
    s = ring.normal(slice_data.slice)
    c = ring.normal(slice_data.cofactor) if slice_data.is_local() else None
    powers = []
    current = f
    i = 0
    while not current.is_zero():
        if i > bound:
            raise DegenerateInputError(
                f"element not annihilated within {bound} iterations")
        powers.append(current)
        current = apply(d, current)
        i += 1
    k = max(len(powers) - 1, 0)
    total = Polynomial.zero(ring.vars)
    minus_s = -s
    for i, dif in enumerate(powers):
        term = dif * (minus_s ** i) / factorial(i)
        if c is not None:
            term = term * c ** (k - i)
        total = total + term
    total = ring.normal(total)
    if c is not None:
        return DixmierResult(total, k, c)
    return DixmierResult(total)


def reconstruct(d, slice_data, f, certificate=None):
    """Coefficients a_i in Ker(D) with f = sum(a_i s^i); true slices only."""
    if isinstance(slice_data, Polynomial):
        slice_data = SliceData(slice_data)
    if slice_data.is_local():
        raise DegenerateInputError("reconstruction needs a true slice")
    if certificate is None:
        certificate = certify_nilpotent(d)
        if not certificate.certified:
            raise DegenerateInputError("derivation not certified nilpotent")
    ring = d.ring
    coefficients = []
    current = ring.normal(f)
    i = 0
    while not current.is_zero():
        a = dixmier(d, slice_data, current, certificate).numerator / factorial(i)
        coefficients.append(a)
        current = apply(d, current)
        i += 1
        if i > _nilpotency_steps(d, ring.normal(f), certificate):
            raise DegenerateInputError("element not annihilated at the bound")
    return coefficients


@dataclass
class GeneratorComparison:
    verdict: str          # equal / strictly-contains / strictly-contained / incomparable
    witness: object = None

    def __str__(self):
        return self.verdict


def verify_generators_up_to_degree(subalgebra, claimed, degree):
    """Compare Q-spans of degree-bounded monomial expressions in the
    subalgebra's generators against the claimed list.

    Products are enumerated by weighted exponents (sum of e_i * deg g_i
    bounded by the degree), so the comparison is exact linear algebra over
    the ambient monomials.
    """
    ring = subalgebra.ambient
    claimed = [ring.normal(p) for p in claimed]
    if any(p.is_zero() for p in claimed):
        raise DegenerateInputError("zero polynomial among claimed generators")
    ours = _span(subalgebra.generators, degree, ring)
    theirs = _span(claimed, degree, ring)
    ours_space, ours_polys = ours
    theirs_space, theirs_polys = theirs
    missing_theirs = _first_outside(theirs_polys, ours_space, ring)
    missing_ours = _first_outside(ours_polys, theirs_space, ring)
    if missing_theirs is None and missing_ours is None:
        return GeneratorComparison("equal")
    if missing_theirs is None:
        return GeneratorComparison("strictly-contains", missing_ours)
    if missing_ours is None:
        return GeneratorComparison("strictly-contained", missing_theirs)
    return GeneratorComparison("incomparable", missing_theirs)


def _span(generators, degree, ring):
    limit = current_budget().dims
    degs = [max(g.degree(), 0) for g in generators]
    if any(d == 0 for d in degs):
        raise DegenerateInputError("constant generator in span comparison")
    space = RowSpace()
    polys = []
    count = 0

    def rec(i, room, product):
        nonlocal count
        count += 1
        if count > limit:
            raise DimensionBudgetError(
                f"dimension budget {limit} exceeded by the span enumeration")
        value = ring.normal(product)
        if not value.is_zero():
            if space.insert(_poly_vector(value)):
                polys.append(value)
        if i == len(generators):
            return
        g, dg = generators[i], degs[i]
        rec(i + 1, room, product)
        power = product
        spent = 0
        while spent + dg <= room:
            power = power * g
            spent += dg
            rec(i + 1, room - spent, power)

    rec(0, degree, Polynomial.one(ring.vars))
    return space, polys


def _poly_vector(p):
    return {m: c for m, c in p.terms.items()}


def _first_outside(polys, space, ring):
    for p in sorted(polys, key=lambda q: (q.degree(),
                                          ring.order.key(q.leading_monomial(ring.order)))):
        if not space.contains(_poly_vector(p)):
            return p
    return None
