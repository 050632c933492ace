"""Derivations on presented rings: application, iteration, local-nilpotency
certification, restriction to subalgebras, irreducibility and
principal-containment tests.

A derivation is defined by its images on the ambient variables and extended
by the Leibniz rule; on a quotient ring it must send every relation into
the relation ideal (checked, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import current_budget
from .errors import DegenerateInputError, VariableMismatchError
from .groebner_engine import ideal_member
from .poly_core import Polynomial, gcd as poly_gcd, product_cost
from .presentation import PresentedRing


class Derivation:
    """A derivation of a presented ring, given on the ambient variables.

    Variables missing from `images` are sent to zero.  A derivation
    induced on a subalgebra presentation keeps a link to its host.
    """

    def __init__(self, ring, images, host=None):
        self.ring = ring
        self.images = {}
        for name in ring.vars:
            img = images.get(name)
            if img is None:
                self.images[name] = Polynomial.zero(ring.vars)
            else:
                if img.vars != ring.vars:
                    raise VariableMismatchError(
                        f"image of {name} lives over {img.vars}")
                self.images[name] = ring.normal(img)
        for name in images:
            if name not in ring.vars:
                raise VariableMismatchError(f"{name!r} is not a ring variable")
        self.host = host              # Subalgebra when induced on tags

    def is_zero(self):
        return all(p.is_zero() for p in self.images.values())

    def nonzero_images(self):
        return [(v, p) for v, p in self.images.items() if not p.is_zero()]

    def __repr__(self):
        parts = ", ".join(f"{v} -> {p}" for v, p in self.nonzero_images())
        return f"Derivation({parts or '0'})"


def apply(d, f, budget=None):
    """Leibniz extension evaluated at f, reduced to normal form.

    With a `budget`, each nonzero product image * df/d(name) is charged to
    it before it is formed: the derivative's terms and the `product_cost`.
    """
    f = d.ring.normal(f)
    total = Polynomial.zero(d.ring.vars)
    for name, image in d.images.items():
        if image.is_zero():
            continue
        partial = f.diff(name)
        if partial.is_zero():
            continue
        if budget is not None:
            budget.charge_terms(len(partial.terms) + product_cost(image, partial),
                                f"applying the derivation along {name}")
        total = total + image * partial
    return d.ring.normal(total)


def iterate(d, f, m):
    if m < 0:
        raise ValueError("negative iteration count")
    out = d.ring.normal(f)
    for _ in range(m):
        if out.is_zero():
            return out
        out = apply(d, out)
    return out


def check_well_defined(d):
    """True iff every relation maps into the relation ideal: its image has
    normal form zero modulo the ring's reduced basis of relations."""
    for rel in d.ring.relations.elements:
        img = Polynomial.zero(d.ring.vars)
        for name, image in d.images.items():
            if not image.is_zero():
                img = img + image * rel.diff(name)
        if not d.ring.is_zero(img):
            return False
    return True


@dataclass
class NilpotencyCertificate:
    """Outcome of a bounded local-nilpotency check.

    Certified means every ambient variable dies within the bound, which is
    sound for the whole ring; otherwise the result is inconclusive, never
    a negative claim.
    """

    certified: bool
    bound: int
    orders: dict = field(default_factory=dict)  # variable -> least m with D^m(var) = 0
    stuck: str = None                           # a surviving variable when inconclusive

    def __bool__(self):
        return self.certified


def default_nilpotency_bound(d):
    """Heuristic bound that certifies the triangular examples: 1 + sum of
    (image degree + 1) over the variables."""
    total = 1
    for image in d.images.values():
        total += max(image.degree(), 0) + 1
    return total


APPLICATION_TERMS = 4


def certify_nilpotent(d, bound=None):
    """Apply d to each variable until it dies or `bound` applications.

    Each application is charged to the current budget scope: what `apply`
    forms, and APPLICATION_TERMS for its own bookkeeping (normal forms,
    the running sum), which takes 27 us on x -> x, as long as four or five
    term products.
    """
    if bound is None:
        bound = default_nilpotency_bound(d)
    if bound < 1:
        raise DegenerateInputError("bound must be at least 1")
    budget = current_budget()
    orders = {}
    for name in d.ring.vars:
        current = d.ring.variable(name)
        m = 0
        while not current.is_zero():
            if m >= bound:
                return NilpotencyCertificate(False, bound, stuck=name)
            budget.charge_terms(APPLICATION_TERMS, "applying the derivation")
            current = apply(d, current, budget)
            m += 1
        orders[name] = max(m, 1)
    return NilpotencyCertificate(True, bound, orders=orders)


def restricts_to(d, subalgebra):
    """Does d map every subalgebra generator back into the subalgebra?

    Sufficient for d to restrict, by the Leibniz rule.
    """
    _require_same_ring(d, subalgebra)
    return all(subalgebra.member(apply(d, g)).member
               for g in subalgebra.generators)


def restrict_to_subalgebra(d, subalgebra):
    """The induced derivation on the subalgebra's tag presentation."""
    _require_same_ring(d, subalgebra)
    ring = subalgebra.presented_ring()
    images = {}
    for name, g in zip(subalgebra.tag_vars, subalgebra.generators):
        res = subalgebra.member(apply(d, g))
        if not res.member:
            raise DegenerateInputError(
                f"derivation does not restrict: image of {g} escapes")
        images[name] = ring.normal(res.witness)
    return Derivation(ring, images, host=subalgebra)


def _require_same_ring(d, subalgebra):
    if subalgebra.ambient.vars != d.ring.vars:
        raise VariableMismatchError("subalgebra lives in a different ring")


@dataclass
class IrreducibilityReport:
    irreducible: bool
    witness: object = None  # a common non-unit divisor of the images

    def __bool__(self):
        return self.irreducible


def irreducible_over_ufd(d):
    """UFD test: the gcd of the variable images, whose Groebner runs count
    against the pair budget, must be a unit.

    Refused on rings with relations, where no gcd is available; use
    contained_in_principal with a candidate divisor instead.
    """
    if d.ring.has_relations():
        raise DegenerateInputError(
            "irreducibility via gcd needs a polynomial ring; "
            "use contained_in_principal on presented rings")
    images = [p for _, p in d.nonzero_images()]
    if not images:
        raise DegenerateInputError("zero derivation")
    g = images[0]
    for p in images[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    g = g.monic(d.ring.order)
    if g.is_constant():
        return IrreducibilityReport(True)
    return IrreducibilityReport(False, g)


def contained_in_principal(d, b):
    """Do all variable images lie in b * ring?  Membership mod relations."""
    b = d.ring.normal(b)
    if b.is_zero():
        raise DegenerateInputError("zero principal candidate")
    principal = d.ring.lifted_ideal([b])
    return all(ideal_member(p, principal) for _, p in d.nonzero_images())


def extend_with_variable(d, name):
    """Trivial extension to ring[name] with the new variable sent to zero;
    a faithfully flat extension, so grades are preserved."""
    if name in d.ring.vars:
        raise ValueError(f"{name!r} already a variable")
    new_vars = d.ring.vars + (name,)
    rels = [p.embed(new_vars) for p in d.ring.relations.elements]
    ring = PresentedRing(new_vars, rels, d.ring.order)
    images = {v: p.embed(new_vars) for v, p in d.images.items()}
    return Derivation(ring, images)
