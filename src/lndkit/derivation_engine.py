"""Derivations on presented rings: application, iteration, local-nilpotency
certification, restriction to subalgebras, irreducibility and
principal-containment tests.

A derivation is defined by its images on the ambient variables and extended
by the Leibniz rule; on a quotient ring it must send every relation into
the relation ideal (checked, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import current_budget, metered
from .errors import DegenerateInputError, VariableMismatchError
from .groebner_engine import ideal_member
from .poly_core import (_FIELD_MASK, Polynomial, _layout, _top_exponent, gcd as poly_gcd,
                        product_cost)
from .presentation import PresentedRing


APPLICATION_TERMS = 4


class Derivation:
    """A derivation of a presented ring, given on the ambient variables.

    Variables missing from `images` are sent to zero.  A derivation
    induced on a subalgebra presentation keeps a link to its host.
    `layout` packs the ring's monomials for `leibniz`.
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
        self.layout = layout = _layout(ring.order, len(ring.vars))
        # per nonzero D(x_i): (x_i, its field shift, packed x_i, overflow
        # gate, packed terms with their coefficients as stored)
        self._variables = [
            (name, layout.shifts[i], layout.weights[i], layout.gate(_top_exponent(p.terms)),
             list(zip(layout.pack(p.terms), p.terms.values())))
            for i, (name, p) in enumerate(self.images.items()) if p.terms]

    def is_zero(self):
        return all(p.is_zero() for p in self.images.values())

    def nonzero_images(self):
        return [(v, p) for v, p in self.images.items() if not p.is_zero()]

    def __repr__(self):
        parts = ", ".join(f"{v} -> {p}" for v, p in self.nonzero_images())
        return f"Derivation({parts or '0'})"

    def leibniz(self, f):
        """D(f) by the Leibniz rule: c x^a goes to sum_i c a_i x^(a - e_i) D(x_i).

        The loop runs on packed monomials (`layout`, the ring order's
        `poly_core._Layout`, as in division; Monagan and Pearce, CASC
        2007).  Each D(x_i) is packed once, so a term of D(x^a) is t + X(m),
        one addition, with t = X(a) - X(e_i).  Exponent overflow is gated
        per variable as `poly_core._reduce` gates a step: only when
        (t + gate_i) & guard is set are the products checked one by one,
        raising ExponentOverflowError at the first past EXPONENT_LIMIT, as
        `monomial_mul` would.  A Polynomial f is packed once, with its
        coefficients as stored: ints where integral, so integer work stays
        in ints (an exponent past EXPONENT_LIMIT raises), and D(f) is a
        Polynomial, not in normal form; for a packed monomial f, an int,
        D(f) is {packed monomial: coefficient}, zero coefficients possible,
        and all ints when D's are.  A Polynomial f is charged to the
        current budget scope before any term is formed: APPLICATION_TERMS
        for the bookkeeping (packing, the running sum, normal forms: 27 us
        on x -> x, as long as four or five term products), then each
        nonzero D(x_i) * df/dx_i in variable order, its derivative's terms
        and `product_cost`.  A packed f is not charged: the kernel matrix's
        dimension budget bounds it."""
        layout, packed = self.layout, isinstance(f, int)
        if not packed:
            _top_exponent(f.terms)
        work = [(f, 1)] if packed else list(zip(layout.pack(f.terms), f.terms.values()))
        if not packed:
            charge = current_budget().charge_terms
            charge(APPLICATION_TERMS, "applying the derivation")
            for name, shift, _, _, image in self._variables:
                partial = [c * e for x, c in work if (e := (x >> shift) & _FIELD_MASK)]
                if partial:
                    cost = len(partial) + product_cost([c for _, c in image], partial)
                    charge(cost, f"applying the derivation along {name}")
        guard = layout.guard
        out = {}
        for x, c in work:
            for _, shift, weight, gate, image in self._variables:
                e = (x >> shift) & _FIELD_MASK
                if e:
                    t = x - weight
                    if (t + gate) & guard:
                        layout.check(t, image)
                    ec = e * c
                    for m, ic in image:
                        k = t + m
                        out[k] = out.get(k, 0) + ec * ic
        if packed:
            return out
        unpack = layout.unpack
        return Polynomial(self.ring.vars, {unpack(k): c for k, c in out.items()})


def apply(d, f):
    """D(f) reduced to normal form, charged as in `leibniz`."""
    ring = d.ring
    return ring.normal(d.leibniz(ring.normal(f)))


def iterate(d, f, m):
    if m < 0:
        raise ValueError("negative iteration count")
    out = d.ring.normal(f)
    with metered():
        for _ in range(m):
            if out.is_zero():
                return out
            out = apply(d, out)
    return out


def check_well_defined(d):
    """True iff every relation maps into the relation ideal: its image has
    normal form zero modulo the ring's reduced basis of relations."""
    ring = d.ring
    return all(ring.is_zero(d.leibniz(rel)) for rel in ring.relations.elements)


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


def certify_nilpotent(d, bound=None):
    """Apply d to each variable until it dies or `bound` applications,
    all charged to one `metered` scope."""
    if bound is None:
        bound = default_nilpotency_bound(d)
    if bound < 1:
        raise DegenerateInputError("bound must be at least 1")
    orders = {}
    with metered():
        for name in d.ring.vars:
            current = d.ring.variable(name)
            m = 0
            while not current.is_zero():
                if m >= bound:
                    return NilpotencyCertificate(False, bound, stuck=name)
                current = apply(d, current)
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
