"""Plain rational reference routines the library no longer carries, for
checking its integer-row routes against."""

from itertools import combinations_with_replacement

from lndkit.groebner_engine import Ideal, ideal_member, saturation
from lndkit.poly_core import GREVLEX, Polynomial, _layout, monomial_div


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def packed_lcm(f, g, order, n):
    """The lcm of the leading monomials of two division records, packed by
    the order's layout for n variables, as Buchberger's pair queue holds
    it: unpacked, taken on exponent tuples and packed again."""
    layout = _layout(order, n)
    [x] = layout.pack([monomial_lcm(layout.unpack(f[0]), layout.unpack(g[0]))])
    return x


def s_polynomial(f, g, order):
    """lcm/LT(f) * f - lcm/LT(g) * g, in Fraction arithmetic, with the
    leading terms' lcm and each shift taken by the textbook definition
    (Cox, Little and O'Shea, section 2.6)."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = monomial_lcm(mf, mg)
    return (f * Polynomial(f.vars, {monomial_div(lcm, mf): 1 / cf})
            - g * Polynomial(g.vars, {monomial_div(lcm, mg): 1 / cg}))


def diff(p, name):
    """The partial derivative of p in the named variable, term by term."""
    i = p.vars.index(name)
    terms = {}
    for m, c in p.terms.items():
        if m[i]:
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            terms[dm] = terms.get(dm, 0) + c * m[i]
    return Polynomial(p.vars, terms)


def _leibniz_products(d, f):
    """(image, df/dx) of each variable whose product D(x) * df/dx is nonzero,
    f taken in normal form."""
    f = d.ring.normal(f)
    pairs = [(image, diff(f, name)) for name, image in d.images.items()]
    return [(image, partial) for image, partial in pairs
            if not image.is_zero() and not partial.is_zero()]


def apply(d, f):
    """D(f) = sum D(x) * df/dx over the variables, in Fraction Polynomial
    arithmetic, reduced to normal form."""
    total = Polynomial.zero(d.ring.vars)
    for image, partial in _leibniz_products(d, f):
        total = total + image * partial
    return d.ring.normal(total)


def _blocks(p):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in p.terms.values())
    return bits // 512 + 1


def apply_charge(d, f):
    """The term budget's charge for D(f): per nonzero product, the
    derivative's terms plus len(image) * len(derivative) term products,
    weighted by the 512-bit blocks of each factor's longest coefficient."""
    return sum(len(partial.terms)
               + len(image.terms) * len(partial.terms) * _blocks(image) * _blocks(partial)
               for image, partial in _leibniz_products(d, f))


def local_slice(d, candidates):
    """The local slice chosen candidate by candidate: among candidates s
    with D(s) != 0, in the given order, the first of least
    (deg c, key of c's leading monomial, deg s) for c = D(s) made monic,
    with D computed by `apply`; (s, c), or None when D kills them all."""
    order = d.ring.order
    best = None
    for s in candidates:
        c = apply(d, s)
        if c.is_zero():
            continue
        c = c.monic(order)
        key = (c.degree(), order.key(c.leading_monomial(order)), s.degree())
        if best is None or key < best[0]:
            best = (key, s, c)
    return None if best is None else best[1:]


def power_products(ideal, k):
    """The generators of I^k, k >= 1: each k-fold product of the generators
    multiplied out on its own, in `combinations_with_replacement` order."""
    products = []
    for combo in combinations_with_replacement(ideal.generators, k):
        p = Polynomial.one(ideal.vars)
        for g in combo:
            p = p * g
        products.append(p)
    return products


def symbolic_piece(ideal, k, s, ring):
    """Piece k of a Rees truncation the direct way, (I^k + relations :
    s^infinity) saturated from the full power I^k, as normal forms."""
    sat = saturation(ring.lifted_ideal(power_products(ideal, k)), s)
    return Ideal([ring.normal(g) for g in sat.generators], ring.vars)


def ideal_equal(i, j, order=GREVLEX):
    """Mutual membership of generators."""
    return (all(ideal_member(g, j, order) for g in i.generators)
            and all(ideal_member(g, i, order) for g in j.generators))


def rees_failures(data):
    """The containment and multiplicativity checks of a Rees truncation:
    I^k inside piece k, and piece a * piece b inside piece a + b.  Both
    hold for every saturator, so a failure is a wrong computation.  The
    failed checks, in order."""
    ring, pieces = data.ring, data.pieces
    lifted = [ring.lifted_ideal(p.generators) for p in pieces]
    failures = []
    for k in range(1, len(pieces)):
        if not all(ideal_member(g, lifted[k]) for g in power_products(data.ideal, k)):
            failures.append(f"I^{k} not inside piece {k}")
    for a in range(1, len(pieces)):
        for b in range(a, len(pieces) - a):
            if not all(ideal_member(ring.normal(ga * gb), lifted[a + b])
                       for ga in pieces[a].generators for gb in pieces[b].generators):
                failures.append(f"piece {a} * piece {b} escapes piece {a + b}")
    return failures
