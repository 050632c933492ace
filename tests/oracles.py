"""Plain rational reference routines the library no longer carries, for
checking its integer-row routes against."""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, combinations_with_replacement, product
from math import gcd as int_gcd, inf

from lndkit._linalg import RowSpace
from lndkit.grade_analyzer import GradeValue, image_ideal
from lndkit.groebner_engine import Ideal, _interreduce, ideal_member, saturation
from lndkit.poly_core import (
    GREVLEX,
    Polynomial,
    _layout,
    _monic_row,
    _reduce,
    monic_remainder,
)


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def order_key(order, m):
    """The textbook sort key of the exponent tuple m under the order, larger
    for the larger monomial (Cox, Little and O'Shea, 2.2), kept apart from
    the library's packed `_Layout` as the reference it is checked against:
    lex and grlex on the exponents, grevlex on the degree and then the
    reversed exponents negated, a block order on the grevlex keys of its
    head and tail, all after the optional permutation."""
    if order.permutation is not None:
        m = tuple(m[i] for i in order.permutation)
    if order.kind == "lex":
        return m
    if order.kind == "grlex":
        return (sum(m), m)
    if order.kind == "grevlex":
        return _grevlex_key(m)
    if order.kind == "block":
        return (_grevlex_key(m[:order.block]), _grevlex_key(m[order.block:]))
    raise ValueError(f"unknown order kind {order.kind!r}")


def monomial_div(a, b):
    """The quotient a/b as an exponent tuple, or None when b does not
    divide a."""
    if all(x >= y for x, y in zip(a, b)):
        return tuple(x - y for x, y in zip(a, b))
    return None


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
    return (f * Polynomial(f.vars, {monomial_div(lcm, mf): Fraction(1, cf)})
            - g * Polynomial(g.vars, {monomial_div(lcm, mg): Fraction(1, cg)}))


def s_pair_remainder(vars, f, g, lcm_fg, records, order, firsts=None):
    """The S-polynomial of the polynomials with division records f and g,
    reduced by `records` and made monic; zero when it reduces to zero.
    `lcm_fg` is the lcm of their leading monomials, packed by the order's
    layout, as the reference pair queue holds it.

    The S-polynomial is formed on the records' integer tails, times the
    positive constant cf*cg/h with h = gcd(cf, cg), at scale 1:
    (cg/h)*t_f*tail_f - (cf/h)*t_g*tail_g, where t_f and t_g shift the
    leading monomials to their lcm, and the leading terms, which cancel,
    are never formed.  Division is linear, so every step and divisor
    choice is the rational S-polynomial's, and the monic remainder is its
    monic remainder exactly.
    """
    layout = _layout(order, len(vars))
    lead_f, cf, tail_f, _, gate_f = f
    lead_g, cg, tail_g, _, gate_g = g
    h = int_gcd(cf, cg)
    work = {}
    for lead, tail, gate, a in ((lead_f, tail_f, gate_f, cg // h),
                                (lead_g, tail_g, gate_g, -(cf // h))):
        t = lcm_fg - lead
        if (t + gate) & layout.guard:
            layout.check(t, tail)
        for tm, tc in tail:
            mm = t + tm
            v = work.get(mm, 0) + a * tc
            if v:
                work[mm] = v
            else:
                del work[mm]
    return _monic_row(vars, _reduce(work, 1, records, layout, firsts=firsts)[0], order, layout)


def buchberger_reference(generators, order):
    """The reduced basis of the generators by the pair loop without partner
    bitmasks or a first-divisor memo: the chain criterion looks each lead
    that divides the lcm up in a set of popped (i, j) pairs, and every
    S-pair reduction scans the leads from the first.  Returns the basis
    elements, the S-pairs reduced, how many reduced to zero and how many
    pairs the chain criterion skipped; the library must reduce the same."""
    basis = [g for g in generators if not g.is_zero()]
    while True:
        slimmed = []
        for i, p in enumerate(basis):
            others = [q.division_record(order) for q in slimmed + basis[i + 1:]]
            r = monic_remainder(p, others, order)
            if not r.is_zero():
                slimmed.append(r)
        if slimmed == basis:
            break
        basis = slimmed
    if not basis:
        return [], 0, 0, 0
    layout = _layout(order, len(basis[0].vars))
    start, basis, lms, ecarts, records, heap = basis, [], [], [], [], []

    def add(p):
        lm = p.leading_monomial(order)
        ecart = p.degree() - sum(lm)
        for t, m in enumerate(lms):
            lcm = [*map(max, m, lm)]
            x = layout.pack([lcm])[0]
            heappush(heap, (sum(lcm) + max(ecarts[t], ecart), -x, t, len(basis)))
        basis.append(p)
        lms.append(lm)
        ecarts.append(ecart)
        records.append(p.division_record(order))

    for p in start:
        add(p)
    done, reduced, zero, chained = set(), 0, 0, 0
    while heap:
        _, x, i, j = heappop(heap)
        x = -x
        done.add((i, j))
        if x == records[i][0] + records[j][0]:
            continue
        if any(k != i and k != j
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k, record in enumerate(records) if not (x - record[0]) & layout.guard):
            chained += 1
            continue
        reduced += 1
        r = s_pair_remainder(basis[i].vars, records[i], records[j], x, records, order)
        if r.is_zero():
            zero += 1
        else:
            add(r)
    return _interreduce(basis, records, order, layout.guard), reduced, zero, chained


def canonical(p):
    """True when every coefficient of p, a polynomial or a vector of
    `_linalg` (a dict), is in the one form `Polynomial` stores: a nonzero
    int, or a Fraction whose denominator is above 1."""
    values = p.values() if isinstance(p, dict) else p.terms.values()
    return all(c != 0 if type(c) is int else isinstance(c, Fraction) and c.denominator > 1
               for c in values)


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


def blocks(coefficients):
    """512-bit blocks of the longest numerator or denominator, at least 1,
    each coefficient read through its numerator and denominator."""
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coefficients), default=0)
    return bits // 512 + 1


def apply_charge(d, f):
    """The term budget's charge for D(f): per nonzero product, the
    derivative's terms plus len(image) * len(derivative) term products,
    weighted by the 512-bit blocks of each factor's longest coefficient."""
    return sum(len(partial.terms)
               + len(image.terms) * len(partial.terms)
               * blocks(image.terms.values()) * blocks(partial.terms.values())
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
        key = (c.degree(), order_key(order, c.leading_monomial(order)), s.degree())
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
    return Ideal(dict.fromkeys(ring.normal(g) for g in sat.generators), ring.vars)


def groebner_leads(ideal):
    """The leading monomials of the library's Groebner basis of an ideal."""
    basis = ideal.groebner()
    return [p.leading_monomial(basis.order) for p in basis]


def _dimension(ideal, leads):
    """dim S/J of an ideal J of S = Q[vars], -1 for the unit ideal: the
    size of the largest set of variables that contains the support of no
    leading monomial of J's Groebner basis, since S/J and S/in(J) have the
    same dimension under any order (Cox, Little and O'Shea, ch. 9, section
    3).  `leads` gives those leading monomials for an ideal."""
    supports = [{i for i, e in enumerate(m) if e} for m in leads(ideal)]
    if set() in supports:   # a constant: the unit ideal
        return -1
    n = len(ideal.vars)
    return max(k for k in range(n + 1) for free in combinations(range(n), k)
               if not any(s <= set(free) for s in supports))


def height(ideal, ring, leads=groebner_leads):
    """height I = dim R - dim R/I of an ideal of the presented ring R, inf
    for the unit ideal.  The formula needs R equidimensional, as a
    polynomial ring, a hypersurface or an affine domain is; grade I is at
    most height I on any Noetherian ring, with equality on a
    Cohen-Macaulay one (Bruns and Herzog, Cohen-Macaulay Rings, 2.1.4).
    The dimensions are read off the leading monomials `leads` gives."""
    quotient = _dimension(ring.lifted_ideal(ideal.generators), leads)
    if quotient < 0:
        return inf
    return _dimension(ring.lifted_ideal([]), leads) - quotient


CAPPED_GRADE = {GradeValue.ZERO: 0, GradeValue.ONE: 1, GradeValue.TWO: 2,
                GradeValue.INFINITE: inf}


def capped_height(ideal, ring, leads=groebner_leads):
    """height I capped at 2, as grades are: inf stays inf."""
    h = height(ideal, ring, leads)
    return h if h == inf else min(h, 2)


def graded_ideal(env, kind, name):
    """The ideal and ring that a `grade` command of that kind, on the
    named derivation or ideal of a session environment, is about."""
    if kind == "grade-derivation":
        d = env.derivations[name]
        return image_ideal(d), d.ring
    return env.ideals[name].ideal, env.ideals[name].ring


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


def span_products(generators, degree, ring):
    """The products prod(g_i^e_i) with sum(e_i * deg g_i) <= degree, in one
    walk over the exponent tuples e in ascending lexicographic order, the
    first exponent most significant, each multiplied out from 1 and then
    reduced: the span of their normal forms, and those that extended it."""
    degs = [g.degree() for g in generators]
    space, polys = RowSpace(), []
    for e in product(*(range(degree // w + 1) for w in degs)):
        if sum(a * w for a, w in zip(e, degs)) > degree:
            continue
        p = Polynomial.one(ring.vars)
        for g, a in zip(generators, e):
            for _ in range(a):
                p = p * g
        p = ring.normal(p)
        if not p.is_zero() and space.insert(p.terms):
            polys.append(p)
    return space, polys


def generator_comparison(subalgebra, claimed, degree):
    """(verdict, witness) of comparing the spans of the subalgebra's and the
    claimed generators' products up to the degree, by `span_products`: a
    witness is the least product of one side, by (degree, leading
    monomial), outside the other's span; the claimed side's comes first."""
    ring = subalgebra.ambient
    ours = span_products(subalgebra.generators, degree, ring)
    theirs = span_products([ring.normal(p) for p in claimed], degree, ring)

    def first_outside(polys, space):
        order = ring.order
        for p in sorted(polys, key=lambda q: (q.degree(),
                                              order_key(order, q.leading_monomial(order)))):
            if not space.contains(p.terms):
                return p
        return None

    missing_theirs = first_outside(theirs[1], ours[0])
    missing_ours = first_outside(ours[1], theirs[0])
    if missing_theirs is None and missing_ours is None:
        return "equal", None
    if missing_theirs is None:
        return "strictly-contains", missing_ours
    if missing_ours is None:
        return "strictly-contained", missing_theirs
    return "incomparable", missing_theirs
