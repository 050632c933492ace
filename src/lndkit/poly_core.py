"""Sparse multivariate polynomials over Q with exact rational arithmetic.

Monomials are plain exponent tuples, one slot per ambient variable.
Polynomials map monomials to nonzero rational coefficients, each stored
as an int when it is integral and as a Fraction with denominator above 1
otherwise; every ring element used anywhere in the toolkit is one of these.

`remainder`, `divide`, `exact_div` and Buchberger's `monic_remainder`
share one division loop, `_reduce`.  It runs fraction-free: the work
terms are integers under one running scale, and each divisor enters as a
record cached on the polynomial per monomial order, its coefficients a
rational scalar times a primitive integer row (the idiom of `_linalg`;
Becker and Weispfenning, ch. 5).  The loop returns the remainder as an
integer row at one final scale, in descending order, so a remainder
Buchberger keeps becomes the division record of a monic polynomial in
one pass, and no polynomial is built until the reduced basis is.  Inside
the loop a monomial is one packed int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007, and "Sparse polynomial division using a heap", JSC 2011): its
exponents sit in 34-bit fields whose top bit is a guard, under a high
part that carries whatever of the order's descending key the field order
does not give (`_Layout`).  The packing is linear, so a product is one
addition; it is order-reversing, so the work terms sit in a min-heap of
plain ints and each step takes the largest remaining term without
rescanning; and a leading monomial divides m exactly when their
difference has no guard bit set.  Steps and divisor choices are those of
textbook division (Cox, Little and O'Shea, 2.3), and every quotient and
remainder equals the rational one exactly; only the bookkeeping differs.
`_Layout` is the one encoding of an order: every sort of terms,
comparison of leading monomials and divisibility test in the library
runs on packed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from math import gcd as int_gcd, lcm
from operator import add, mul

from .config import current_budget, metered
from .errors import ExponentOverflowError, LndError, ParseError, VariableMismatchError

# Exponents are machine-word sized by policy; anything larger is treated as a
# runaway computation rather than a meaningful answer.
EXPONENT_LIMIT = 2**31


# ---------------------------------------------------------------------------
# monomials: exponent tuples
# ---------------------------------------------------------------------------

def monomial_mul(a, b):
    c = tuple(map(add, a, b))
    if c and max(c) > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {max(c)} exceeds limit {EXPONENT_LIMIT}")
    return c


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order acting positionally on exponent tuples.

    kind is one of "lex", "grlex", "grevlex", "block"; a block order compares
    the first `block` variables (graded reverse lex) before the rest, so it
    eliminates them.  An optional permutation reorders the variables before
    comparison.  Only the order's `_Layout` reads `kind`, and refuses an
    unknown one: monomials are compared through their packed forms alone.
    Orders key the per-order caches of every polynomial, so the hash is
    computed once; equality stays by value.  Equal orders share one
    `_Layout` per number of variables.
    """

    kind: str
    block: int = 0
    permutation: tuple = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.block, self.permutation)))

    def __hash__(self):
        return self._hash

    @classmethod
    def lex(cls, permutation=None):
        return cls("lex", permutation=permutation)

    @classmethod
    def grlex(cls, permutation=None):
        return cls("grlex", permutation=permutation)

    @classmethod
    def grevlex(cls, permutation=None):
        return cls("grevlex", permutation=permutation)

    @classmethod
    def elimination(cls, k, permutation=None):
        """Block order eliminating the first k variables."""
        if k <= 0:
            raise ValueError("elimination block must be positive")
        return cls("block", block=k, permutation=permutation)


GREVLEX = MonomialOrder.grevlex()
GRLEX = MonomialOrder.grlex()
LEX = MonomialOrder.lex()


# ---------------------------------------------------------------------------
# packed monomials: how the division loop sees them
# ---------------------------------------------------------------------------

_FIELD = 34   # bits per exponent field; the top one is the guard
_FIELD_MASK = (1 << _FIELD) - 1


class _Layout:
    """How `_reduce` packs the monomials of one order on n variables into ints.

    X(m) = H(m)*2^(34n) + E(m).  E holds the exponents in 34-bit fields,
    with a guard bit at bit 33 of each that no exponent up to
    EXPONENT_LIMIT reaches.  The order's descending key (the largest
    monomial first) is a sequence of linear forms in the exponents.  E's
    field order, from the top field down, gives its longest tail of forms
    that are one exponent each, with sign +1; H holds the forms before
    that tail, in digits wide enough for any degree: -deg for grevlex;
    -deg head, the head reversed and -deg tail for a block order; the
    whole key for lex and grlex.  So X is linear in m, X(a) < X(b) exactly
    when key(a) > key(b), and b divides a exactly when X(a) - X(b) has no
    guard bit set.
    """

    __slots__ = ("weights", "shifts", "ones", "guard", "over")

    def __init__(self, order, n):
        p = order.permutation or tuple(range(n))
        # the descending key as forms (sign, variables): sign times the sum
        # of those variables' exponents
        if order.kind == "lex":
            forms = [(-1, (i,)) for i in p]
        elif order.kind == "grlex":
            forms = [(-1, p)] + [(-1, (i,)) for i in p]
        elif order.kind == "grevlex":
            forms = [(-1, p)] + [(1, (i,)) for i in reversed(p)]
        elif order.kind == "block":
            head, tail = p[:order.block], p[order.block:]
            forms = [(-1, head), *((1, (i,)) for i in reversed(head)),
                     (-1, tail), *((1, (i,)) for i in reversed(tail))]
        else:
            raise ValueError(f"unknown order kind {order.kind!r}")
        split = len(forms)
        while split and forms[split - 1][0] == 1 and len(forms[split - 1][1]) == 1:
            split -= 1
        top = [i for _, (i,) in forms[split:]]
        fields = [i for i in range(n) if i not in top] + top[::-1]
        shifts = [0] * n
        for f, i in enumerate(fields):
            shifts[i] = _FIELD * f
        digit = _FIELD + n.bit_length()
        high = [0] * n
        for d, (sign, vs) in enumerate(forms[:split]):
            for i in vs:
                high[i] += sign << (digit * (split - 1 - d))
        self.shifts = tuple(shifts)
        self.weights = tuple((h << (_FIELD * n)) + (1 << s) for h, s in zip(high, shifts))
        self.ones = sum(1 << (_FIELD * f) for f in range(n))
        self.guard = self.ones << (_FIELD - 1)
        # added to a packed monomial, `over` carries a field into its guard
        # bit exactly when its exponent exceeds EXPONENT_LIMIT
        self.over = self.ones * ((1 << (_FIELD - 1)) - 1 - EXPONENT_LIMIT)

    def pack(self, monos):
        """The packed forms of a list of exponent tuples, none past
        EXPONENT_LIMIT (`_top_exponent`)."""
        weights = self.weights
        return [sum(map(mul, m, weights)) for m in monos]

    def unpack(self, x):
        return tuple([(x >> s) & _FIELD_MASK for s in self.shifts])

    def gate(self, top):
        """`over` raised by `top`: for a packed monomial t, (t + gate) & guard
        is nonzero exactly when some exponent of t exceeds EXPONENT_LIMIT -
        top, so whenever t times a monomial with no exponent above top has
        an exponent past EXPONENT_LIMIT."""
        return self.over + top * self.ones

    def check(self, t, tail):
        """Raise ExponentOverflowError, as `monomial_mul` would, at the first
        (packed monomial, coefficient) of `tail` whose monomial times the
        packed t has an exponent past EXPONENT_LIMIT."""
        for tm, _ in tail:
            if (t + tm + self.over) & self.guard:
                raise ExponentOverflowError(
                    f"exponent {max(self.unpack(t + tm))} exceeds limit {EXPONENT_LIMIT}")


def _top_exponent(monos):
    """The largest exponent of some exponent tuples, 0 for none.  One past
    EXPONENT_LIMIT raises ExponentOverflowError, since the packed overflow
    tests hold only for exponents up to it."""
    top = max(chain.from_iterable(monos), default=0)
    if top > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {top} exceeds limit {EXPONENT_LIMIT}")
    return top


@cache
def _layout(order, n):
    """The order's `_Layout` on n variables, made once: an order made again,
    such as each elimination's block order, finds its layouts made."""
    return _Layout(order, n)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _rational(value):
    """An exact coefficient in its one stored form: an int when it is
    integral, else a Fraction with denominator above 1.  A float is
    refused: it holds only a binary approximation of the number that was
    meant."""
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError(f"float coefficient {value!r}; use an int or a Fraction")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b):
    """The int a / b as `Polynomial` stores it: a Fraction only when inexact."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


class Polynomial:
    """Immutable sparse polynomial over Q.

    `vars` is the ambient variable tuple; `terms` maps exponent tuples to
    nonzero coefficients, given as ints or Fractions (a float is refused)
    and stored by `_rational`: an int when integral, else a Fraction with
    denominator above 1.  The zero polynomial has an empty term map.
    Only its division record is cached per monomial order; the leading
    term is read off it.
    """

    __slots__ = ("vars", "terms", "_records")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise VariableMismatchError(
                    f"monomial {mono} does not fit {n} variables")
            c = coeff if type(coeff) is int else _rational(coeff)
            if c:
                clean[tuple(mono)] = c
        self.terms = clean
        self._records = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, value):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, vars):
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        try:
            i = vars.index(name)
        except ValueError:
            raise VariableMismatchError(f"{name!r} is not among {vars}") from None
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: 1})

    # -- predicates and views ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(m) for m in self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(m[i] for m in self.terms)

    def sorted_terms(self, order):
        """Terms by ascending packed form (`_Layout`), so descending under
        `order`, sorted on each call: only text output needs them.
        ExponentOverflowError past EXPONENT_LIMIT."""
        _top_exponent(self.terms)
        weights = _layout(order, len(self.vars)).weights
        return sorted(self.terms.items(), key=lambda t: sum(map(mul, t[0], weights)))

    def division_record(self, order):
        """How `_reduce` divides by this polynomial; cached per order, and
        ValueError for the zero polynomial, which divides nothing.

        The tuple (packed leading monomial, integer leading coefficient
        lc > 0, integer tail [(packed monomial, int)] in descending order,
        scalar k, the `_Layout.gate` of its largest exponent), where self is
        k times the primitive integer row lc*lead + tail, packed by the
        order's layout.
        """
        record = self._records.get(order)
        if record is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            layout = _layout(order, len(self.vars))
            work, denom, top = _integer_work(self, layout)
            record = _record(sorted(work.items()), denom, layout.gate(top))
            self._records[order] = record
        return record

    def leading_monomial(self, order):
        return _layout(order, len(self.vars)).unpack(self.division_record(order)[0])

    def leading_term(self, order):
        m = self.leading_monomial(order)
        return m, self.terms[m]

    def leading_coefficient(self, order):
        return self.leading_term(order)[1]

    def monic(self, order):
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * Fraction(1, lc)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine a polynomial with a {type(other).__name__}")
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """A product by an int or Fraction is free; a product of two
        polynomials is charged its `product_cost` to the current budget
        scope before any term is formed."""
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.vars, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        current_budget().charge_terms(product_cost(self.terms.values(), other.terms.values()),
                                      "a polynomial product")
        if len(self.terms) > len(other.terms):
            self, other = other, self
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _rational(scalar)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * Fraction(1, c)

    def __pow__(self, n):
        """By repeated squaring, each product charged as in `__mul__`."""
        if n < 0:
            raise ValueError("negative polynomial power")
        p, result = self, Polynomial.one(self.vars)
        while n:
            if n & 1:
                result = result * p
            n >>= 1
            if n:
                p = p * p
        return result

    def __eq__(self, other):
        # only a polynomial over the same variables, never a scalar: so `==`
        # stays an equivalence, as the basis memo's keys and dict dedups need
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a sum of the term hashes does not depend on the terms' order
        return hash((self.vars, sum(map(hash, self.terms.items()))))

    # -- substitution ---------------------------------------------------------

    def substitute(self, images, target_vars):
        """Evaluate over `target_vars` with each variable replaced by the
        polynomial `images[name]`; unmapped variables pass through by name."""
        target_vars = tuple(target_vars)
        full = {name: images[name] if name in images
                else Polynomial.variable(name, target_vars) for name in self.vars}
        result = Polynomial.zero(target_vars)
        for m, c in self.terms.items():
            part = Polynomial.constant(target_vars, c)
            for name, e in zip(self.vars, m):
                if e:
                    part = part * (full[name] ** e)
            result = result + part
        return result

    def embed(self, new_vars):
        """Reinterpret over a superset of variables, matching by name."""
        new_vars = tuple(new_vars)
        idx = []
        for name in self.vars:
            try:
                idx.append(new_vars.index(name))
            except ValueError:
                raise VariableMismatchError(
                    f"{name!r} missing from target variables {new_vars}") from None
        n = len(new_vars)
        terms = {}
        for m, c in self.terms.items():
            mono = [0] * n
            for pos, e in zip(idx, m):
                mono[pos] = e
            terms[tuple(mono)] = c
        return Polynomial(new_vars, terms)

    def restrict(self, new_vars):
        """Project onto a variable subset; fails if a dropped variable occurs."""
        new_vars = tuple(new_vars)
        keep = []
        for name in new_vars:
            keep.append(self.vars.index(name))
        dropped = [i for i in range(len(self.vars)) if i not in keep]
        terms = {}
        for m, c in self.terms.items():
            for i in dropped:
                if m[i]:
                    raise VariableMismatchError(
                        f"term uses dropped variable {self.vars[i]!r}")
            terms[tuple(m[i] for i in keep)] = c
        return Polynomial(new_vars, terms)

    def uses_only(self, names):
        """True when every variable with a positive exponent is in `names`."""
        allowed = {self.vars.index(n) for n in names if n in self.vars}
        for m in self.terms:
            for i, e in enumerate(m):
                if e and i not in allowed:
                    return False
        return True

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# division and gcd
# ---------------------------------------------------------------------------

def _record(row, denom, gate):
    """The division record of sum(c/denom * m) over a row of nonzero integer
    terms (packed m, c) in descending order, with its `gate`; see
    `division_record`."""
    g = int_gcd(*(c for _, c in row))
    lead, c0 = row[0]
    if c0 < 0:
        g = -g
    tail = [(x, c // g) for x, c in row[1:]]
    return lead, c0 // g, tail, Fraction(g, denom), gate


def _reduce(work, scale, records, layout, quotients=None, firsts=None, regular=None):
    """The one division loop, behind every remainder and quotient.

    `work` maps packed monomials (`_Layout`) to integers under one scale
    (an entry c stands for c/scale); each divisor is its `division_record`,
    a primitive integer row times a scalar k.  Each step takes the largest
    remaining term and subtracts a multiple of the first divisor whose
    leading term divides it; a term no leading term divides goes to the
    remainder.  When the row's leading coefficient lc does not divide the
    term's c, the work terms, the remainder terms collected so far and the
    scale are all multiplied by lc/gcd(c, lc), so every step stays in
    integers.  The result is the remainder row, its (packed monomial,
    integer) terms in descending order, and the one final scale they stand
    under; a quotient term is collected as c/(scale*lc)/k at the scale of
    its step.  Steps and divisor choices are those of rational division,
    so both equal its results exactly.

    The work terms sit in a min-heap of packed ints, which the packing
    orders largest monomial first (Monagan and Pearce's heap division with
    packed exponent vectors).  A cancelled term keeps its heap entry with
    coefficient 0 and is dropped when popped: every term a step adds is
    smaller than the one it reduces, so nothing re-enters once popped.  A
    leading monomial divides m exactly when the difference t of their
    packed forms sets no guard bit, and t is then the packed quotient
    monomial, so each product is t plus a packed tail monomial.  Exponent
    overflow is tested once per step, against the divisor's gate; only a
    step that could overflow checks its products one by one, and raises
    at the first that does, as `monomial_mul` would.  When `quotients`
    (one dict per divisor) is given, the quotient terms are collected
    into it.

    `firsts`, kept over calls whose `records` only grow by appending, maps
    a packed monomial to its first dividing lead's index, or to ~n when
    none of the first n leads divides it; no lead appended later precedes
    a first divisor, so a monomial is tried only on the leads added since.

    `regular`, given as (sig, width, ratios), gates every step by
    signatures (`groebner_engine._buchberger`): the divisor i whose lead
    divides x may act only when (x << width) - sig > ratios[i], which says
    that the signature of its multiple lies below `sig`, the signature of
    the element reduced.  A step goes to the first divisor that passes;
    the memo still records the first that divides.
    """
    guard = layout.guard
    leads = [record[0] for record in records]
    if regular is not None:
        sig, width, ratios = regular
    heap = list(work)
    heapify(heap)
    rem = []
    while heap:
        x = heappop(heap)
        c = work.pop(x)
        if not c:
            continue
        i = -1 if firsts is None else firsts.get(x, -1)
        if i < 0:
            for i, lead in enumerate(leads if i == -1 else islice(leads, ~i, None), ~i):
                if not (x - lead) & guard:
                    break
            else:
                i = ~len(leads)
            if firsts is not None:
                firsts[x] = i
            if i < 0:
                rem.append((x, c))
                continue
        if regular is not None:
            y = (x << width) - sig
            if y <= ratios[i]:
                for i in range(i + 1, len(leads)):
                    if y > ratios[i] and not (x - leads[i]) & guard:
                        break
                else:
                    rem.append((x, c))
                    continue
        t = x - leads[i]
        _, lc, tail, k, gate = records[i]
        q = c
        if lc != 1:
            q, r = divmod(c, lc)
            if r:
                g = int_gcd(c, lc)
                q, lift = c // g, lc // g
                work = {mm: v * lift for mm, v in work.items()}
                rem = [(mm, v * lift) for mm, v in rem]
                scale *= lift
        if quotients is not None:
            quotients[i][layout.unpack(t)] = Fraction(q, scale) / k
        if (t + gate) & guard:
            layout.check(t, tail)
        for tm, tc in tail:
            mm = t + tm
            s = work.get(mm)
            if s is None:
                work[mm] = -q * tc
                heappush(heap, mm)
            else:
                work[mm] = s - q * tc
    return rem, scale


def divide(f, divisors, order=GREVLEX):
    """Multivariate division: f = sum(q_i * d_i) + r.

    No term of the remainder is divisible by any divisor's leading term.
    Divisors are tried in the given sequence at each step; a zero divisor
    raises ValueError (`division_record`).
    """
    if not divisors:
        raise ValueError("empty divisor list")
    quotients = [{} for _ in divisors]
    r = remainder(f, divisors, order, quotients)
    return [Polynomial(f.vars, q) for q in quotients], r


def remainder(f, divisors, order=GREVLEX, quotients=None):
    """Remainder of multivariate division by the divisors' division
    records under `order`; `quotients` as in `_reduce`.  A divisor over
    other variables than f raises VariableMismatchError."""
    if not divisors:
        return f
    for d in divisors:
        f._check(d)
    records = [d.division_record(order) for d in divisors]
    layout = _layout(order, len(f.vars))
    work, scale, _ = _integer_work(f, layout)
    # each packed monomial back to f's exponent tuple, so a term that
    # survives division is never unpacked
    get, unpack = dict(zip(work, f.terms)).get, layout.unpack
    rem, scale = _reduce(work, scale, records, layout, quotients)
    return Polynomial(f.vars, {get(x) or unpack(x): _quotient(c, scale) for x, c in rem})


def _integer_work(f, layout):
    """f's terms as `_reduce` takes them: packed monomials mapped to
    integers, in the order of f's terms, the one scale they stand under,
    and f's largest exponent (`_top_exponent`)."""
    top = _top_exponent(f.terms)
    scale = lcm(*(c.denominator for c in f.terms.values()))
    work = {x: c.numerator * (scale // c.denominator)
            for x, c in zip(layout.pack(f.terms), f.terms.values())}
    return work, scale, top


def monic_remainder(record, records, layout, t=0, regular=None, firsts=None):
    """The multiple t*g of the polynomial g with division record `record`,
    t packed by `layout` (0 for g itself), reduced by `records` and made
    monic: the division record of the monic remainder, or None when it
    reduces to zero.

    The multiple is formed on g's primitive integer row at scale 1, since
    a monic remainder does not depend on the scale; only its tail can pass
    EXPONENT_LIMIT, since t*lead(g) is the lcm of two leading monomials in
    Buchberger's J-pairs.  `regular`, the signature gate, and `firsts`, a
    memo of first divisors, are handed to `_reduce`.
    """
    lead, lc, tail, _, gate = record
    if (t + gate) & layout.guard:
        layout.check(t, tail)
    work = {t + tm: tc for tm, tc in tail}
    work[t + lead] = lc
    row = _reduce(work, 1, records, layout, firsts=firsts, regular=regular)[0]
    if not row:
        return None
    return _record(row, row[0][1], layout.gate(_top_exponent(layout.unpack(x) for x, _ in row)))


def exact_div(f, g, order=GREVLEX):
    """Quotient f/g when g divides f exactly."""
    qs, r = divide(f, [g], order)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return qs[0]


def gcd(f, g):
    """Greatest common divisor, made monic under grevlex.

    f*g divided by lcm(f, g), the generator of (f) intersected with (g)
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, section
    4.3); the intersection's J-pair reductions are charged to the current
    budget.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.monic(GREVLEX)
    if g.is_zero():
        return f.monic(GREVLEX)
    if f.is_constant() or g.is_constant():
        return Polynomial.one(f.vars)
    f._check(g)
    # groebner_engine imports this module
    from .groebner_engine import Ideal, ideal_intersection
    [lcm_fg] = ideal_intersection(Ideal([f]), Ideal([g])).generators
    return exact_div(f, exact_div(lcm_fg, g)).monic(GREVLEX)


# ---------------------------------------------------------------------------
# text syntax: identifiers, ^ for powers, * optional, rationals as a/b
# ---------------------------------------------------------------------------

def _tokenize_poly(text, vars):
    """Tokens (kind, text, column); an unknown variable is a lexical error."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if text[i:j] not in vars:
                raise ParseError(f"unknown variable {text[i:j]!r}", column=i)
            tokens.append(("ident", text[i:j], i))
            i = j
        elif "0" <= ch <= "9":   # ASCII digits only
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
        elif ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=i)
    if not tokens:
        raise ParseError("empty polynomial expression")
    return tokens


class _PolyParser:
    def __init__(self, tokens, vars, expand):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars
        self.expand = expand   # false: form no product or sum, only check the grammar

    def number(self, tok):
        try:
            return int(tok[1])
        except ValueError:   # past the interpreter's limit on digits
            raise ParseError(f"number of {len(tok[1])} digits is too long",
                             column=tok[2]) from None

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", column=tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] is not None:
            raise ParseError(f"trailing input {tok[1]!r}", column=tok[2])
        return p

    def expr(self):
        """Terms, each after a run of signs (none before the first)."""
        p = Polynomial.zero(self.vars)
        while True:
            sign = 1
            while self.peek()[0] in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            q = self.term()
            if self.expand:
                p = p + q * sign
            if self.peek()[0] not in ("+", "-"):
                return p

    def term(self):
        """Factors, `*` between them optional."""
        p = self.factor()
        while self.peek()[0] in ("*", "ident", "number", "("):
            if self.peek()[0] == "*":
                self.take()
            q = self.factor()
            p = p * q if self.expand else p
        return p

    def factor(self):
        """A base, raised by repeated squaring when a power follows."""
        p = self.base()
        if self.peek()[0] != "^":
            return p
        self.take()
        n = self.number(self.take("number"))
        return p ** n if self.expand else p

    def base(self):
        kind, value, col = self.peek()
        if kind == "number":
            num = self.number(self.take())
            if self.peek()[0] == "/":
                self.take()
                den = self.number(self.take("number"))
                if den == 0:
                    raise ParseError("zero denominator", column=col)
                return Polynomial.constant(self.vars, Fraction(num, den))
            return Polynomial.constant(self.vars, num)
        if kind == "ident":
            self.take()
            return Polynomial.variable(value, self.vars)
        if kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise ParseError(f"unexpected token {value!r}" if value else "empty expression",
                         column=col)


def _blocks(coefficients):
    """512-bit blocks of the longest numerator or denominator, at least 1."""
    try:
        bits = max(map(int.bit_length, coefficients), default=0)
    except TypeError:  # a Fraction among them
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in coefficients), default=0)
    return bits // 512 + 1


def product_cost(a, b):
    """The term budget's price of a product of two polynomials with coefficients
    a and b (collections of ints or Fractions): its len(a)*len(b) term
    products, each weighted by the blocks of the factors' longest ones.

    One block is about the cost of a term product's own bookkeeping: a
    product and sum of rational coefficients of 1024, 4096 and 32768 bits
    takes about 7, 59 and 2550 times as long as of one-word ones, against
    weights of 9, 81 and 4225.
    """
    return len(a) * len(b) * _blocks(a) * _blocks(b)


def parse_polynomial(text, vars):
    """Parse the toolkit's polynomial syntax, e.g. ``x^2*y - 3/2*z``.

    A first pass of the same parser forms no product or sum and only
    checks the grammar, so a ParseError anywhere in the text comes before
    any expansion.  The second pass expands in one `metered` scope, whose
    term counter is charged for every product formed, powers included, as
    `Polynomial.__mul__` charges any product of two polynomials; the
    product that would pass its limit raises BudgetExceededError unformed.
    """
    vars = tuple(vars)
    tokens = _tokenize_poly(text, vars)
    _PolyParser(tokens, vars, expand=False).parse()
    with metered():
        return _PolyParser(tokens, vars, expand=True).parse()


def _digits(n):
    """The decimal digits of the int n; LndError past the interpreter's limit."""
    try:
        return str(n)
    except ValueError:
        raise LndError(f"a coefficient of {n.bit_length()} bits is too long to print") from None


def format_polynomial(p):
    """Canonical text form: terms descending under GRLEX."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms(GRLEX):
        num, den = c.numerator, c.denominator
        body = [name if e == 1 else f"{name}^{e}" for name, e in zip(p.vars, m) if e]
        size = abs(num)
        if den != 1:
            body.insert(0, f"{_digits(size)}/{_digits(den)}")
        elif size != 1 or not body:
            body.insert(0, _digits(size))
        parts.append(("- " if num < 0 else "+ ") + "*".join(body))
    text = " ".join(parts)   # then a leading "+ " goes and "- " becomes "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]
