"""Sparse multivariate polynomials over Q with exact rational arithmetic.

Monomials are plain exponent tuples, one slot per ambient variable.
Polynomials map monomials to nonzero Fractions; every ring element used
anywhere in the toolkit is one of these.

`remainder`, `divide` and `exact_div` share one division loop, `_reduce`.
It runs fraction-free: the work terms are integers under one running
scale, and each divisor enters as a record cached on the polynomial per
monomial order, its coefficients a rational scalar times a primitive
integer row (the idiom of `_linalg`; Becker and Weispfenning, ch. 5).  The
work terms sit in a heap under `MonomialOrder.heap_key`, so each step takes
the largest remaining term without rescanning, and a divisor is skipped by
a variable-support mask before trying to divide (a support-only form of
Bachmann and Schoenemann's short exponent vectors).  Steps and divisor
choices are those of textbook division (Cox, Little and O'Shea, 2.3), and
every quotient and remainder equals the rational one exactly; only the
bookkeeping differs (Monagan and Pearce, sparse division with a heap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm
from operator import add, ge, mul, neg, sub

from .config import current_budget
from .errors import (BudgetExceededError, ExponentOverflowError, LndError, ParseError,
                     VariableMismatchError)

Rational = Fraction

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


def monomial_div(a, b):
    """Quotient a/b as an exponent tuple, or None when b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _grevlex_key(m):
    return (sum(m), tuple(map(neg, reversed(m))))


def _support(m):
    """Bitmask of the variables occurring in m, one byte per variable.

    A monomial divides m only if its support mask has no byte outside m's.
    """
    return int.from_bytes(bytes(map(bool, m)), "big")


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order acting positionally on exponent tuples.

    kind is one of "lex", "grlex", "grevlex", "block"; a block order
    compares the first `block` variables (graded reverse lex) before the
    rest, so it eliminates them.  An optional permutation reorders the
    variables before comparison.  Orders key the per-order caches of every
    polynomial, so the hash is computed once; equality stays by value.
    """

    kind: str
    block: int = 0
    permutation: tuple = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.kind, self.block, self.permutation)))

    def __hash__(self):
        return self._hash

    def key(self, m):
        if self.permutation is not None:
            m = tuple(m[i] for i in self.permutation)
        if self.kind == "lex":
            return m
        if self.kind == "grlex":
            return (sum(m), m)
        if self.kind == "grevlex":
            return _grevlex_key(m)
        if self.kind == "block":
            k = self.block
            return (_grevlex_key(m[:k]), _grevlex_key(m[k:]))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def heap_key(self, m):
        """Descending key: heap_key(a) < heap_key(b) exactly when key(a) > key(b).

        It is `key` with every component negated and flattened into one
        tuple, so a min-heap under it yields the largest monomial first.
        """
        if self.permutation is not None:
            m = tuple(m[i] for i in self.permutation)
        if self.kind == "lex":
            return tuple(map(neg, m))
        if self.kind == "grlex":
            return (-sum(m), *map(neg, m))
        if self.kind == "grevlex":
            return (-sum(m), *reversed(m))
        if self.kind == "block":
            head, tail = m[:self.block], m[self.block:]
            return (-sum(head), *reversed(head), -sum(tail), *reversed(tail))
        raise ValueError(f"unknown order kind {self.kind!r}")

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
# polynomials
# ---------------------------------------------------------------------------

def _rational(value):
    """An exact coefficient as a Fraction.  A float is refused: it holds
    only a binary approximation of the number that was meant."""
    if isinstance(value, float):
        raise TypeError(f"float coefficient {value!r}; use an int or a Fraction")
    return Fraction(value)


class Polynomial:
    """Immutable sparse polynomial over Q.

    `vars` is the ambient variable tuple; `terms` maps exponent tuples to
    nonzero Fractions (given as ints or Fractions; a float is refused).
    The zero polynomial has an empty term map.
    Sorted term lists and division records are cached per monomial order.
    """

    __slots__ = ("vars", "terms", "_sorted", "_records")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise VariableMismatchError(
                    f"monomial {mono} does not fit {n} variables")
            c = coeff if type(coeff) is Fraction else _rational(coeff)
            if c:
                clean[tuple(mono)] = c
        self.terms = clean
        self._sorted = {}
        self._records = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, value):
        value = _rational(value)
        if not value:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(tuple(vars)): value})

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
        return cls(vars, {mono: Fraction(1)})

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
        """Terms sorted descending under `order`; cached per order."""
        cached = self._sorted.get(order)
        if cached is None:
            cached = sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                            reverse=True)
            self._sorted[order] = cached
        return cached

    def division_record(self, order):
        """How `_reduce` divides by this nonzero polynomial; cached per order.

        The tuple (support mask of the leading monomial, leading monomial,
        integer leading coefficient lc > 0, integer tail [(monomial, int)]
        in descending order, scalar k, largest tail exponent), where self is
        k times the primitive integer row lc*lead + tail.
        """
        record = self._records.get(order)
        if record is None:
            terms = self.sorted_terms(order)
            denom = lcm(*(c.denominator for _, c in terms))
            ints = [c.numerator * (denom // c.denominator) for _, c in terms]
            g = int_gcd(*ints)
            if ints[0] < 0:
                g = -g
            lead = terms[0][0]
            tail = [(m, v // g) for (m, _), v in zip(terms[1:], ints[1:])]
            record = (_support(lead), lead, ints[0] // g, tail, Fraction(g, denom),
                      max((max(m) for m, _ in tail), default=0))
            self._records[order] = record
        return record

    def leading_term(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms(order)[0]

    def leading_monomial(self, order):
        return self.leading_term(order)[0]

    def leading_coefficient(self, order):
        return self.leading_term(order)[1]

    def monic(self, order):
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * (1 / lc)

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
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, {m: co * c for m, co in self.terms.items()})
        self._check(other)
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
        return self * (1 / c)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def diff(self, name):
        """Partial derivative with respect to the named variable."""
        i = self.vars.index(name)
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                terms[dm] = terms.get(dm, 0) + c * e
        return Polynomial(self.vars, terms)

    def substitute(self, images, target_vars=None):
        """Evaluate with each variable replaced by `images[name]`.

        Unmapped variables pass through by name into the target ring,
        which defaults to the variable set of the image polynomials.
        """
        if target_vars is None:
            for img in images.values():
                if isinstance(img, Polynomial):
                    target_vars = img.vars
                    break
            else:
                target_vars = self.vars
        target_vars = tuple(target_vars)
        full = {}
        for name in self.vars:
            if name in images:
                img = images[name]
                if not isinstance(img, Polynomial):
                    img = Polynomial.constant(target_vars, img)
                full[name] = img
            else:
                full[name] = Polynomial.variable(name, target_vars)
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

def _reduce(f, divisors, order, quotients=None):
    """The division loop behind `divide`, `remainder` and `exact_div`.

    Each step takes the largest remaining term of f and subtracts a
    multiple of the first divisor whose leading term divides it; a term no
    leading term divides goes to the remainder.  The work terms are integers
    under one running scale (a work entry c stands for c/scale); each
    divisor is its cached `division_record`, a primitive integer row times a
    scalar k.  When the row's leading coefficient lc does not divide the
    term's c, the whole work dict and the scale are multiplied by
    lc/gcd(c, lc), so every step stays in integers.  A remainder term leaves
    as c/scale at the scale current when it is popped, a quotient term as
    c/(scale*lc)/k, so both equal the rational division's exactly.  The
    work terms sit in a min-heap under `order.heap_key`, computed once when
    a monomial first enters.  A cancelled term keeps its heap entry with
    coefficient 0 and is dropped when popped: every term a step adds is
    smaller than the one it reduces, so nothing re-enters once popped.  A
    divisor is tried only when its support mask fits the term's.  Exponent
    overflow is tested once per step, against the step's monomial and the
    divisor's largest tail exponent; only a step that could overflow builds
    its products through `monomial_mul`.  When `quotients` (one dict per
    divisor) is given, the quotient terms are collected into it.
    """
    records = [d.division_record(order) for d in divisors]
    heap_key = order.heap_key
    scale = lcm(*(c.denominator for c in f.terms.values()))
    work = {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        mask = _support(m)
        for i, (dmask, lt, lc, tail, k, dmax) in enumerate(records):
            if dmask & ~mask:
                continue
            t = monomial_div(m, lt)
            if t is None:
                continue
            q = c
            if lc != 1:
                q, r = divmod(c, lc)
                if r:
                    g = int_gcd(c, lc)
                    q, lift = c // g, lc // g
                    work = {mm: v * lift for mm, v in work.items()}
                    scale *= lift
            if quotients is not None:
                quotients[i][t] = Fraction(q, scale) / k
            checked = max(t, default=0) + dmax > EXPONENT_LIMIT
            for tm, tc in tail:
                mm = monomial_mul(t, tm) if checked else tuple(map(add, t, tm))
                s = work.get(mm)
                if s is None:
                    work[mm] = -q * tc
                    heappush(heap, (heap_key(mm), mm))
                else:
                    work[mm] = s - q * tc
            break
        else:
            rem[m] = Fraction(c, scale)
    return Polynomial(f.vars, rem)


def divide(f, divisors, order=GREVLEX):
    """Multivariate division: f = sum(q_i * d_i) + r.

    No term of the remainder is divisible by any divisor's leading term.
    Divisors are tried in the given sequence at each step.
    """
    if not divisors:
        raise ValueError("empty divisor list")
    for d in divisors:
        f._check(d)
        if d.is_zero():
            raise ValueError("zero divisor in division")
    quotients = [{} for _ in divisors]
    r = _reduce(f, divisors, order, quotients)
    return [Polynomial(f.vars, q) for q in quotients], r


def remainder(f, divisors, order=GREVLEX):
    """Remainder of multivariate division, without quotient bookkeeping."""
    if not divisors:
        return f
    return _reduce(f, divisors, order)


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
    4.3); the intersection's S-pairs are charged to the current budget.
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
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
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
    def __init__(self, tokens, vars):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars
        self.budget = current_budget()
        self.exceeded = None   # the budget error that stopped the expansion

    def mul(self, a, b):
        """a*b, its `product_cost` charged to the budget first.  Once a
        charge fails, no product is formed: a stands in for a*b while the
        rest of the text is checked for syntax."""
        if self.exceeded is not None:
            return a
        try:
            self.budget.charge_terms(product_cost(a, b), "a polynomial product")
        except BudgetExceededError as exc:
            self.exceeded = exc
            return a
        return a * b

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
        if self.exceeded is not None:
            raise self.exceeded
        return p

    def expr(self):
        """Terms, each after a run of signs (none before the first)."""
        p = Polynomial.zero(self.vars)
        while True:
            sign = 1
            while self.peek()[0] in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            p = p + self.term() * sign
            if self.peek()[0] not in ("+", "-"):
                return p

    def term(self):
        """Factors, `*` between them optional."""
        p = self.factor()
        while self.peek()[0] in ("*", "ident", "number", "("):
            if self.peek()[0] == "*":
                self.take()
            p = self.mul(p, self.factor())
        return p

    def factor(self):
        """A base, raised by repeated squaring when a power follows."""
        p = self.base()
        if self.peek()[0] != "^":
            return p
        self.take()
        return _power(p, self.number(self.take("number")), self.mul)

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


def _power(p, n, mul=mul):
    """p**n by repeated squaring, every product formed by `mul`."""
    result = Polynomial.one(p.vars)
    while n:
        if n & 1:
            result = mul(result, p)
        n >>= 1
        if n:
            p = mul(p, p)
    return result


def _blocks(p):
    """512-bit blocks of p's longest numerator or denominator, at least 1."""
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)
    return bits // 512 + 1


def product_cost(a, b):
    """The term budget's price of a*b: its len(a)*len(b) term products, each
    weighted by the 512-bit blocks of the two factors' longest coefficients.

    One block is about the cost of a term product's own bookkeeping: a
    product and sum of rational coefficients of 1024, 4096 and 32768 bits
    takes about 7, 59 and 2550 times as long as of one-word ones, against
    weights of 9, 81 and 4225.
    """
    return len(a.terms) * len(b.terms) * _blocks(a) * _blocks(b)


def parse_polynomial(text, vars):
    """Parse the toolkit's polynomial syntax, e.g. ``x^2*y - 3/2*z``.

    Every product formed, powers included, is charged to the current
    budget scope's term counter.  The product that would pass its limit is
    not formed; the rest of the text is still checked for syntax in the
    same pass, and only then is BudgetExceededError raised, so a ParseError
    anywhere in the text comes first.
    """
    vars = tuple(vars)
    return _PolyParser(_tokenize_poly(text, vars), vars).parse()


def _format_coeff(c):
    try:
        return str(c) if c.denominator != 1 else str(c.numerator)
    except ValueError:   # past the interpreter's limit on digits
        raise LndError(f"a coefficient of {max(c.numerator.bit_length(), c.denominator.bit_length())} bits "
                       "is too long to print") from None


def format_polynomial(p, order=GRLEX):
    """Canonical text form: terms descending under `order`."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms(order):
        factors = []
        for name, e in zip(p.vars, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        abs_c = abs(c)
        if not factors:
            body = _format_coeff(abs_c)
        elif abs_c == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(abs_c)] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
