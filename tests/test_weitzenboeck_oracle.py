"""Closed-form checks of the kernel of the basic Weitzenboeck derivation
x_i -> x_(i-1) on n variables, which need no linear algebra.

D is one nilpotent Jordan block, so by Jacobson-Morozov it makes Q^n an
irreducible sl_2-module, and Ker D in degree k is spanned by the
highest-weight vectors of S^k(Q^n).  Their number is the number of
partitions of floor(k(n - 1)/2) into at most k parts, each at most n - 1
(Cayley-Sylvester).  Each kernel element is a covariant of the binary form
of degree n - 1, so the classical minimal systems fix the generator
degrees: 1, 2, 3, 4 for the binary cubic, and 1, 2, 2, 3, 3 for the binary
quartic (Gordan).  Freudenburg, *Algebraic Theory of Locally Nilpotent
Derivations*, 2nd ed., ch. 6; Weitzenboeck, Acta Math. 58 (1932).

A direct sum of nilpotent Jordan blocks is a sum of irreducible sl_2-modules,
a block of size m with the weights m - 1, m - 3, ..., 1 - m on its
variables.  S^k of the sum is spanned by the degree-k monomials, each of
weight the sum of its variables' weights, and Ker D in degree k, the span of
the highest-weight vectors, has one dimension per irreducible summand of
S^k: the number of monomials of weight 0 plus the number of weight 1."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lndkit.derivation_engine import Derivation
from lndkit.kernel_lab import kernel_basis, kernel_generators
from lndkit.poly_core import Polynomial
from lndkit.presentation import PresentedRing


def _basic(n):
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    return Derivation(PresentedRing.polynomial_ring(vs),
                      {vs[i]: Polynomial.variable(vs[i - 1], vs) for i in range(1, n)})


@lru_cache(maxsize=None)
def _partitions(m, parts, largest):
    """Partitions of m into at most `parts` parts, each at most `largest`:
    those with no part equal to `largest`, and those with one removed."""
    if m == 0:
        return 1
    if parts == 0 or largest == 0:
        return 0
    return (_partitions(m, parts, largest - 1)
            + (m >= largest and _partitions(m - largest, parts - 1, largest)))


@pytest.mark.parametrize("n, degree", [(3, 8), (4, 8), (5, 8), (6, 8), (7, 6)])
def test_kernel_dimensions_are_the_cayley_sylvester_counts(n, degree):
    basis = kernel_basis(_basic(n), degree).basis
    dims = [sum(p.degree() == k for p in basis) for k in range(degree + 1)]
    assert dims == [_partitions(k * (n - 1) // 2, k, n - 1) for k in range(degree + 1)]


def test_the_count_reproduces_a_known_series():
    # n = 6, the binary quintic: 1, 1, 3, 6, 12, 20, 32, 49, 73
    assert [_partitions(k * 5 // 2, k, 5) for k in range(9)] == \
        [1, 1, 3, 6, 12, 20, 32, 49, 73]


@pytest.mark.parametrize("n, degrees", [(4, [1, 2, 3, 4]), (5, [1, 2, 2, 3, 3])],
                         ids=["cubic", "quartic"])
def test_generator_degrees_are_the_classical_ones(n, degrees):
    report = kernel_generators(_basic(n), 8)
    assert [g.degree() for g in report.generators] == degrees


def _conjugated(n, entries):
    """The basic derivation conjugated by the change of coordinates phi:
    x_j -> sum_i U[i][j] x_i, U lower unitriangular with the entries below
    its diagonal row by row; D' = phi^-1 D phi, so D'(x_j) is column j of
    U^-1 N U, N the Jordan block D(x_j) = x_(j-1)."""
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    entries = iter(entries)
    u = [[1 if i == j else next(entries) if j < i else 0 for j in range(n)]
         for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):   # forward substitution: U inv = 1
        for j in range(i):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(j, i))
    nu = [u[i + 1] if i + 1 < n else [0] * n for i in range(n)]   # N U
    m = [[sum(inv[i][k] * nu[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return Derivation(PresentedRing.polynomial_ring(vs),
                      {vs[j]: Polynomial(vs, {unit[i]: m[i][j] for i in range(n) if m[i][j]})
                       for j in range(n)})


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 6),
    st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
@settings(max_examples=25)
def test_a_change_of_coordinates_keeps_the_dimensions(case):
    # a conjugate of D is the same sl_2-module in other coordinates
    n, degree, entries = case
    basis = kernel_basis(_conjugated(n, entries), degree).basis
    dims = [sum(p.degree() == k for p in basis) for k in range(degree + 1)]
    assert dims == [_partitions(k * (n - 1) // 2, k, n - 1) for k in range(degree + 1)]


def _blocks(sizes):
    """The direct sum of nilpotent Jordan blocks of the given sizes: on each
    block's variables y_1, ..., y_m, D(y_i) = y_(i-1) and D(y_1) = 0.
    Returns the variables, named by block letter and position (a1, a2, b1,
    ...), each one's sl_2-weight, and for each the index of its image, None
    for a block's first variable."""
    vs, weights, below = [], [], []
    for b, m in enumerate(sizes):
        for i in range(1, m + 1):
            vs.append(f"{chr(97 + b)}{i}")
            weights.append(m + 1 - 2 * i)
            below.append(len(vs) - 2 if i > 1 else None)
    return tuple(vs), weights, below


def _block_derivation(sizes):
    vs, _, below = _blocks(sizes)
    return Derivation(PresentedRing.polynomial_ring(vs),
                      {v: Polynomial.variable(vs[j], vs)
                       for v, j in zip(vs, below) if j is not None})


def _weight_counts(weights, degree):
    """Kernel dimension by degree, 0 to `degree`: the number of degree-k
    monomials in variables of these weights whose weight is 0 or 1."""
    counts = [{0: 1}] + [{} for _ in range(degree)]   # counts[k][w]
    for w in weights:   # multisets: each variable may repeat
        for k in range(1, degree + 1):
            for v, c in counts[k - 1].items():
                counts[k][v + w] = counts[k].get(v + w, 0) + c
    return [c.get(0, 0) + c.get(1, 0) for c in counts]


def test_the_block_count_reproduces_known_series():
    assert _weight_counts(_blocks((2, 2))[1], 6) == [1, 2, 4, 6, 9, 12, 16]
    assert _weight_counts(_blocks((3, 2))[1], 6) == [1, 2, 5, 9, 15, 23, 34]
    # one block is the Cayley-Sylvester count
    assert _weight_counts(_blocks((6,))[1], 8) == [_partitions(k * 5 // 2, k, 5)
                                                   for k in range(9)]


@pytest.mark.parametrize("sizes, degree", [((2, 2), 3), ((3, 2), 3)])
def test_the_block_count_is_the_sympy_nullity(sizes, degree):
    # D is linear, so it maps each degree to itself: the nullity of its
    # matrix on the degree-k monomials, built and ranked by sympy alone
    sympy = pytest.importorskip("sympy")
    vs, weights, below = _blocks(sizes)
    xs = sympy.symbols(vs)
    images = [0 if j is None else xs[j] for j in below]
    dims = []
    for k in range(degree + 1):
        monomials = sorted(sympy.itermonomials(xs, k, k), key=sympy.default_sort_key)
        index = {m: j for j, m in enumerate(monomials)}
        matrix = sympy.zeros(len(monomials), len(monomials))
        for j, m in enumerate(monomials):
            image = sympy.expand(sum(g * sympy.diff(m, x) for x, g in zip(xs, images)))
            for term, c in sympy.Poly(image, *xs).as_dict().items():
                matrix[index[sympy.Mul(*[x ** e for x, e in zip(xs, term)])], j] = c
        dims.append(len(monomials) - matrix.rank())
    assert dims == _weight_counts(weights, degree)


@pytest.mark.parametrize("sizes, degree", [
    ((2, 2), 6), ((3, 2), 6), ((3, 3), 5), ((2, 2, 2), 5), ((4, 2), 5), ((4, 3), 4)])
def test_kernel_dimensions_of_block_sums_are_the_weight_counts(sizes, degree):
    basis = kernel_basis(_block_derivation(sizes), degree).basis
    dims = [sum(p.degree() == k for p in basis) for k in range(degree + 1)]
    assert dims == _weight_counts(_blocks(sizes)[1], degree)
