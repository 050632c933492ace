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
Derivations*, 2nd ed., ch. 6; Weitzenboeck, Acta Math. 58 (1932)."""

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
