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
