import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lndkit import rees_builder
from lndkit.config import budget
from lndkit.derivation_engine import Derivation
from lndkit.errors import DegenerateInputError
from lndkit.groebner_engine import Ideal, ideal_member
from lndkit.kernel_lab import kernel_generators
from lndkit.poly_core import Polynomial, parse_polynomial
from lndkit.presentation import PresentedRing
from lndkit.rees_builder import (
    _piece_builder,
    compare_kernel_to_rees,
    ideal_power,
    rees_truncation,
    saturator_certified,
    symbolic_power,
)
from oracles import ideal_equal, power_products, rees_failures, symbolic_piece

UV = ("u", "v")
UVW = ("u", "v", "w")
PU = PresentedRing.polynomial_ring(UV)


def pp(text, vars=UVW):
    return parse_polynomial(text, vars)


XYZ = ("x", "y", "z")


def curve_prime():
    """The prime of the monomial curve (t^3, t^4, t^5) in Q[x, y, z]."""
    return [pp(t, XYZ) for t in ("x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y")]


@pytest.fixture(scope="module")
def cone():
    return PresentedRing.quotient(UVW, [pp("u*w - v^2")])


@pytest.fixture(scope="module")
def cone_ideal():
    return Ideal([pp("u"), pp("v")], UVW)


class TestIdealPower:
    def test_square(self):
        ideal = Ideal([pp("u", UV), pp("v", UV)], UV)
        sq = ideal_power(ideal, 2)
        target = Ideal([pp(t, UV) for t in ("u^2", "u*v", "v^2")], UV)
        assert ideal_equal(sq, target)

    def test_zeroth_power_is_unit(self):
        ideal = Ideal([pp("u", UV)], UV)
        assert ideal_member(Polynomial.one(UV), ideal_power(ideal, 0))

    def test_zero_ideal_powers(self):
        zero = Ideal([], UV)
        assert ideal_power(zero, 2).is_zero()
        assert ideal_member(Polynomial.one(UV), ideal_power(zero, 0))

    def test_products_in_combination_order(self):
        # each product built from an I^(k-1) product, listed as when every
        # k-fold product is multiplied out on its own
        ideal = Ideal([pp(t) for t in ("u*w - v^2", "u + 2*v", "w^2 - 3")], UVW)
        for k in range(1, 5):
            assert ideal_power(ideal, k).generators == power_products(ideal, k)

    def test_cone_collapse_by_normal_forms(self, cone):
        # u * v^2 and u^2 * w agree in the cone ring
        assert cone.equal(pp("u*v^2"), pp("u^2*w"))
        cube = ideal_power(Ideal([pp("u"), pp("v")], UVW), 3)
        assert len(cube.generators) == 4


class TestSymbolicPower:
    def test_maximal_ideal_powers_unchanged(self):
        ideal = Ideal([pp("u", UV), pp("v", UV)], UV)
        s = pp("1 + u", UV)
        for n in (1, 2, 3):
            sym = symbolic_power(ideal, n, s, PU)
            assert ideal_equal(sym, ideal_power(ideal, n))

    def test_zero_ideal(self, cone):
        assert symbolic_power(Ideal([], UV), 2, pp("u", UV), PU).is_zero()
        # the relation saturates to itself, whose normal form is zero
        sym = symbolic_power(Ideal([], UVW), 2, pp("w"), cone)
        assert sym.generators == []

    def test_principal_ideal(self):
        ideal = Ideal([pp("u", UV)], UV)
        sym = symbolic_power(ideal, 3, pp("v", UV), PU)
        assert ideal_equal(sym, Ideal([pp("u^3", UV)], UV))

    def test_cone_symbolic_square_jumps(self, cone, cone_ideal):
        sym2 = symbolic_power(cone_ideal, 2, pp("w"), cone)
        lifted2 = cone.lifted_ideal(sym2.generators)
        assert ideal_member(pp("u"), lifted2)
        ordinary = cone.lifted_ideal(ideal_power(cone_ideal, 2).generators)
        assert not ideal_member(pp("u"), ordinary)

    def test_first_symbolic_power_is_the_ideal(self, cone, cone_ideal):
        sym1 = symbolic_power(cone_ideal, 1, pp("w"), cone)
        lifted = cone.lifted_ideal(cone_ideal.generators)
        lifted_sym = cone.lifted_ideal(sym1.generators)
        assert ideal_equal(lifted, lifted_sym)

    def test_saturator_inside_ideal_rejected(self, cone, cone_ideal):
        with pytest.raises(DegenerateInputError):
            symbolic_power(cone_ideal, 2, pp("v"), cone)

    def test_principal_degeneration_random(self):
        rng = random.Random(41)
        for _ in range(10):
            g = _random_poly(rng, UV, 3)
            if g.is_zero() or g.is_constant():
                continue
            ideal = Ideal([g], UV)
            s = pp("1 + u^2", UV)
            lifted = PU.lifted_ideal([g])
            if ideal_member(s, lifted):
                continue
            n = rng.randint(1, 3)
            sym = symbolic_power(ideal, n, s, PU)
            assert ideal_equal(sym, Ideal([g ** n], UV))


class TestReesTruncation:
    def test_principal_pieces(self):
        ideal = Ideal([pp("u", UV)], UV)
        data = rees_truncation(ideal, 3, pp("v", UV), PU)
        for k in range(4):
            assert ideal_equal(data.pieces[k],
                               Ideal([pp("u", UV) ** k], UV))

    def test_plane_ideal_matches_ordinary(self):
        ideal = Ideal([pp("u", UV), pp("v", UV)], UV)
        data = rees_truncation(ideal, 2, pp("1 + u", UV), PU)
        for k in range(3):
            assert ideal_equal(data.pieces[k], ideal_power(ideal, k))

    def test_cone_piece_two_strictly_bigger(self, cone, cone_ideal):
        data = rees_truncation(cone_ideal, 2, pp("w"), cone)
        lifted = cone.lifted_ideal(data.pieces[2].generators)
        assert ideal_member(pp("u"), lifted)

    def test_cone_multiplicativity_through_four(self, cone, cone_ideal):
        data = rees_truncation(cone_ideal, 4, pp("w"), cone)
        assert len(data.pieces) == 5
        assert rees_failures(data) == []

    def test_curve_multiplicativity_through_four(self):
        ring = PresentedRing.polynomial_ring(XYZ)
        data = rees_truncation(Ideal(curve_prime()), 4, pp("x", XYZ), ring)
        assert len(data.pieces) == 5
        assert rees_failures(data) == []

    def test_checks_pass_for_a_saturator_that_misses_the_symbolic_power(self):
        # P, the prime of the monomial curve (t^3, t^4, t^5), has P^2 with
        # associated primes P and (x, y, z).  1 + x lies in neither, so
        # saturating at it gives back P^2 and both checks still pass;
        # x gives the strictly larger symbolic square.  Only the Jacobian
        # certificate tells the two saturators apart.
        ring = PresentedRing.polynomial_ring(XYZ)
        prime = Ideal(curve_prime())
        square = ideal_power(prime, 2)
        shifted = rees_truncation(prime, 2, pp("1 + x", XYZ), ring)
        assert ideal_equal(shifted.pieces[2], square)
        assert rees_failures(shifted) == []
        assert not saturator_certified(prime, pp("1 + x", XYZ), ring)
        symbolic = rees_truncation(prime, 2, pp("x", XYZ), ring)
        extra = pp("x^5 - 3*x^2*y*z + x*y^3 + z^3", XYZ)
        assert ideal_member(extra, symbolic.pieces[2])
        assert not ideal_member(extra, square)
        assert saturator_certified(prime, pp("x", XYZ), ring)

    def test_only_the_input_ideal_is_lifted(self, cone, cone_ideal, monkeypatch):
        # the input ideal is lifted once, for the saturator check; no piece
        # is lifted, since nothing is checked against the pieces
        lifted = []
        lift = PresentedRing.lifted_ideal
        monkeypatch.setattr(PresentedRing, "lifted_ideal",
                            lambda ring, gens: lifted.append(gens) or lift(ring, gens))
        data = rees_truncation(cone_ideal, 4, pp("w"), cone)
        for piece in data.pieces:
            assert not any(gens is piece.generators for gens in lifted)
        assert sum(gens is cone_ideal.generators for gens in lifted) == 1


class TestSaturatorCertificate:
    def test_cone_ruling_at_w(self, cone, cone_ideal):
        # J_P = (1); the relation's minors w, -2v, u leave w modulo P.  The
        # vertex (u, v, w) is an embedded prime of P^2, which 1 + w misses
        assert saturator_certified(cone_ideal, pp("w"), cone)
        assert not saturator_certified(cone_ideal, pp("1 + w"), cone)
        square = symbolic_power(cone_ideal, 2, pp("1 + w"), cone)
        assert not ideal_member(pp("u"), cone.lifted_ideal(square.generators))

    @pytest.mark.parametrize("saturator", ["z", "1 + z", "x + z"])
    def test_smooth_complete_intersection_at_any_saturator(self, saturator):
        # (x, y) has Jacobian minor 1 and no relations: P^k has no
        # embedded prime, so every saturator outside P is certified
        ring = PresentedRing.polynomial_ring(XYZ)
        plane = Ideal([pp("x", XYZ), pp("y", XYZ)])
        assert saturator_certified(plane, pp(saturator, XYZ), ring)

    def test_saturator_inside_the_ideal_rejected(self, cone, cone_ideal):
        with pytest.raises(DegenerateInputError):
            saturator_certified(cone_ideal, pp("u*w"), cone)

    def test_no_minors_certify_nothing(self, cone, cone_ideal, monkeypatch):
        # a cap below the minors needed leaves the answer "not proven"
        monkeypatch.setattr(rees_builder, "CERTIFICATE_MINORS", 0)
        assert not saturator_certified(cone_ideal, pp("w"), cone)
        ring = PresentedRing.polynomial_ring(XYZ)
        assert not saturator_certified(Ideal(curve_prime()), pp("x", XYZ), ring)

    def test_heights_from_leading_monomials(self, cone):
        ring = PresentedRing.polynomial_ring(XYZ)
        assert rees_builder._height(cone.relations, 3) == 1
        assert rees_builder._height(ring.relations, 3) == 0
        assert rees_builder._height(Ideal(curve_prime()).groebner(), 3) == 2
        assert rees_builder._height(Ideal([pp(v, XYZ) for v in XYZ]).groebner(), 3) == 3

    def test_minors_of_the_curve_prime(self):
        # 2 x 2 minors of the Jacobian of the curve's reduced basis: their
        # zeros on the curve are the origin alone
        ring = PresentedRing.polynomial_ring(XYZ)
        basis = Ideal(curve_prime()).groebner()
        minors = rees_builder._jacobian_minors(basis, ring)
        assert len(minors) == 9
        singular = Ideal(minors + basis.elements)
        for v in XYZ:
            assert ideal_member(pp(v, XYZ) ** 4, singular)


def _random_poly(rng, vars, max_degree=3, n_terms=3):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9))
    return Polynomial(vars, terms)


class TestKernelAgainstRees:
    def test_principal_pattern(self):
        # kernel of u d/dX + u^2 d/dY is Q[u][Y - uX]: the degree-1 piece
        # cofactor lands in the principal ideal (u)
        vars = ("u", "X", "Y")
        ring = PresentedRing.polynomial_ring(vars)
        d = Derivation(ring, {"X": parse_polynomial("u", vars),
                              "Y": parse_polynomial("u^2", vars)})
        report = kernel_generators(d, 2)
        syzygy = parse_polynomial("Y - u*X", vars).monic(ring.order)
        assert syzygy in [g.monic(ring.order) for g in report.generators]
        ideal = Ideal([parse_polynomial("u", vars)], vars)
        data = rees_truncation(ideal, 2, parse_polynomial("1 + u", vars), ring)
        out = compare_kernel_to_rees(report, data, "X")
        assert out.ok
        top = [e for e in out.entries if e.grading_degree == 1]
        assert top and all(str(e.cofactor) in ("u", "-u") for e in top)

    def test_bd_style_cofactors(self):
        vars = ("u", "v", "X", "Y")
        ring = PresentedRing.polynomial_ring(vars)
        d = Derivation(ring, {"X": parse_polynomial("u", vars),
                              "Y": parse_polynomial("v", vars)})
        report = kernel_generators(d, 2)
        base = PresentedRing.polynomial_ring(vars)
        ideal = Ideal([parse_polynomial("u", vars), parse_polynomial("v", vars)], vars)
        data = rees_truncation(ideal, 2, parse_polynomial("1 + u", vars), base)
        out = compare_kernel_to_rees(report, data, "X")
        assert out.ok
        degrees = {str(e.generator): e.grading_degree for e in out.entries}
        assert degrees["u"] == 0 and degrees["v"] == 0
        syzygy = [e for e in out.entries if e.grading_degree == 1]
        assert len(syzygy) == 1
        assert str(syzygy[0].cofactor) == "v"
        assert "mixed terms" in syzygy[0].note

    def test_trivial_extension_sits_in_piece_zero(self):
        vars = ("u", "v", "X", "Y", "W")
        ring = PresentedRing.polynomial_ring(vars)
        d = Derivation(ring, {"X": parse_polynomial("u", vars),
                              "Y": parse_polynomial("v", vars)})
        report = kernel_generators(d, 2)
        assert any(str(g) == "W" for g in report.generators)
        ideal = Ideal([parse_polynomial("u", vars), parse_polynomial("v", vars)], vars)
        data = rees_truncation(ideal, 2, parse_polynomial("1 + u", vars), ring)
        out = compare_kernel_to_rees(report, data, "X")
        w_entry = [e for e in out.entries if str(e.generator) == "W"][0]
        assert w_entry.grading_degree == 0 and w_entry.in_piece


RINGS = {
    "polynomial": PresentedRing.polynomial_ring(XYZ),
    "cone": PresentedRing.quotient(XYZ, [pp("x*z - y^2", XYZ)]),
    "non-domain": PresentedRing.quotient(XYZ, [pp("x*y", XYZ)]),
}
small_monomials = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in XYZ))
small_coefficients = st.integers(min_value=-3, max_value=3).filter(bool)
# no constant term, so that few ideals are the unit ideal
generators = st.dictionaries(small_monomials.filter(any), small_coefficients,
                             min_size=1, max_size=3).map(
    lambda terms: Polynomial(XYZ, terms))
# at least two terms, so never a variable
saturators = st.dictionaries(small_monomials, small_coefficients,
                             min_size=2, max_size=3).map(
    lambda terms: Polynomial(XYZ, terms))


class TestPiecesFromLowerPieces:
    """Piece k from pieces floor(k/2) and k - floor(k/2) against the direct
    saturation of I^k + relations, and the S-pairs the halving saves."""

    @pytest.mark.parametrize("ring", list(RINGS), ids=list(RINGS))
    @given(data=st.data())
    @settings(max_examples=25)
    def test_pieces_match_the_direct_saturation(self, ring, data):
        ring = RINGS[ring]
        ideal = Ideal(data.draw(st.lists(generators, min_size=1, max_size=2)), XYZ)
        s = ring.normal(data.draw(saturators))
        assume(not s.is_zero())
        piece = _piece_builder(ideal, s, ring)
        for k in range(1, 5):
            assert piece(k).generators == symbolic_piece(ideal, k, s, ring).generators

    def test_piece_one_bigger_than_the_ideal(self):
        # (x*z, y*z) saturated at z is (x, y), and so is every later factor
        ring = RINGS["polynomial"]
        ideal = Ideal([pp(t, XYZ) for t in ("x*z", "y*z")], XYZ)
        s = pp("z", XYZ)
        piece = _piece_builder(ideal, s, ring)
        plane = Ideal([pp("x", XYZ), pp("y", XYZ)], XYZ)
        assert piece(1).generators == plane.generators
        for k in range(1, 5):
            assert piece(k).generators == symbolic_piece(ideal, k, s, ring).generators
            assert ideal_equal(piece(k), ideal_power(plane, k))

    @pytest.mark.parametrize("build, host, n, pairs", [
        # the direct saturations of I^k made 441, 612 and 40 under
        # Buchberger's criteria, and 105, 170 and 10 built from lower pieces
        (symbolic_power, "curve", 8, 53),
        (rees_truncation, "curve", 6, 88),
        (rees_truncation, "cone", 4, 7),
    ], ids=["curve-symbolic-8", "curve-rees-6", "cone-rees-4"])
    def test_counts(self, build, host, n, pairs, cone):
        if host == "curve":
            ring, ideal, s = RINGS["polynomial"], Ideal(curve_prime()), pp("x", XYZ)
        else:
            ring, ideal, s = cone, Ideal([pp("u"), pp("v")]), pp("w")
        with budget() as scope:
            build(ideal, n, s, ring)
        assert scope.used == pairs
