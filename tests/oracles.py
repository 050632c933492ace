"""Plain rational reference routines the library no longer carries, for
checking its integer-row routes against."""

from lndkit.poly_core import Polynomial, monomial_div, monomial_lcm


def s_polynomial(f, g, order):
    """lcm/LT(f) * f - lcm/LT(g) * g, in Fraction arithmetic, with the
    leading terms' lcm and each shift taken by the textbook definition
    (Cox, Little and O'Shea, section 2.6)."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = monomial_lcm(mf, mg)
    return (f * Polynomial(f.vars, {monomial_div(lcm, mf): 1 / cf})
            - g * Polynomial(g.vars, {monomial_div(lcm, mg): 1 / cg}))
