import random
from fractions import Fraction

import pytest

from edsverify.algebra import ATOMS, LocFrac, Poly
from edsverify.jets import JetOrderError, SubstitutionError, standard_context

from conftest import random_locfrac

P = Poly.var


@pytest.fixture()
def ctx():
    return standard_context()


def test_first_order_jet(ctx):
    assert ctx.derive(ctx.symbol("lam"), 3) == LocFrac(P("lam3"))


def test_leibniz_product(ctx):
    lam, sig = ctx.symbol("lam"), ctx.symbol("sig")
    assert ctx.derive(lam * sig, 1) == LocFrac(P("lam1") * P("sig") + P("lam") * P("sig1"))


def test_quotient_rule_instance(ctx):
    # d_2 of mu- lam3 / (8 lam sig), expanded by hand term by term
    mum = LocFrac(ATOMS["mu-"])
    expr = mum * ctx.symbol("lam3") * LocFrac(Poly.const(Fraction(1, 8)), {"lam": 1, "sig": 1})
    part1 = LocFrac((2 * P("sig2") - P("lam2")) * P("lam3"), {"lam": 1, "sig": 1}) * Fraction(1, 8)
    part2 = mum * LocFrac(P("lam32"), {"lam": 1, "sig": 1}) * Fraction(1, 8)
    part3 = mum * LocFrac(
        P("lam3") * (P("lam2") * P("sig") + P("lam") * P("sig2")), {"lam": 2, "sig": 2}
    ) * Fraction(1, 8)
    assert ctx.derive(expr, 2) == part1 + part2 - part3


def test_derivative_of_atom_stays_localized(ctx):
    # d of 1/mu+ has denominator mu+^2, still inside the atom monoid
    v = ctx.derive(LocFrac(Poly.const(1), {"mu+": 1}), 1)
    assert v == LocFrac(-(2 * P("sig1") + P("lam1")), {"mu+": 2})


def test_jet_order_exceeded(ctx):
    with pytest.raises(JetOrderError):
        ctx.derive(ctx.symbol("lam12"), 1)


def test_derive_is_linear(ctx):
    rng = random.Random(21)
    for _ in range(60):
        a, b = random_locfrac(rng), random_locfrac(rng)
        for direction in (1, 2, 3, 4):
            assert ctx.derive(a + b, direction) == ctx.derive(a, direction) + ctx.derive(b, direction)


def test_second_order_jets_do_not_commute(ctx):
    d12 = ctx.derive(ctx.derive(ctx.symbol("lam"), 1), 2)
    d21 = ctx.derive(ctx.derive(ctx.symbol("lam"), 2), 1)
    assert d12 == LocFrac(P("lam12"))
    assert d21 == LocFrac(P("lam21"))
    assert d12 != d21


def test_substitute_zeroes(ctx):
    expr = P("lam1") ** 2 + P("lam2") ** 2 + P("lam4") ** 2
    assert ctx.substitute(expr, {"lam1": 0, "lam2": 0, "lam4": 0}).is_zero()


def test_substitute_functional_dependence(ctx):
    v = ctx.substitute(P("sig3"), {"sig3": LocFrac(P("sigp") * P("lam3"))})
    assert v == LocFrac(P("sigp") * P("lam3"))


def test_substitute_sigp_value(ctx):
    lam, sig = P("lam"), P("sig")
    sigp_value = LocFrac((12 * sig**2 - lam**2) * Fraction(1, 8), {"lam": 1, "sig": 1})
    v = ctx.substitute(8 * lam * sig * P("sigp"), {"sigp": sigp_value})
    assert v == LocFrac(12 * sig**2 - lam**2)


def test_substitute_commutes_with_ring_ops_disjoint(ctx):
    rng = random.Random(4)
    sub = {"S1": LocFrac(P("lam") * P("sig")), "lam3": LocFrac(Poly.const(2))}
    for _ in range(40):
        a, b = random_locfrac(rng), random_locfrac(rng)
        if "lam3" in (a.den.keys() | b.den.keys()):
            continue
        assert ctx.substitute(a + b, sub) == ctx.substitute(a, sub) + ctx.substitute(b, sub)
        assert ctx.substitute(a * b, sub) == ctx.substitute(a, sub) * ctx.substitute(b, sub)


def test_substitute_rejects_denominator_escape(ctx):
    bad = LocFrac(P("lam"), {"sig": 1})
    with pytest.raises(SubstitutionError) as err:
        ctx.substitute(bad, {"sig": LocFrac(P("lam") + P("sig"))})
    assert err.value.factor is not None



def test_substitute_of_absent_keys_is_the_identity(ctx):
    rng = random.Random(5)
    absent = {"S3": LocFrac(P("lam")), "sig44": 0}
    for _ in range(40):
        a = random_locfrac(rng)
        b = ctx.substitute(a, absent)
        assert b == a and (b.num, b.den) == (a.num, a.den)
    assert ctx.substitute(P("lam") + 1, absent) == LocFrac(P("lam") + 1)


def test_substitute_reaches_a_key_inside_a_denominator_atom(ctx):
    # lam occurs in the fraction only through mu+ = 2 sig + lam
    expr = LocFrac(P("sig"), {"mu+": 1})
    assert ctx.substitute(expr, {"lam": 0}) == LocFrac(Poly.const(Fraction(1, 2)))
    assert ctx.substitute(expr, {"lam": LocFrac(2 * P("sig"))}) == LocFrac(Poly.const(Fraction(1, 4)))
    with pytest.raises(SubstitutionError):
        ctx.substitute(expr, {"lam": LocFrac(-2 * P("sig"))})
