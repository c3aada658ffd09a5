import random
from fractions import Fraction

import pytest

from edsverify import jets
from edsverify.algebra import ATOMS, LocFrac, Poly
from edsverify.jets import JetError, JetOrderError, SubstitutionError, standard_context

from conftest import VARS, random_locfrac, random_poly

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


# -- the one-pass derivative and substitution against the former folds --------


def leibniz_dpoly(ctx, p, direction):
    """The reference: the former d of a polynomial, each partial derivative
    times its link added pairwise as LocFracs."""
    out = LocFrac(Poly.zero())
    for mono, coeff in p.terms.items():
        for name, e in mono:
            rest = dict(mono)
            if e > 1:
                rest[name] = e - 1
            else:
                del rest[name]
            partial = Poly({tuple(sorted(rest.items())): coeff * e})
            out = out + LocFrac(partial) * LocFrac(ctx.derive_var(name, direction))
    return out


def quotient_rule_fold(ctx, expr, direction):
    """The reference: the former derive, dp / q minus the atom terms summed
    pairwise."""
    out = leibniz_dpoly(ctx, expr.num, direction) * LocFrac(Poly.const(1), expr.den)
    for atom, e in expr.den.items():
        datom = leibniz_dpoly(ctx, ATOMS[atom], direction)
        out = out - e * expr * datom * LocFrac(Poly.const(1), {atom: 1})
    return out


def pairwise_subst(p, assignment):
    """The reference: the former polynomial substitution, every term's value
    powers multiplied out and the terms added pairwise as LocFracs."""
    out = LocFrac(Poly.zero())
    for mono, coeff in p.terms.items():
        kept, factor = [], LocFrac(Poly.const(coeff))
        for name, e in mono:
            if name in assignment:
                for _ in range(e):
                    factor = factor * assignment[name]
            else:
                kept.append((name, e))
        out = out + factor * LocFrac(Poly({tuple(kept): 1}))
    return out


def same(a: LocFrac, b: LocFrac) -> bool:
    return a.num.terms == b.num.terms and a.den == b.den


def test_dpoly_matches_the_leibniz_sum(ctx):
    rng = random.Random(83)
    for _ in range(150):
        # sigp's link sigpp lam_j has two factors
        p = random_poly(rng, max_terms=5, max_exp=3) * (P("sigp") ** rng.randint(0, 2))
        for direction in (1, 2, 3, 4):
            got = p.derivative(lambda name: ctx.derive_var(name, direction))
            want = leibniz_dpoly(ctx, p, direction)
            assert not want.den and got.terms == want.num.terms, p


def test_derivative_collects_the_terms_that_meet(ctx):
    # over lam, sig and their first jets the partial derivatives of different
    # terms land on one monomial, where they add up or cancel
    names = ("lam", "sig", "lam1", "sig1", "lam2", "sig2")
    rng = random.Random(107)
    for _ in range(150):
        p = Poly({tuple((n, rng.randint(1, 2)) for n in sorted(rng.sample(names, rng.randint(1, 3)))):
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 5))})
        for direction in (1, 2):
            got = p.derivative(lambda name: ctx.derive_var(name, direction))
            assert got == leibniz_dpoly(ctx, p, direction).num, p
    d1 = (P("lam") * P("sig1") - P("sig") * P("lam1")).derivative(lambda name: ctx.derive_var(name, 1))
    assert d1 == P("lam") * P("sig11") - P("sig") * P("lam11")


def test_derive_matches_the_quotient_rule_fold(ctx):
    rng = random.Random(89)
    for _ in range(150):
        expr = random_locfrac(rng)
        for direction in (1, 2, 3, 4):
            assert same(ctx.derive(expr, direction), quotient_rule_fold(ctx, expr, direction)), expr


def test_subst_poly_matches_the_pairwise_fold(ctx):
    rng = random.Random(97)
    for _ in range(150):
        p = random_poly(rng, max_terms=5, max_exp=3)
        names = rng.sample(VARS, rng.randint(1, 3))
        # values with atom denominators, zeros among them
        assignment = {n: random_locfrac(rng) if rng.random() < 0.8 else LocFrac(Poly.zero()) for n in names}
        assert same(p.substitute(assignment), pairwise_subst(p, assignment)), (p, assignment)


def test_a_link_must_be_a_polynomial(ctx):
    ctx.register("u")
    ctx.link("u", 1, 2 * P("lam"))
    assert ctx.derive(P("u") ** 2, 1) == LocFrac(4 * P("u") * P("lam"))
    with pytest.raises(JetError, match="is not a polynomial"):
        ctx.link("u", 2, LocFrac(P("lam"), {"sig": 1}))


def test_substitute_reads_only_the_keys_that_occur(ctx):
    class Reads(dict):
        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

    read = []
    assignment = Reads({"lam": LocFrac(P("sig")), "sig3": 0, "S1": 1, "lam44": 2})
    expr = LocFrac(P("sig3") * P("S2"), {"mu+": 1})
    assert jets.mentioned(expr) == {"sig3", "S2", "lam", "sig"}
    assert ctx.substitute(expr, assignment).is_zero()
    assert sorted(read) == ["lam", "sig3"]
