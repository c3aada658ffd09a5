"""Hypothesis-driven property checks on the exact kernel."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edsverify.algebra import ATOMS, LocFrac, Poly
from edsverify.forms import DEFAULT_BASIS, DForm, wedge
from edsverify.jets import standard_context

NAMES = ("lam", "sig", "lam1", "lam3", "sig2", "S1")

coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 2), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(Poly)
denominators = st.dictionaries(st.sampled_from(sorted(ATOMS)), st.integers(1, 2), max_size=2)
fracs = st.builds(LocFrac, polys, denominators)
#: zero or one term: the operands the product takes a shortcut for
short_polys = st.dictionaries(monomials, coeffs, max_size=1).map(Poly)

CTX = standard_context()


@settings(max_examples=150, deadline=None)
@given(fracs, fracs, fracs)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(fracs, fracs)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(fracs, st.sampled_from((1, 2, 3, 4)))
def test_derive_respects_products_with_sigma(a, direction):
    sig = CTX.symbol("sig")
    lhs = CTX.derive(a * sig, direction)
    rhs = CTX.derive(a, direction) * sig + a * CTX.derive(sig, direction)
    assert lhs == rhs


one_forms = st.builds(
    lambda pairs: DForm(
        DEFAULT_BASIS, 1, {(i,): c for i, c in pairs.items()}
    ),
    st.dictionaries(st.integers(0, 7), fracs, max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(one_forms, one_forms)
def test_one_form_wedge_anticommutes(a, b):
    assert wedge(a, b) == -wedge(b, a)


@settings(max_examples=60, deadline=None)
@given(one_forms, one_forms, one_forms)
def test_wedge_associates(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def reference_product(a: Poly, b: Poly) -> Poly:
    """a * b by the double loop over terms, a outer, b inner."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            m = tuple(sorted(exps.items()))
            terms[m] = terms.get(m, 0) + c1 * c2
    return Poly(terms)


@settings(max_examples=150, deadline=None)
@given(polys, short_polys)
def test_products_with_a_short_operand_match_the_double_loop(a, b):
    for x, y in ((a, b), (b, a), (b, b)):
        product, reference = x * y, reference_product(x, y)
        assert product == reference
        assert list(product.terms) == list(reference.terms)


@settings(max_examples=150, deadline=None)
@given(polys, polys, denominators)
def test_sums_on_equal_denominators_match_cross_multiplication(p, q, den):
    a, b = LocFrac(p, den), LocFrac(q, den)
    assume(a.den == b.den)
    total = a + b
    den_sum = {n: a.den.get(n, 0) + b.den.get(n, 0) for n in a.den.keys() | b.den.keys()}
    reference = LocFrac(a.num * b.den_poly() + b.num * a.den_poly(), den_sum)
    assert (total.num, total.den) == (reference.num, reference.den)
