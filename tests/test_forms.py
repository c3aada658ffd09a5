import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsverify.algebra import ATOMS, LocFrac, Poly
from edsverify.derive import match_transcription
from edsverify.equations import EQ36
from edsverify.forms import (
    COFRAME,
    DEFAULT_BASIS,
    DForm,
    FormError,
    RuleSystem,
    coeff6,
    d_scalar,
    ext_d,
    form_sum,
    parts_of,
    wedge,
)
from conftest import random_locfrac


@pytest.fixture()
def basis():
    return DEFAULT_BASIS


def one_forms(basis, *names):
    return tuple(DForm.one_form(basis, n) for n in names)


def test_wedge_basis(basis):
    A, B = one_forms(basis, "A", "B")
    ab = wedge(A, B)
    assert ab.degree == 2
    assert ab.coefficient("A", "B") == LocFrac(Poly.const(1))


def test_wedge_anticommutes(basis):
    A, B = one_forms(basis, "A", "B")
    assert wedge(B, A) == -wedge(A, B)


def test_volume_form(basis):
    A, B, C, D = one_forms(basis, *COFRAME)
    top = wedge(wedge(A, B), wedge(C, D))
    assert top.coefficient("A", "B", "C", "D") == LocFrac(Poly.const(1))


def test_degree_overflow_collapses_to_zero(basis):
    A, B, C, D = one_forms(basis, *COFRAME)
    three = wedge(wedge(A, B), C)
    top = wedge(three, D)
    assert wedge(top, wedge(A, B)).is_zero()
    assert wedge(three, wedge(C, D)).is_zero()


def test_graded_anticommutativity_random(basis):
    rng = random.Random(17)
    names = basis.names
    for _ in range(40):
        da, db = rng.randint(1, 2), rng.randint(1, 2)
        a = DForm(basis, da)
        b = DForm(basis, db)
        for _ in range(3):
            ia = tuple(sorted(rng.sample(range(len(names)), da)))
            ib = tuple(sorted(rng.sample(range(len(names)), db)))
            a = a + DForm(basis, da, {ia: random_locfrac(rng)})
            b = b + DForm(basis, db, {ib: random_locfrac(rng)})
        sign = (-1) ** (da * db)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        assert lhs == (rhs if sign > 0 else -rhs)


def test_wedge_associative_random(basis):
    rng = random.Random(23)
    for _ in range(25):
        forms = []
        for _ in range(3):
            idx = (rng.randrange(len(basis.names)),)
            forms.append(DForm(basis, 1, {idx: random_locfrac(rng)}))
        a, b, c = forms
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_ext_d_scalar(system):
    lam = system.ctx.symbol("lam")
    d = d_scalar(system.ctx, system.basis, lam)
    expected = DForm(
        system.basis, 1, {(i,): Poly.var(f"lam{i + 1}") for i in range(4)}
    )
    assert d == expected


def test_ext_d_coframe_rule(system):
    rules = RuleSystem(system.basis, system.ctx, system.d_rules)
    A = DForm.one_form(system.basis, "A")
    B, C, D = (DForm.one_form(system.basis, n) for n in "BCD")
    F, G, L, S = (system.one_form(n) for n in ("F", "G", "L", "S"))
    E = (S + L).scale(Fraction(1, 2))
    assert ext_d(A, rules) == wedge(B, E) + wedge(C, F) + wedge(D, G)


def test_ext_d_missing_rule_is_configuration_error(system):
    rules = RuleSystem(system.basis, system.ctx, {"A": system.d_rule("A")})
    with pytest.raises(FormError):
        ext_d(DForm.one_form(system.basis, "B"), rules)


def test_leibniz_rule_random(system):
    rng = random.Random(31)
    rules = RuleSystem(system.basis, system.ctx, system.d_rules)
    names = system.basis.names
    for _ in range(15):
        da, db = rng.randint(1, 2), rng.randint(0, 1)
        ia = tuple(sorted(rng.sample(range(len(names)), da)))
        a = DForm(system.basis, da, {ia: random_locfrac(rng)})
        if db:
            ib = tuple(sorted(rng.sample(range(len(names)), db)))
            b = DForm(system.basis, db, {ib: random_locfrac(rng)})
        else:
            b = DForm.scalar(system.basis, random_locfrac(rng))
        lhs = ext_d(wedge(a, b), rules)
        rhs = wedge(ext_d(a, rules), b)
        tail = wedge(a, ext_d(b, rules))
        assert lhs == (rhs + tail if da % 2 == 0 else rhs - tail)


def test_dd_lambda_reproduces_equation_a(system, derived):
    """Setting the A^B coefficient of d(d lam) to zero reproduces equation (a)
    up to the recorded factor."""
    rules = derived.rules
    ddlam = ext_d(d_scalar(system.ctx, system.basis, system.ctx.symbol("lam")), rules)
    raw = ddlam.coefficient("A", "B")
    mult = match_transcription(EQ36["a"], raw)
    assert mult is not None
    factor, den = mult
    assert not den
    assert factor == -4 * Poly.var("sig")


def test_dd_coframe_abstract_zero(system):
    rules = RuleSystem(system.basis, system.ctx, system.d_rules)
    for name in COFRAME:
        assert ext_d(system.d_rule(name), rules).is_zero()


def test_dd_coframe_reduces_to_rule_identities(system, derived):
    """With the closed-form connection components substituted, d^2 on the
    coframe is exactly the wedge combination of the rule identities, so it
    vanishes on every solution of the system."""
    from fractions import Fraction

    from edsverify.derive import identity_forms

    rules = derived.rules
    idf = identity_forms(rules, derived.components, derived.sys.roles, which=("dF", "dG", "dL", "dS"))
    I_E = (idf["dS"] + idf["dL"]).scale(Fraction(1, 2))
    I_H = (idf["dS"] - idf["dL"]).scale(Fraction(1, 2))
    A, B, C, D = (DForm.one_form(system.basis, n) for n in COFRAME)
    expected = {
        "A": wedge(B, I_E) + wedge(C, idf["dF"]) + wedge(D, idf["dG"]),
        "B": wedge(-A, I_E) + wedge(D, idf["dF"]) + wedge(-C, idf["dG"]),
        "C": wedge(-A, idf["dF"]) + wedge(B, idf["dG"]) + wedge(D, I_H),
        "D": wedge(-B, idf["dF"]) + wedge(-A, idf["dG"]) + wedge(-C, I_H),
    }
    for name in COFRAME:
        dd = ext_d(rules.d_rule(name), rules)
        assert dd == -expected[name]


def test_kahler_form_closed(system):
    rules = RuleSystem(system.basis, system.ctx, system.d_rules)
    A, B, C, D = (DForm.one_form(system.basis, n) for n in COFRAME)
    omega = wedge(A, B) + wedge(C, D)
    assert ext_d(omega, rules).is_zero()


def test_coeff6_ricci_form(system):
    lam = system.ctx.symbol("lam")
    A, B, C, D = (DForm.one_form(system.basis, n) for n in COFRAME)
    rho = (-wedge(A, B) + wedge(C, D)).scale(lam)
    values = [v for v in coeff6(rho)]
    assert values[0] == -lam and values[5] == lam
    assert all(v.is_zero() for v in values[1:5])


def test_coeff6_zeta(system):
    A, B, C, D = (DForm.one_form(system.basis, n) for n in COFRAME)
    zeta = -wedge(A, B) + wedge(C, D)
    one = LocFrac(Poly.const(1))
    assert coeff6(zeta) == (-one, *( [LocFrac(Poly.zero())] * 4 ), one)


def test_coeff6_zero(system):
    zero = DForm(system.basis, 2)
    assert all(v.is_zero() for v in coeff6(zero))


def test_coeff6_rejects_wrong_degree(system):
    with pytest.raises(FormError):
        coeff6(DForm.one_form(system.basis, "A"))


def test_coeff6_rejects_auxiliary_indices(system):
    mixed = wedge(DForm.one_form(system.basis, "A"), DForm.one_form(system.basis, "F"))
    with pytest.raises(FormError):
        coeff6(mixed)


def reference_ext_d(form, sys):
    """ext_d by wedging unit forms and scaling: d(c e^I) is dc ^ e^I plus,
    for each position p, (-1)^p c (e^{I_0..I_p-1} ^ d e^{I_p} ^ e^{I_p+1..})."""
    basis = form.basis
    if form.degree == 0:
        return d_scalar(sys.ctx, basis, form.terms.get((), 0))
    out = DForm(basis, form.degree + 1)
    for idx, c in form.terms.items():
        out = out + wedge(d_scalar(sys.ctx, basis, c), DForm(basis, form.degree, {idx: 1}))
        for pos, i in enumerate(idx):
            prefix = DForm(basis, pos, {idx[:pos]: 1})
            suffix = DForm(basis, len(idx) - pos - 1, {idx[pos + 1:]: 1})
            piece = wedge(wedge(prefix, sys.d_rule(basis.names[i])), suffix)
            out = out + (-piece if pos % 2 else piece).scale(c)
    return out


def stored(form):
    """Every term of form as stored, by index: the coefficient's canonical
    text, which writes its numerator and denominator.  Compared as a dict, so
    the order the terms were added in does not count."""
    return {idx: str(c) for idx, c in form.terms.items()}


def test_ext_d_matches_reference_on_the_shipped_rules(system):
    for name in system.d_rules:
        rule = system.d_rule(name)
        assert stored(ext_d(rule, system)) == stored(reference_ext_d(rule, system))


def test_ext_d_matches_reference_on_the_component_rules(system, derived):
    rules = derived.rules
    for name in rules.d_rules:
        rule = rules.d_rule(name)
        assert stored(ext_d(rule, rules)) == stored(reference_ext_d(rule, rules))


NAMES = ("lam", "sig", "lam1", "lam3", "sig2", "S1")
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 2), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
coeffs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
fracs = st.builds(
    LocFrac,
    st.dictionaries(monomials, coeffs, max_size=3).map(Poly),
    st.dictionaries(st.sampled_from(sorted(ATOMS)), st.integers(1, 2), max_size=2),
)


@st.composite
def forms(draw, degree=None):
    degree = draw(st.integers(1, 3)) if degree is None else degree
    size = len(DEFAULT_BASIS.names)
    index = st.sets(st.integers(0, size - 1), min_size=degree, max_size=degree)
    terms = draw(st.dictionaries(index.map(lambda s: tuple(sorted(s))), fracs, max_size=3))
    return DForm(DEFAULT_BASIS, degree, terms)


@settings(max_examples=60, deadline=None)
@given(form=forms())
def test_ext_d_matches_reference_on_drawn_forms(system, form):
    assert stored(ext_d(form, system)) == stored(reference_ext_d(form, system))


@st.composite
def summands(draw):
    """Forms of one degree, and the negation of one of them, so that some
    indices cancel, in a drawn order."""
    degree = draw(st.integers(1, 3))
    drawn = draw(st.lists(forms(degree), min_size=1, max_size=4))
    drawn.append(-draw(st.sampled_from(drawn)))
    return draw(st.permutations(drawn))


def assert_no_zero_stored(form):
    assert all(not c.is_zero() for c in form.terms.values()), form.terms
    assert form.is_zero() == (form == DForm(form.basis, form.degree))


@settings(max_examples=60, deadline=None)
@given(summands())
def test_form_sum_is_the_fold_of_plus_in_any_order(drawn):
    total = form_sum(DEFAULT_BASIS, drawn[0].degree, parts_of(*drawn))
    assert stored(total) == stored(reduce(add, drawn))
    assert stored(total) == stored(reduce(add, reversed(drawn)))
    assert_no_zero_stored(total)


@settings(max_examples=40, deadline=None)
@given(a=forms(), b=forms())
def test_no_form_stores_a_zero_coefficient(system, a, b):
    for form in (wedge(a, b), ext_d(a, system), a + a, a - a, a.scale(0)):
        assert_no_zero_stored(form)
    assert (a - a).terms == {}
