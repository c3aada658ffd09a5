import json
from fractions import Fraction

import pytest

import edsverify.cases as C
from edsverify.algebra import AlgebraError, LocFrac, NonUnitError, Poly
from edsverify.equations import (
    CASE2_FINAL,
    CASE2_J,
    CASE3_FINAL,
    CASE3_REWRITTEN,
    ELS_I,
    ELS_II,
    FSQ_I,
    FSQ_II,
    LTS_1,
    LTS_2,
    SUC,
    lam,
    sig,
)
from edsverify.jets import mentioned


@pytest.fixture(scope="module")
def const_lambda(system, derived):
    return C.run_const_lambda(system, derived.components)


@pytest.fixture(scope="module")
def case_ii(system, derived):
    return C.run_case_ii(system, derived.equations)


@pytest.fixture(scope="module")
def case_iii(system, derived):
    return C.run_case_iii(system, derived.equations)


def failed(checks):
    return [c for c in checks if c["status"] != "pass"]


def test_const_lambda_pipeline(const_lambda):
    assert not failed(const_lambda)
    tags = [c["id"] for c in const_lambda]
    for name in ("F1=0", "F2=0", "G3=0", "G4=0"):
        assert name in tags
    assert const_lambda[-1]["id"] == "conclusion" and const_lambda[-1]["label"] == "sig = 0"


def test_case_ii_pipeline(case_ii):
    assert not failed(case_ii), failed(case_ii)
    tags = [c["id"] for c in case_ii]
    assert tags[:5] == ["assumptions", "suc-1", "suc-2", "suc-3", "suc-4"]
    assert "lts-1" in tags and "els-i" in tags and "final" in tags
    assert tags[-2:] == ["conclusion", "sos"]


def test_case_ii_displays():
    P = Poly.var
    assert SUC[3] == 2 * sig * P("S2") - P("sig1")
    assert LTS_1 == P("lam3") * P("sig3") + 4 * sig * (4 * sig**2 - lam**2)
    assert LTS_2 == 3 * (4 * sig**2 - lam**2) * P("lam3") ** 2 - 64 * lam * sig**2 * (
        lam**2 - 2 * sig**2
    )
    assert CASE2_FINAL == lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4


def test_case_ii_quartic_certificate(case_ii):
    sos = case_ii[-1]
    assert sos["id"] == "sos" and sos["status"] == "pass"
    assert sos["detail"] == "1*(lam^2 - 5/2*sig^2)^2 + 23/4*(sig^2)^2"


def test_case_iii_pipeline(case_iii):
    assert not failed(case_iii), failed(case_iii)
    tags = [c["id"] for c in case_iii]
    for name in ("fsq-i-a", "fsq-ii-b", "rule-1", "rule-3", "rewrite-h4", "final"):
        assert name in tags
    assert tags[0] == "assumptions" and tags[-1] == "conclusion"


def test_case_iii_displays():
    P = Poly.var
    assert FSQ_I == 8 * lam * sig * P("sigp") - 12 * sig**2 + lam**2
    assert FSQ_II == 64 * lam**2 * sig**3 * P("sigpp") - (4 * sig**2 - lam**2) * (
        12 * sig**2 + lam**2
    )
    assert CASE3_FINAL == 8 * lam**2 * sig * (P("lam1") ** 2 + P("lam2") ** 2 + P("lam3") ** 2)


def test_case_iii_rewritten_h4_sign():
    """The last rewritten equation carries +16 lam^3 sig^2 on its right-hand
    side, i.e. -16 in the lhs-minus-rhs polynomial."""
    mono = tuple(sorted((("lam", 3), ("sig", 2))))
    assert CASE3_REWRITTEN[5].terms[mono] == Fraction(-16)


def test_els_displays_are_solutions_of_the_divided_equations():
    P = Poly.var
    assert ELS_I.coefficient_of("lam33", 1) == 8 * lam * sig * (2 * sig - lam)
    assert ELS_II.coefficient_of("lam33", 1) == 8 * lam * sig * (2 * sig + lam)


def test_sos_quartic():
    cert = C.sos_certificate(CASE2_FINAL)
    assert cert is not None
    acc = Poly.zero()
    for c, q in cert:
        assert c > 0
        acc = acc + Poly.const(c) * q * q
    assert acc == CASE2_FINAL
    assert cert[0][0] == 1 and cert[1][0] == Fraction(23, 4)


def test_sos_trivial_two_square():
    cert = C.sos_certificate(lam**2 + sig**2)
    assert cert == [(Fraction(1), lam), (Fraction(1), sig)]


def test_sos_three_variable_trivial():
    p = Poly.var("lam1") ** 2 + Poly.var("lam2") ** 2 + Poly.var("lam3") ** 2
    cert = C.sos_certificate(p)
    assert cert is not None and len(cert) == 3


def test_sos_cross_term_certificate():
    P = Poly.var
    p = (P("lam1") + P("lam2")) ** 2 + P("lam3") ** 2
    assert C.sos_certificate(p) == [(Fraction(1), P("lam1") + P("lam2")), (Fraction(1), P("lam3"))]


def test_sos_positive_middle_term():
    p = lam**4 + 3 * lam**2 * sig**2 + sig**4
    cert = C.sos_certificate(p)
    assert cert == [(Fraction(1), lam**2), (Fraction(3), lam * sig), (Fraction(1), sig**2)]
    # terms of a non-homogeneous sum come in graded-lex order
    assert C.sos_certificate(lam**2 + 1) == [(Fraction(1), lam), (Fraction(1), Poly.const(1))]


def test_sos_inconclusive_cases():
    assert C.sos_certificate(-(lam**2)) is None
    # indefinite quartic: lam^4 - 10 lam^2 sig^2 + sig^4 is negative at lam=sig
    assert C.sos_certificate(lam**4 - 10 * lam**2 * sig**2 + sig**4) is None
    # indefinite quadratic: negative at lam = -sig; its Gram matrix has a negative pivot
    assert C.sos_certificate(lam**2 + 3 * lam * sig + sig**2) is None
    # no even monomial to pair the terms with
    assert C.sos_certificate(lam * sig) is None
    assert C.sos_certificate(lam**2 - sig**2) is None


def test_reduce_square_helper():
    value = LocFrac(2 * lam)
    expr = LocFrac(Poly.var("lam3") ** 4 * sig)
    reduced = C.reduce_square(expr, "lam3", value)
    assert reduced == LocFrac(4 * lam**2 * sig)


def test_reports_serialize(const_lambda, case_ii, case_iii):
    for checks in (const_lambda, case_ii, case_iii):
        assert not failed(checks)
        assert len(checks) > 2
        assert all(set(c) == {"id", "label", "status", "detail"} for c in checks)
        assert json.loads(json.dumps(checks)) == checks


def test_failed_step_reports_residual(system):
    steps = []
    ok = C._expect(steps, "mismatch", "deliberately wrong expectation",
                   C._coerce_frac(Poly.var("lam")), 0)
    assert not ok
    assert steps[0]["status"] == "fail"
    assert "residual" in steps[0]["detail"]
    assert "lam" in steps[0]["detail"]
    checks = C._checks(system, C.FactStore(system.ctx), ["demo"], steps, "demo", "")
    assert [(c["id"], c["status"]) for c in checks] == [
        ("assumptions", "pass"), ("mismatch", "fail"), ("conclusion", "fail")]


class EveryFactStore:
    """The reference: the former fact store, which substituted each new fact
    into every older fact."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.facts = {}

    def add(self, name, value, with_derivatives=False):
        v = self.ctx.substitute(value, self.facts)
        for key in list(self.facts):
            self.facts[key] = self.ctx.substitute(self.facts[key], {name: v})
        self.facts[name] = v
        if with_derivatives:
            for j in (1, 2, 3, 4):
                self.add(f"{name}{j}", self.ctx.derive(v, j))


def test_fact_stores_close_as_the_every_fact_loop_does(system, derived, monkeypatch):
    stores = []

    class Recorded(C.FactStore):
        """A FactStore that logs its outermost additions for a replay."""

        def __init__(self, ctx):
            super().__init__(ctx)
            self.log, self.depth = [], 0
            stores.append(self)

        def add(self, name, value, with_derivatives=False):
            if not self.depth:
                self.log.append((name, value, with_derivatives))
            self.depth += 1
            try:
                super().add(name, value, with_derivatives)
            finally:
                self.depth -= 1

    monkeypatch.setattr(C, "FactStore", Recorded)
    reports = [C.run_const_lambda(system, derived.components),
               C.run_case_ii(system, derived.equations), C.run_case_iii(system, derived.equations)]
    assert not any(failed(checks) for checks in reports) and len(stores) == 3
    for store in stores:
        reference = EveryFactStore(store.ctx)
        for name, value, with_derivatives in store.log:
            reference.add(name, value, with_derivatives)
        assert list(store.facts) == list(reference.facts)
        for key, value in store.facts.items():
            want = reference.facts[key]
            assert value.num.terms == want.num.terms and value.den == want.den, key
            assert store.mentions[key] == mentioned(value)


def test_solved_facts_are_the_typed_values(system):
    """`FactStore.solve` of each display gives the value the pipelines once
    typed beside it as a literal fraction."""
    P = Poly.var
    mus = 4 * sig**2 - lam**2
    typed = [
        (SUC[2], "S1", 1, LocFrac(-P("sig2") * Fraction(1, 2), {"sig": 1})),
        (SUC[3], "S2", 1, LocFrac(P("sig1") * Fraction(1, 2), {"sig": 1})),
        (CASE2_J, "S4", 1, LocFrac(2 * lam**2, {"lam3": 1})),
        (LTS_1, "sig3", 1, LocFrac(-4 * sig * mus, {"lam3": 1})),
        (LTS_2, "lam3", 2, LocFrac(64 * lam * sig**2 * (lam**2 - 2 * sig**2) * Fraction(1, 3),
                                   {"mu+": 1, "mu-": 1})),
        (FSQ_I, "sigp", 1, LocFrac((12 * sig**2 - lam**2) * Fraction(1, 8), {"lam": 1, "sig": 1})),
        (FSQ_II, "sigpp", 1, LocFrac((4 * sig**2 - lam**2) * (12 * sig**2 + lam**2) * Fraction(1, 64),
                                     {"lam": 2, "sig": 3})),
    ]
    store = C.FactStore(system.ctx)
    for display, name, power, value in typed:
        solved = store.solve(display, name, power)
        assert solved.num.terms == value.num.terms and solved.den == value.den, name
    assert list(store.divides_by) == ["sig", "lam3", "mu+", "mu-", "lam"]


@pytest.mark.parametrize("display, error", [
    (Poly.var("lam1") * Poly.var("S1") + Poly.var("sig2"), NonUnitError),
    (Poly.var("S1") ** 2 + Poly.var("S1"), AlgebraError),
    (Poly.var("sig2"), AlgebraError),
])
def test_solve_refuses_a_display_it_cannot_divide_through(system, display, error):
    """The coefficient of the name must be a unit (lam1 is not an atom), and
    neither it nor the rest may hold the name; a display without the name
    has no value for it."""
    store = C.FactStore(system.ctx)
    with pytest.raises(error):
        store.solve(display, "S1")
    assert not store.divides_by


def test_divide_refuses_a_non_unit(system):
    store = C.FactStore(system.ctx)
    assert store.divide(8 * lam * sig * Poly.var("lam3"), 4 * sig) == LocFrac(2 * lam * Poly.var("lam3"))
    with pytest.raises(NonUnitError):
        store.divide(lam, lam + sig)
    assert list(store.divides_by) == ["sig"]


def test_pipelines_observe_the_atoms_they_divide_by(system, derived, monkeypatch):
    """Each pipeline's `divides_by` is observed by its store: the atoms of
    every unit it divided by and of every denominator it was given, in the
    order first met."""
    stores = []

    class Recorded(C.FactStore):
        def __init__(self, ctx):
            super().__init__(ctx)
            stores.append(self)

    monkeypatch.setattr(C, "FactStore", Recorded)
    C.run_const_lambda(system, derived.components)
    C.run_case_ii(system, derived.equations)
    C.run_case_iii(system, derived.equations)
    assert [list(store.divides_by) for store in stores] == [
        ["lam", "sig"], ["sig", "lam3", "lam", "mu+", "mu-"], ["lam", "sig"]]


def test_case_iii_sig_prime_relation_differentiates_to_lam_i_times_one_core(system, case_iii):
    """Under case iii's facts (lam4 = 0, sig_i = sig' lam_i and
    sig_ij = sig' lam_ij + sig'' lam_i lam_j), d_i of the sig' relation is
    lam_i times one core for each of i = 1, 2, 3, so the core vanishes
    wherever the gradient does not; `fsq-ii-a` records all three."""
    P = Poly.var
    sigp, sigpp = P("sigp"), P("sigpp")
    store = C.FactStore(system.ctx)
    store.add("lam4", 0, with_derivatives=True)
    for i in (1, 2, 3, 4):
        store.add(f"sig{i}", sigp * P(f"lam{i}"))
        for j in (1, 2, 3, 4):
            store.add(f"sig{i}{j}", sigp * P(f"lam{i}{j}") + sigpp * P(f"lam{i}") * P(f"lam{j}"))
    core = 8 * lam * sig * sigpp + 8 * lam * sigp**2 - 16 * sig * sigp + 2 * lam
    for i in (1, 2, 3):
        assert store.reduce(system.ctx.derive(FSQ_I, i)) == LocFrac(P(f"lam{i}") * core), i
    assert store.reduce(system.ctx.derive(FSQ_I, 4)).is_zero()
    assert not store.divides_by
    [step] = [c for c in case_iii if c["id"] == "fsq-ii-a"]
    assert step == {"id": "fsq-ii-a", "status": "pass", "detail": "",
                    "label": "d_i of the sig' relation is lam_i times one core (i = 1, 2, 3)"}
