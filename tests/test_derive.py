import ast
import json
import random
from itertools import product
from fractions import Fraction
from pathlib import Path

import pytest

import edsverify.derive as D
from edsverify.algebra import ATOMS, AlgebraError, LocFrac, Poly
from edsverify.equations import EQ36, NEL, SOL, VARIANTS, lam, sig, mup, mum
from edsverify.forms import DForm, RuleSystem, coeff6
from edsverify.jets import SubstitutionError
from edsverify.cli import main
from edsverify.structure import Equation, lie_bracket, load_system

from conftest import random_locfrac, recorded


@pytest.fixture(scope="module")
def nel(system):
    return D.derive_nel(system)


@pytest.fixture(scope="module")
def solution(system, nel):
    rows, _ = nel
    return D.solve_sol(rows, system)


@pytest.fixture(scope="module")
def derived36(system, derived):
    return D.derive_36(derived.rules, derived.components, system.roles, system.nonzero)


def traces(checks: list) -> dict:
    """The `trace` of each eq- check of `derive_36`, by row label."""
    return {c["label"]: c["trace"] for c in checks}


def test_nel_row_count(nel):
    rows, checks = nel
    assert len(rows) == 12
    assert [c["id"] for c in checks] == sorted(f"nel-{row}" for row in NEL)
    assert all(c["status"] == "pass" for c in checks)


def test_nel_specific_rows():
    P = Poly.var
    assert NEL["i"] == 2 * sig * P("L1") + mup * P("G3") + P("sig2")
    assert NEL["v"] == mup * P("F1") + mum * P("G2")


def test_sol_closed_forms(solution):
    for name, value in SOL.items():
        assert (solution[name] - value).is_zero()


def test_sol_specific_components(solution):
    P = Poly.var
    assert solution["F1"] == LocFrac(-mum * P("lam3") * Fraction(1, 8), {"lam": 1, "sig": 1})
    assert solution["G1"] == LocFrac(-mup * P("lam4") * Fraction(1, 8), {"lam": 1, "sig": 1})


def test_inp_identities(solution):
    checks = recorded(D.verify_inp, solution)
    assert [(c["id"], c["status"]) for c in checks.values()] == [("inp-1", "pass"), ("inp-2", "pass")]


def test_back_substitution_zero(system, nel, solution):
    rows, _ = nel
    for eq in rows.values():
        assert system.ctx.substitute(eq.poly, solution).is_zero()


def test_all_36_matched(derived36):
    rows, checks = derived36
    assert len(rows) == 36
    assert all(entry["matched"] for entry in traces(checks).values())
    assert all(entry["residual"] == "0" for entry in traces(checks).values())


def test_equation_sources(derived36):
    report = traces(derived36[1])
    assert report["a"]["source"] == "d2lam @ AB"
    assert report["f"]["source"] == "d2sig @ AB"
    assert report["c"]["source"] == "dF @ AB"
    assert report["h"]["source"] == "dL @ AB"
    assert report["j"]["source"] == "dS @ AB"
    assert "via replacement 2" in report["d2"]["source"]


def test_multipliers_recovered(derived36):
    rows, _ = derived36
    assert recorded(D.verify_multipliers, rows)["multipliers"]["status"] == "pass"
    recovered = {label: row.provenance["multiplier"] for label, row in rows.items()}
    assert recovered["c"] == "256*lam^2*sig^3"
    assert recovered["j"] == "32*lam*sig^2"
    assert recovered["h"] == "-512*lam^2*sig^4"
    negative = {label for label, text in recovered.items() if text.startswith("-")}
    assert negative == D.NEGATIVE_MULTIPLIERS


@pytest.mark.parametrize("label", ["a", "c"])
def test_a_negated_multiplier_fails(derived36, label, monkeypatch, tmp_path):
    """A recovered multiplier of the wrong sign fails the `multipliers` check."""
    rows, checks = derived36
    factor, den_mono = rows[label].provenance["multiplier_value"]
    flipped = Equation(label, rows[label].poly,
                       {**rows[label].provenance, "multiplier_value": (-factor, den_mono)})
    monkeypatch.setattr(D, "derive_36", lambda *_: ({**rows, label: flipped}, checks))
    out = tmp_path / "r.json"
    assert main(["equations36", "--json", str(out)]) == 1
    failed = [c for c in json.loads(out.read_text())["checks"] if c["status"] != "pass"]
    assert [c["id"] for c in failed] == ["multipliers"]
    assert failed[0]["detail"].startswith(f"{label}:")


def test_dG_cross_checks(derived36):
    report = traces(derived36[1])
    for label in D.SYMMETRY_GENERATED:
        assert report[label]["dG_cross_check"]


def test_symmetry_variants(derived):
    assert recorded(D.verify_symmetry_variants, derived.equations)["variants"]["status"] == "pass"
    assert VARIANTS["h4"] == ("h", 4)
    assert VARIANTS["e2"] == ("e", 2)


def test_variant_table_is_complete():
    assert len(VARIANTS) == 25
    assert set(VARIANTS) | set("abcdefghijk") == set(EQ36)


def test_group_order_and_relations():
    checks = recorded(D.verify_group)
    assert list(checks) == ["order", "conjugation", "composition"]
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["order"]["detail"] == "32"
    # v is iv, then i; i and iv do not commute
    assert D.REP_I.compose(D.REP_IV) == D.REP_V
    assert D.REP_IV.compose(D.REP_I) != D.REP_V


def test_compose_is_earlier_then_self_on_rename_maps():
    """h.compose(g) renames as g's rename followed by h's, on all 32 x 32
    pairs."""
    elements = D.symmetry_group()
    assert len(elements) == 32
    for g in elements:
        for h in elements:
            first, then = g.renames(), h.renames()
            composed = {n: (s * then[m][0], then[m][1]) for n, (s, m) in first.items()}
            assert h.compose(g).renames() == composed, (h, g)


def test_group_closure_on_equations(derived):
    closure = recorded(D.verify_group_closure, derived.equations)["closure"]
    assert closure["status"] == "pass", closure["detail"]


def jet_substitution(elem):
    """The reference action of a group element: its rename as a LocFrac
    substitution."""
    return {name: LocFrac(sign * Poly.var(new)) for name, (sign, new) in elem.renames().items()}


def test_rename_matches_jet_substitution(system, derived):
    """Differential check: the signed rename of a Poly or a LocFrac equals the
    substitution, and raises exactly where the substitution sends a
    denominator atom outside the atom set."""
    ctx = system.ctx
    P = Poly.var
    # F1 and sigp lie outside the rename; lam, sig and first derivatives
    # appear with odd and even exponents, so negated symbols flip the sign
    # of a term only at odd exponents.
    hand = (
        Fraction(3, 2) * P("F1") * P("sig", 2) * P("lam2", 3)
        - P("sigp") * P("sig", 3) * P("lam12", 2)
        + 5 * P("lam", 2) * P("S21") * P("sig4")
        - 7 * P("lam") * P("lam1", 2) * P("sig34")
    )
    rng = random.Random(0)
    forms = D.identity_forms(derived.rules, derived.components, derived.sys.roles)
    fractions = [c for form in forms.values()
                 for c in form.terms.values()]
    fractions += [random_locfrac(rng) for _ in range(200)]
    dens = set()
    raised = 0
    for elem in D.symmetry_group():
        sub = jet_substitution(elem)
        for p in [*EQ36.values(), hand]:
            image = ctx.substitute(p, sub)
            assert not image.den
            assert elem.apply(p) == image.num
        for x in fractions:
            dens.update(x.den)
            try:
                want = ctx.substitute(x, sub)
            except SubstitutionError:
                with pytest.raises(AlgebraError):
                    elem.apply(x)
                raised += 1
                continue
            got = elem.apply(x)
            assert (got.num, got.den) == (want.num, want.den), (elem, x)
    assert dens == set(ATOMS) and raised
    odd_even = D.REP_V.renames()  # lam -> -lam and sig -> -sig
    assert odd_even["lam"] == (-1, "lam") and odd_even["sig"] == (-1, "sig")
    assert D.REP_V.apply(hand) != hand


def test_generated_coefficients_are_reference_images(system, derived, derived36):
    """Each symmetry-generated coefficient of derive_36, read back from its
    transcription and multiplier, is the substitution image of its base
    coefficient, sign included."""
    rows, _ = derived36
    forms = D.identity_forms(derived.rules, derived.components, derived.sys.roles)
    raw = {}
    for ident, labels in D.IDENTITY_SLOTS.items():
        if ident != "dG":
            raw.update(zip(labels, coeff6(forms[ident])))
    for label in D.SYMMETRY_GENERATED:
        base, case = VARIANTS[label]
        want = system.ctx.substitute(raw[base], jet_substitution(D.RPL_CASES[case]))
        factor, den_mono = rows[label].provenance["multiplier_value"]
        got = LocFrac(rows[label].poly * Poly({den_mono: 1})) / LocFrac(factor)
        assert got == want, label


def test_rename_map_is_built_once_per_element(monkeypatch):
    calls = []
    renames = D.SymmetryElement.renames

    def counted(self):
        calls.append(self)
        return renames(self)

    monkeypatch.setattr(D.SymmetryElement, "renames", counted)
    elem = D.SymmetryElement((2, 1, 4, 3), (1, -1, 1, -1), -1, 1)
    images = [elem.apply(EQ36[label]) for label in ("a", "b", "c")]
    assert images[0] == elem.apply(EQ36["a"])
    assert calls == [elem]


def test_rename_must_permute_the_jet_symbols():
    collapsed = D.SymmetryElement((1, 1, 3, 4), (1, 1, 1, 1), 1, 1)
    with pytest.raises(D.DeriveError):
        collapsed.apply(EQ36["a"])


def tampered_eq36():
    """EQ36 with the first coefficient of equation c doubled."""
    terms = dict(EQ36["c"].terms)
    mono = next(iter(terms))
    terms[mono] = 2 * terms[mono]
    return {**EQ36, "c": Poly(terms)}


def test_group_closure_catches_a_tampered_equation():
    """Changing one coefficient of one equation must break the closure."""
    closure = recorded(D.verify_group_closure, tampered_eq36())["closure"]
    assert closure["status"] == "fail"
    failures = ast.literal_eval(closure["detail"])
    assert any(failed == "c" for _, failed in failures), failures


def test_generators_decide_like_the_whole_group(system, monkeypatch):
    """Differential check: both group verifiers give the same verdict on the
    two generators as on all 32 elements, on the shipped system, two mutant
    systems and a tampered equation set."""
    data = Path(__file__).parent / "data"
    systems = [system] + [load_system(str(data / f"mutant-{m}.eds")) for m in ("F.1.double", "L.1.flip")]

    def verdicts():
        invariance = [recorded(D.verify_system_invariance, s)["system-invariance"]["status"]
                      for s in systems]
        closure = [recorded(D.verify_group_closure, catalog)["closure"]["status"]
                   for catalog in (EQ36, tampered_eq36())]
        return invariance, closure

    on_generators = verdicts()
    assert on_generators == (["pass", "fail", "fail"], ["pass", "fail"])
    monkeypatch.setattr(D, "GENERATORS", {str(k): e for k, e in enumerate(D.symmetry_group())})
    assert verdicts() == on_generators


def test_form_action_matches_displayed_table(system):
    # (B,-A,C,D; E,-G,F,H,L,S), (A,B,D,-C; E,G,-F,H,L,S),
    # (C,D,A,B; H,-F,G,E,-L,S)
    from edsverify.forms import DForm

    def one(name, sign=1):
        return DForm(system.basis, 1, {(system.basis.index[name],): sign})

    act1 = D.form_action(D.RPL_CASES[1], system)
    assert act1["A"] == one("B") and act1["B"] == one("A", -1)
    assert act1["F"] == one("G", -1) and act1["G"] == one("F")
    assert act1["L"] == one("L") and act1["S"] == one("S")
    act2 = D.form_action(D.RPL_CASES[2], system)
    assert act2["C"] == one("D") and act2["D"] == one("C", -1)
    assert act2["F"] == one("G") and act2["G"] == one("F", -1)
    act4 = D.form_action(D.RPL_CASES[4], system)
    assert act4["A"] == one("C") and act4["F"] == one("F", -1)
    assert act4["L"] == one("L", -1) and act4["S"] == one("S")
    assert list(act4) == ["A", "B", "C", "D", "F", "G", "L", "S"]


def test_system_invariance_under_group(system):
    invariance = recorded(D.verify_system_invariance, system)["system-invariance"]
    assert invariance["status"] == "pass", invariance["detail"]
    assert list(D.GENERATORS) == ["i", "iv"]


def test_dependence_relations(derived):
    checks = recorded(D.verify_dependence_relations, derived.equations)
    names = ("e3", "e1", "i1", "i3", "intro_a", "intro_b")
    assert list(checks) == [f"combo-{name}" for name in names]
    for name, c in zip(names, checks.values()):
        assert (c["label"], c["status"], c["detail"]) == (name, "pass", "0"), c


def test_check_combination_example():
    ok, residual = D.check_combination(
        EQ36["e3"],
        [("a", 8 * lam * sig * mup), ("a4", -8 * lam * sig * mum), ("e", Poly.const(1))],
        EQ36,
    )
    assert ok and residual.is_zero()


def test_check_combination_reports_residual():
    ok, residual = D.check_combination(EQ36["e3"], [("a", Poly.const(1))], EQ36)
    assert not ok
    assert not residual.is_zero()


def test_printed_d2_variant_fails_membership(system, derived):
    """Regression: the as-printed lam4 sig4 sign in the d2 display is not a
    consequence of the system; the corrected transcription is."""
    printed = EQ36["d2"] - 64 * lam**2 * sig * Poly.var("lam4") * Poly.var("sig4")
    forms = D.identity_forms(derived.rules, derived.components, derived.sys.roles, which=("dG",))
    from edsverify.forms import coeff6

    raw = dict(zip(D.IDENTITY_SLOTS["dG"], coeff6(forms["dG"])))["d2"]
    assert D.match_transcription(EQ36["d2"], raw) is not None
    assert D.match_transcription(printed, raw) is None


def test_integrability_criterion(system, derived):
    integrability = recorded(D.integrability_criterion, derived.rules)["integrability"]
    assert integrability["status"] == "pass"
    assert integrability["detail"] == "span(e1,e2): ['(-lam4)/(lam)', '(lam3)/(lam)']"
    span34 = [str(2 * c) for c in lie_bracket(3, 4, derived.rules)[:2]]
    assert span34 == ["(-lam2)/(lam)", "(lam1)/(lam)"]


#: the detail of the check that fails when a rule's coefficient is doubled:
#: the bracket pair that failed
SCALED_BRACKET_DETAILS = {
    "A": "span(e3,e4): ['(-2*lam2)/(lam)', '(lam1)/(lam)']",
    "C": "span(e1,e2): ['(-2*lam4)/(lam)', '(lam3)/(lam)']",
}


@pytest.mark.parametrize("rule, pair", [("A", "CD"), ("C", "AB")])
def test_integrability_fails_on_a_scaled_bracket_coefficient(derived, rule, pair):
    """Doubling the coefficient that gives [e3,e4] on e1 (d A on C^D), or
    [e1,e2] on e3 (d C on A^B), fails the check, and the detail shows the
    pair that failed."""
    rules = derived.rules
    basis = rules.basis
    idx = tuple(basis.index[n] for n in pair)
    form = rules.d_rule(rule)
    assert not form.terms[idx].is_zero()
    scaled = DForm(basis, 2, {**form.terms, idx: 2 * form.terms[idx]})
    copy = RuleSystem(basis, rules.ctx, {**rules.d_rules, rule: scaled})
    integrability = recorded(D.integrability_criterion, copy)["integrability"]
    assert (integrability["status"], integrability["detail"]) == ("fail", SCALED_BRACKET_DETAILS[rule])


def test_rotation_invariance():
    assert recorded(D.rotation_invariance) == {"rotation": {
        "id": "rotation", "label": "rce", "status": "pass",
        "detail": "R(c e1 + s e2, ...) = (c^2+s^2)^2 sigma",
    }}


def rotated_table_holds(T) -> bool:
    """The rotation claim on the table T, by rotating the whole table slot
    after slot with the matrix in c and s: the reference for
    `rotation_invariance`, which expands the rotation in c and s instead."""
    c, s = Poly.var("c"), Poly.var("s")
    zero = Poly.zero()
    M = ((c, s, zero, zero), (-s, c, zero, zero), (zero, zero, c, s), (zero, zero, -s, c))
    slots = list(product(range(4), repeat=4))
    R = {ix: T[ix[0]][ix[1]][ix[2]][ix[3]] for ix in slots}
    for _ in range(4):
        # rotate the first slot and move it last: R'[j,k,l,i] = sum_p M_ip R[p,j,k,l]
        R = {(*rest, i): sum((M[i][p] * R[(p, *rest)] for p in range(4) if M[i][p]), zero)
             for *rest, i in slots}
    factor = (c**2 + s**2) ** 2
    return (all(R[ix] == factor * T[ix[0]][ix[1]][ix[2]][ix[3]] for ix in slots)
            and R[0, 2, 0, 2] == factor * sig)


def test_rotation_invariance_matches_the_rotated_table(monkeypatch):
    """On the table and on 24 seeded perturbations of one entry (shifted,
    negated or swapped with its pair transpose), `rotation_invariance`
    passes exactly when the rotated table is (c^2+s^2)^2 times the table."""
    rng = random.Random(11)
    verdicts = []
    for trial in range(25):
        table = D.eqs.curvature_table()
        i, j, k, l = (rng.randrange(4) for _ in range(4))
        kind = trial % 3 + 1 if trial else None
        if kind == 1:
            table[i][j][k][l] = table[i][j][k][l] + lam
        elif kind == 2:
            table[i][j][k][l] = -table[i][j][k][l]
        elif kind == 3:
            table[i][j][k][l], table[j][i][l][k] = table[j][i][l][k], table[i][j][k][l]
        monkeypatch.setattr(D.eqs, "curvature_table", lambda: table)
        status = recorded(D.rotation_invariance)["rotation"]["status"]
        assert (status == "pass") == rotated_table_holds(table), (trial, kind, (i, j, k, l))
        verdicts.append(status)
    assert verdicts[0] == "pass" and "fail" in verdicts


def test_rotation_invariance_catches_a_perturbed_entry(monkeypatch):
    table = D.eqs.curvature_table()
    table[0][1][0][1] = 2 * table[0][1][0][1]
    monkeypatch.setattr(D.eqs, "curvature_table", lambda: table)
    assert recorded(D.rotation_invariance)["rotation"]["status"] == "fail"


def test_every_equation_symbol_is_registered(system):
    from edsverify.equations import INTRO_A, INTRO_B

    names = set()
    for poly in (*EQ36.values(), *NEL.values(), INTRO_A, INTRO_B):
        names |= poly.variables()
    assert names <= system.ctx.symbols


def test_equations_affine_linear_in_second_order_jets():
    from edsverify.equations import SECOND_ORDER

    second = set(SECOND_ORDER)
    for label, poly in EQ36.items():
        for mono in poly.terms:
            weight = sum(e for n, e in mono if n in second)
            assert weight <= 1, (label, mono)


def test_derived_rows_follow_the_transcriptions(derived36):
    from edsverify.equations import SECOND_ORDER

    rows, checks = derived36
    assert list(rows) == [c["label"] for c in checks] == list(EQ36)
    assert len(SECOND_ORDER) == 48


def test_tampered_system_is_caught(system):
    """Mutation check: flipping one sign in the dF rule must break matching,
    and each broken row is reported with its residual, not raised."""
    from edsverify.forms import DForm, wedge
    from edsverify.structure import StructureSystem

    A, C = system.one_form("A"), system.one_form("C")
    sig = system.ctx.symbol("sig")
    rules = dict(system.d_rules)
    rules["F"] = rules["F"] - wedge(A, C).scale(2 * sig)  # sigma A^C -> -sigma A^C
    broken = StructureSystem(system.basis, system.ctx, rules, system.nonzero)
    rows, checks = D.derive_nel(broken)
    failed = {c["id"]: c["detail"] for c in checks if c["status"] == "fail"}
    unmatched = [f"nel-{row}" for row in NEL if f"nel-{row}" in failed]
    assert len(checks) == 12 and unmatched
    for label in unmatched:
        assert failed[label].startswith("residual ") and failed[label] != "residual 0"
    assert list(rows) == [f"nel-{row}" for row in NEL if f"nel-{row}" not in failed]
    with pytest.raises(D.DeriveError, match=f"rows: {', '.join(unmatched)}$"):
        D.solve_sol(rows, broken)


# -- the one-walk row matcher against the former normal-form matcher ----------


def match_by_normal_forms(transcribed, raw):
    """The reference: the former matcher, which compared the primitive parts
    of the two normal forms and verified the product."""
    if transcribed.is_zero() or raw.num.is_zero():
        return None
    c_t, m_t, n_t = transcribed.normalized()
    c_r, m_r, n_r = raw.num.normalized()
    if n_t != n_r:
        return None
    factor = Poly({m_t: c_t / c_r}) * raw.den_poly()
    if transcribed * Poly({m_r: 1}) * raw.den_poly() != factor * raw.num:
        return None
    return factor, m_r


def test_match_transcription_matches_the_normal_form_reference():
    from conftest import random_poly

    rng = random.Random(101)
    names = ("lam", "sig", "lam1", "sig2", "S1")

    def monomial():
        return Poly({tuple(sorted((n, rng.randint(1, 2)) for n in rng.sample(names, rng.randint(0, 2)))): 1})

    seen = set()
    for trial in range(400):
        base = random_poly(rng, max_terms=5)
        den = {a: rng.randint(1, 2) for a in rng.sample(sorted(ATOMS), rng.randint(0, 2))}
        # shifts in both directions: the raw side and the transcribed side each carry a monomial
        raw = LocFrac(base * monomial() * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)), den)
        ratio = Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 6))
        transcribed = ratio * base * monomial()
        kind = trial % 5
        if kind == 1 and len(transcribed.terms) > 1:
            # equal term counts, one coefficient off
            m = next(iter(transcribed.terms))
            transcribed = transcribed + Poly({m: 1})
        elif kind == 2 and len(transcribed.terms) > 1:
            # equal term counts, one monomial moved
            m, c = next(iter(transcribed.terms.items()))
            transcribed = transcribed - Poly({m: c}) + Poly({m + (("sig44", 1),): c})
        elif kind == 3:
            transcribed = rng.choice([Poly.zero(), transcribed])
            raw = rng.choice([LocFrac(Poly.zero()), raw])
        elif kind == 4:
            # every raw term lands, on a transcription with one term more
            transcribed = transcribed + Poly({(("sig44", 1),): 1})
        got, want = D.match_transcription(transcribed, raw), match_by_normal_forms(transcribed, raw)
        assert (got is None) == (want is None), (transcribed, raw)
        if want is not None:
            assert got[0].terms == want[0].terms and got[1] == want[1]
            assert D.multiplier_text(got) == D.multiplier_text(want)
            seen.add("shift" if got[1] else "matched")
        else:
            seen.add("zero" if transcribed.is_zero() or raw.is_zero() else "unmatched")
        if any(a in raw.den for a in ("mu+", "mu-")):
            seen.add("binomial denominator")
    assert seen == {"shift", "matched", "zero", "unmatched", "binomial denominator"}


def test_a_row_matches_through_a_shift_only_in_declared_atoms():
    """raw = 0 gives the transcription T only when the monomial that
    divides raw (the shift) is declared nonzero: lam1 T = 0 does not give
    T = 0, while lam T = 0 does under lam != 0."""
    T = Poly.var("S1") + 2 * Poly.var("sig2")
    row, trace = D.match_row("x", T, LocFrac(Poly.var("lam1") * T), "demo", ("lam", "sig"))
    assert row is None and trace["matched"] is False and trace["multiplier"] is None
    assert trace["residual"] == str(T - Poly.var("lam1") * T)
    row, trace = D.match_row("x", T, LocFrac(lam * T), "demo", ("lam", "sig"))
    assert trace["matched"] and trace["multiplier"] == "(1)/(lam)"
    assert row.label == "x" and row.provenance["multiplier"] == "(1)/(lam)"
    row, trace = D.match_row("x", T, LocFrac(lam * T), "demo", ("sig",))
    assert row is None and trace["matched"] is False


def test_rename_maps_share_one_string_per_symbol():
    """Every element's rename map holds the same string object for a symbol,
    as key and as image, so the maps kept on the replacements stay small."""
    first, second = D.REP_I._permutation, D.REP_IV._permutation
    keys = {k: k for k in first}
    assert all(keys[k] is k for k in second)
    assert all(keys[new] is new for _, new in second.values())
