"""Re-derivation of the equation system from the exterior rules.

The engine applies the exterior derivative twice to the scalar functions and
once to the component expansions of F, L, S (G serves as a cross-check), reads
off coefficients on the six basis 2-forms, and matches every transcribed
display as an exact rational-monomial multiple of the derived identity.  The
frame-replacement symmetries act on jet symbols by signed permutation and
generate the subscripted variants the identities do not cover directly.
`Derivation` builds each of these once per system, for every suite to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from sys import intern

from . import equations as eqs
from .algebra import LocFrac, Poly, linear_solve
from .cases import combination
from .equations import EQ36, INP, NEL, NEL_UNKNOWNS, SOL
from .forms import (COEFF6_ORDER, COFRAME, DForm, FormError, RuleSystem, coeff6, d_scalar,
                    ext_d, substitute_one_forms)
from .jets import DIRECTIONS, TRACE, standard_context
from .structure import (
    Equation,
    StructureSystem,
    check,
    gamma,
    lie_bracket,
    pattern_break,
    role_slots,
)

#: identity name -> labels of its six 2-form coefficients, in coeff6 order
IDENTITY_SLOTS = {
    "d2lam": ("a", "b", "b2", "b1", "b3", "a4"),
    "d2sig": ("f", "g", "g2", "g1", "g3", "f4"),
    "dF": ("c", "d", "e", "e3", "d3", "c4"),
    "dL": ("h", "i", "i2", "i1", "i3", "h4"),
    "dS": ("j", "k", "k2", "k1", "k3", "j4"),
    "dG": ("c1", "e2", "d2", "d1", "e1", "c5"),
}

#: labels produced from the base equations through a frame replacement
SYMMETRY_GENERATED = ("c1", "c5", "d1", "d2", "e1", "e2")


class DeriveError(Exception):
    pass


# ---------------------------------------------------------------------------
# matching a transcription against a derived identity coefficient
# ---------------------------------------------------------------------------


def match_transcription(transcribed: Poly, raw: LocFrac):
    """Exact multiple linking a derived coefficient to its transcription.

    Returns (multiplier_num Poly, multiplier_den_monomial) with
    transcribed * x^den_mono == multiplier_num * raw_numerator, i.e.
    transcribed == (multiplier_num / x^den_mono) * raw, where den_mono is the
    monomial content of the raw numerator; None when the two are not
    proportional (`Poly.proportion`).
    """
    found = transcribed.proportion(raw.num)
    if found is None:
        return None
    factor, shift = found
    return factor * raw.den_poly(), shift


def multiplier_text(mult) -> str:
    factor, den_mono = mult
    if not den_mono:
        return str(factor)
    return f"({factor})/({Poly({den_mono: 1})})"


def match_row(label: str, transcribed: Poly, raw: LocFrac, source: str, nonzero):
    """Match the transcription of row `label` against its derived
    coefficient `raw`.  A match whose shift (`match_transcription`) holds a
    variable outside the declared-nonzero atoms `nonzero` is not one: raw = 0
    does not give the transcription then.  Returns the Equation (None when
    unmatched) and its trace: source, matched, multiplier and residual, the
    difference of the primitive parts, the raw one times a rejected shift.
    """
    mult = match_transcription(transcribed, raw)
    shift = Poly({mult[1]: 1}) if mult else Poly.const(1)
    matched = mult is not None and shift.variables() <= set(nonzero)
    residual = 0 if matched else transcribed.normalized()[2] - shift * raw.num.normalized()[2]
    trace = {"source": source, "matched": matched,
             "multiplier": multiplier_text(mult) if matched else None, "residual": str(residual)}
    provenance = {**trace, "multiplier_value": mult, "raw_denominator": dict(raw.den)}
    return Equation(label, transcribed, provenance) if matched else None, trace


# ---------------------------------------------------------------------------
# component expansions and the identity 2-forms
# ---------------------------------------------------------------------------


def identity_forms(rules: RuleSystem, comp: dict[str, DForm], roles,
                   which=("d2lam", "d2sig", "dF", "dL", "dS", "dG")):
    """The 2-form identities that vanish on solutions: d(d lam), d(d sig),
    and d X minus its rule for the role X in F, L, S, G (its 1-form named by
    `roles`), with `rules` the d-rules expanded by `comp` (`Derivation.rules`)."""
    out = {}
    for name in which:
        if name.startswith("d2"):
            scalar = rules.ctx.symbol(name[2:])
            out[name] = ext_d(d_scalar(rules.ctx, rules.basis, scalar), rules)
        else:
            z = getattr(roles, name[1:])
            out[name] = ext_d(comp[z], rules) - rules.d_rule(z)
    return out


# ---------------------------------------------------------------------------
# (nel) and (sol)
# ---------------------------------------------------------------------------


def derive_nel(sys: StructureSystem):
    """Twelve first-order rows from d applied to the dF, d(S-L), d(S+L) rules
    of the roles (`StructureSystem.role_forms`).

    Free components this time: the rows constrain F_i, G_i, L_i.  Returns
    the matched rows (`match_row`) and the nel- checks sorted by label; an
    unmatched row's residual is the FormError of a source that cannot be
    formed (a missing d-rule, a role slot) if there is one.
    """
    one_forms = {
        "d(dF)": (lambda r: r.F, ("i", "ii", "iii", "iv")),
        "d(dS-dL)": (lambda r: r.S - r.L, ("v", "vi", "vii", "viii")),
        "d(dS+dL)": (lambda r: r.S + r.L, ("ix", "x", "xi", "xii")),
    }
    slots = (("A", "B", "C"), ("A", "B", "D"), ("A", "C", "D"), ("B", "C", "D"))
    rows, checks = {}, []
    for src, (pick, row_names) in one_forms.items():
        try:
            three_form = ext_d(ext_d(pick(sys.role_forms()), sys), sys)
            expanded = substitute_one_forms(three_form, sys.free_components())
        except FormError as exc:
            for row in row_names:
                check(checks, f"nel-{row}", f"nel-{row}", False, f"residual {exc}")
            continue
        for names, row in zip(slots, row_names):
            label = f"nel-{row}"
            rows[label], trace = match_row(label, NEL[row], expanded.coefficient(*names),
                                           f"{src} @ {'^'.join(names)}", sys.nonzero)
            check(checks, label, label, trace["matched"],
                  trace["multiplier"] or f"residual {trace['residual']}")
    return {l: row for l, row in rows.items() if row}, sorted(checks, key=lambda c: c["id"])


def nel_system(rows: dict[str, Equation]):
    """The nel rows as a linear system in the twelve components: (matrix,
    rhs), one row per label in sorted order, one column per NEL_UNKNOWNS
    entry in that order.  A row that is not affine-linear in the components
    raises DeriveError."""
    unknowns = NEL_UNKNOWNS
    matrix = []
    rhs = []
    for label in sorted(rows):
        p = rows[label].poly
        row = []
        const = p
        for u in unknowns:
            cu = p.coefficient_of(u, 1)
            if cu.variables() & set(unknowns):
                raise DeriveError(f"row {label} is not linear in the components")
            row.append(LocFrac(cu))
            const = const - cu * Poly.var(u)
        if const.variables() & set(unknowns):
            raise DeriveError(f"row {label} has nonlinear component terms")
        matrix.append(row)
        rhs.append(LocFrac(-const))
    return matrix, rhs


def solve_sol(rows: dict[str, Equation], sys: StructureSystem):
    """Solve the twelve nel rows (`nel_system`) for L_i, F_i, G_i over the
    localized ring.

    A row set that lacks any of the twelve is refused with DeriveError
    naming the missing labels; a determinant that divides by an atom the
    system does not declare nonzero, with NonUnitError naming the atom.
    """
    missing = [f"nel-{row}" for row in NEL if f"nel-{row}" not in rows]
    if missing:
        raise DeriveError(f"unmatched first-order rows: {', '.join(missing)}")
    solution = linear_solve(*nel_system(rows), sys.nonzero)
    assignment = dict(zip(NEL_UNKNOWNS, solution))
    # back-substitution leaves every row identically zero
    for label, eq in rows.items():
        if not sys.ctx.substitute(eq.poly, assignment).is_zero():
            raise DeriveError(f"back-substitution residual in {label}")
    return assignment


def verify_components(assignment, checks: list):
    """Record component-X for each solved component X: its value in
    `assignment` equals the displayed solution SOL."""
    for name in sorted(SOL):
        check(checks, f"component-{name}", name, (assignment[name] - SOL[name]).is_zero(),
              str(assignment[name]))


def verify_inp(assignment, checks: list):
    """Record inp-1 and inp-2: 8 lam sig (G1+F2) = -4 sig lam4 and
    8 lam sig (G2-F1) = 4 sig lam3 under the solved `assignment`."""
    ctx_free = standard_context()
    for idx, (expr, rhs) in enumerate(INP, start=1):
        lhs = ctx_free.substitute(8 * eqs.lam * eqs.sig * expr, assignment)
        check(checks, f"inp-{idx}", f"inp-{idx}", (lhs - LocFrac(rhs)).is_zero())


# ---------------------------------------------------------------------------
# frame-replacement symmetries acting on jet symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryElement:
    """Signed frame permutation with scalar signs: new_i = signs[i-1]*e_perm[i-1],
    lam -> s_lam*lam, sig -> s_sig*sig."""

    perm: tuple
    signs: tuple
    s_lam: int
    s_sig: int

    def compose(self, earlier: "SymmetryElement") -> "SymmetryElement":
        """self applied after `earlier` (read: earlier, then self), so that
        h.compose(g).apply(x) == h.apply(g.apply(x))."""
        perm = tuple(self.perm[earlier.perm[i] - 1] for i in range(4))
        signs = tuple(earlier.signs[i] * self.signs[earlier.perm[i] - 1] for i in range(4))
        return SymmetryElement(perm, signs, self.s_lam * earlier.s_lam, self.s_sig * earlier.s_sig)

    def renames(self) -> dict[str, tuple[int, str]]:
        """The action on jet symbols as a signed renaming: name -> (sign, new name)."""
        out = {"lam": (self.s_lam, "lam"), "sig": (self.s_sig, "sig")}
        for i in DIRECTIONS:
            p, si = self.perm[i - 1], self.signs[i - 1]
            out[f"lam{i}"] = (self.s_lam * si, f"lam{p}")
            out[f"sig{i}"] = (self.s_sig * si, f"sig{p}")
            out[f"{TRACE}{i}"] = (si, f"{TRACE}{p}")
            for j in DIRECTIONS:
                q, sj = self.perm[j - 1], self.signs[j - 1]
                out[f"lam{i}{j}"] = (self.s_lam * si * sj, f"lam{p}{q}")
                out[f"sig{i}{j}"] = (self.s_sig * si * sj, f"sig{p}{q}")
                out[f"{TRACE}{i}{j}"] = (si * sj, f"{TRACE}{p}{q}")
        return out

    @cached_property
    def _permutation(self) -> dict[str, tuple[int, str]]:
        """`renames()`, built once per element and checked to permute its
        symbols.  The names are interned, so the maps of all elements and the
        images they make share one string per symbol."""
        ren = {intern(k): (s, intern(v)) for k, (s, v) in self.renames().items()}
        if {new for _, new in ren.values()} != ren.keys():
            raise DeriveError("frame replacement does not permute the jet symbols")
        return ren

    def apply(self, x):
        """Image of the Poly or LocFrac `x` under the renaming; symbols
        outside it stay fixed.  A LocFrac whose denominator atom leaves the
        atom set raises AlgebraError."""
        return x.rename(self._permutation)


def conjugated_grid(elem: SymmetryElement, grid):
    """Gamma-hat_j^k = sum_{p,q} M_jp M_kq Gamma_p^q, M the element's signed permutation."""
    s, m = elem.signs, elem.perm
    return [[gamma(grid, m[j], m[k]) if s[j] == s[k] else -gamma(grid, m[j], m[k])
             for j in range(4)] for k in range(4)]


def form_action(elem: SymmetryElement, sys: StructureSystem) -> dict[str, DForm]:
    """The induced map on the coframe and on the 1-forms of the roles.

    The coframe transforms like the frame (signed permutation); each role's
    1-form becomes its slot (`role_slots`) of the conjugated grid.  S = E + H
    is invariant for every group element.
    """
    out = {name: elem.signs[i] * sys.one_form(COFRAME[elem.perm[i] - 1])
           for i, name in enumerate(COFRAME)}
    slots = role_slots(conjugated_grid(elem, sys.connection))
    out.update((name, slot) for name, slot in zip(sys.roles, slots) if name)
    return out


def verify_system_invariance(sys: StructureSystem, checks: list):
    """Record system-invariance: the group maps the exterior system to itself.

    Checked on the generators, which suffices for the whole group: for each
    generator and each rule d X = R of the coframe and the roles' 1-forms,
    the transformed left-hand side d(Phi X), computed with the original
    rules, must equal Phi(R) (1-forms mapped by the induced action,
    coefficients by the element's rename).  Each conjugated grid must also
    keep the relations `connection-pattern` checks (`pattern_break`).  A
    FormError (a missing rule, a role slot) fails it with its message.
    """
    failures = []
    try:
        for gen, elem in GENERATORS.items():
            broken = pattern_break(conjugated_grid(elem, sys.connection))
            if broken:
                failures.append((gen, f"pattern {broken}"))
            act = form_action(elem, sys)
            for name, image in act.items():
                rule = sys.d_rule(name)
                renamed = DForm(rule.basis, 2, {i: elem.apply(c) for i, c in rule.terms.items()})
                if not (ext_d(image, sys) - substitute_one_forms(renamed, act)).is_zero():
                    failures.append((gen, f"rule d{name}"))
        detail = str(failures[:8]) if failures else ""
    except FormError as exc:
        detail = str(exc)
    check(checks, "system-invariance", "swp", not detail, detail)


IDENTITY_ELEMENT = SymmetryElement((1, 2, 3, 4), (1, 1, 1, 1), 1, 1)
REP_I = SymmetryElement((2, 1, 3, 4), (1, -1, 1, 1), 1, -1)
REP_II = SymmetryElement((1, 2, 4, 3), (1, 1, 1, -1), 1, -1)
REP_III = SymmetryElement((2, 1, 4, 3), (1, -1, 1, -1), 1, 1)
REP_IV = SymmetryElement((3, 4, 1, 2), (1, 1, 1, 1), -1, 1)
REP_V = SymmetryElement((3, 4, 2, 1), (1, 1, 1, -1), -1, -1)

RPL_CASES = {1: REP_I, 2: REP_II, 3: REP_III, 4: REP_IV, 5: REP_V}

#: replacements i and iv generate the group; a set of equations or of rules is
#: invariant under the group exactly when it is invariant under these two
GENERATORS = {"i": REP_I, "iv": REP_IV}


def symmetry_group() -> list:
    """Closure of the generators: its elements, sorted."""
    seen = {IDENTITY_ELEMENT}
    frontier = [IDENTITY_ELEMENT]
    while frontier:
        nxt = []
        for g in frontier:
            for h in GENERATORS.values():
                e = h.compose(g)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return sorted(seen, key=lambda e: (e.perm, e.signs, e.s_lam, e.s_sig))


def verify_group(checks: list):
    """Record the group order, the conjugation identity (replacement ii
    equals i conjugated by iv), and the composition identities (iii is i,
    then ii; v is iv, then i)."""
    order = len(symmetry_group())
    check(checks, "order", "group order", order == 32, str(order))
    check(checks, "conjugation", "cng", REP_IV.compose(REP_I.compose(REP_IV)) == REP_II)
    check(checks, "composition", "cng",
          REP_II.compose(REP_I) == REP_III and REP_I.compose(REP_IV) == REP_V)


# ---------------------------------------------------------------------------
# the thirty-six equations
# ---------------------------------------------------------------------------


def derive_36(rules: RuleSystem, comp: dict[str, DForm], roles, nonzero):
    """Engine-derived equation set matched against all 36 transcriptions,
    from the `identity_forms` of `rules`, `comp` and `roles`, under the
    declared-nonzero atoms `nonzero`.

    Returns the rows whose check passed and an eq- check per label of EQ36
    with its `match_row` trace.  The six symmetry-generated rows must also
    agree with the dG identity (`dG_cross_check` in their trace).
    """
    forms = identity_forms(rules, comp, roles)
    raw: dict[str, LocFrac] = {}
    source: dict[str, str] = {}
    for ident in ("d2lam", "d2sig", "dF", "dL", "dS"):
        coeffs = coeff6(forms[ident])
        for (a, b), label, value in zip(COEFF6_ORDER, IDENTITY_SLOTS[ident], coeffs):
            raw[label] = value
            source[label] = f"{ident} @ {a}{b}"
    # symmetry-generated equations from the derived base coefficients
    for label in SYMMETRY_GENERATED:
        base, case = eqs.VARIANTS[label]
        raw[label] = RPL_CASES[case].apply(raw[base])
        source[label] = f"{source[base]} via replacement {case}"
    g_coeffs = dict(zip(IDENTITY_SLOTS["dG"], coeff6(forms["dG"])))
    rows, checks = {}, []
    for label, transcribed in EQ36.items():
        eq, trace = match_row(label, transcribed, raw[label], source[label], nonzero)
        ok = eq is not None
        if label in SYMMETRY_GENERATED:
            trace["dG_cross_check"] = match_transcription(raw[label].num, g_coeffs[label]) is not None
            ok = ok and trace["dG_cross_check"]
        if ok:
            rows[label] = eq
        found = f"multiplier {trace['multiplier']}" if eq else f"residual {trace['residual']}"
        check(checks, f"eq-{label}", label, ok, f"{source[label]}; {found}")
        checks[-1]["trace"] = trace
    return rows, checks


#: labels whose display is the negative of the clearing factor times the raw
#: coefficient: the sign convention of each display (LHS - RHS) against the
#: derived identity
NEGATIVE_MULTIPLIERS = frozenset(
    ("a", "a4", "b", "b1", "b2", "b3", "c1", "e1", "f", "g", "h", "i", "i1", "i2")
)


def expected_multipliers():
    """The signed factor linking each label's raw identity coefficient to its
    display.

    The bracket-derived families carry 2 * 16 lam sig^2 (the doubled bracket
    times the stated clearing factor); the a/b displays are further reduced by
    the content 8 lam sig, leaving 4 sig.  The remaining families are the
    stated clearing factors verbatim: 256 lam^2 sig^3 for the dF rows,
    512 lam^2 sig^4 for the dL rows, 32 lam sig^2 for the dS rows.  The
    labels in NEGATIVE_MULTIPLIERS carry the factor's negative.
    """
    lam, sig = eqs.lam, eqs.sig
    magnitude = {
        "a": 4 * sig, "b": 4 * sig,
        "f": 32 * lam * sig**2, "g": 32 * lam * sig**2,
        "c": 256 * lam**2 * sig**3, "d": 256 * lam**2 * sig**3, "e": 256 * lam**2 * sig**3,
        "h": 512 * lam**2 * sig**4, "i": 512 * lam**2 * sig**4,
        "j": 32 * lam * sig**2, "k": 32 * lam * sig**2,
    }
    signed = {}
    for label in EQ36:
        factor = magnitude[family(label)]
        signed[label] = -factor if label in NEGATIVE_MULTIPLIERS else factor
    return signed


def family(label: str) -> str:
    return label[0]


def verify_multipliers(rows: dict[str, Equation], checks: list):
    """Record multipliers: the stated clearing factors, with their signs,
    against the recovered ones; a failing row shows as label:multiplier.

    For the bracket families the stated factor 16 lam sig^2 must also clear
    the raw coefficient's denominator (checked on the recorded denominator).
    """
    expect = expected_multipliers()
    failed = []
    for label, eq in sorted(rows.items()):
        factor, den_mono = eq.provenance["multiplier_value"]
        ok = not den_mono and factor == expect[label]
        if family(label) in ("a", "b", "f", "g"):
            den = eq.provenance["raw_denominator"]
            ok = ok and set(den) <= {"lam", "sig"} and den.get("lam", 0) <= 1 and den.get("sig", 0) <= 2
        if not ok:
            failed.append(f"{label}:{eq.provenance['multiplier']}")
    check(checks, "multipliers", "stated clearing factors", not failed, "; ".join(failed))


def verify_symmetry_variants(rows: dict[str, Poly], checks: list):
    """Record variants: each subscripted row equals (up to a rational
    multiple) the replacement-case image of its base row.  A pair with a row
    missing from `rows` is left out: that row's own check has failed."""
    ok = all(
        match_transcription(rows[label], LocFrac(RPL_CASES[case].apply(rows[base]))) is not None
        for label, (base, case) in eqs.VARIANTS.items()
        if label in rows and base in rows
    )
    check(checks, "variants", "rpl images", ok)


def verify_group_closure(rows: dict[str, Poly], checks: list):
    """Record closure: the group permutes the 36 rows up to multiples, each
    generator mapping them bijectively onto themselves.  Reads every label of
    EQ36 from `rows`."""
    primitive = {label: rows[label].normalized()[2] for label in EQ36}
    lookup = {q: label for label, q in primitive.items()}
    failures = []
    for gen, elem in GENERATORS.items():
        mapped = set()
        for label, q in primitive.items():
            # a signed rename keeps a primitive polynomial primitive, so the
            # image's normal form is the image or its negative
            image = elem.apply(q)
            target = lookup.get(image) or lookup.get(-image)
            if target is None:
                failures.append((gen, label))
            else:
                mapped.add(target)
        if len(mapped) != 36:
            failures.append((gen, "not bijective"))
    check(checks, "closure", "orbit of the 36", not failures, str(failures[:8]) if failures else "")


# ---------------------------------------------------------------------------
# combinations, integrability, rotation invariance
# ---------------------------------------------------------------------------


def check_combination(target: Poly, pairs, catalog: dict[str, Poly]):
    """Does the `combination` of `catalog` by the (label, coeff) `pairs`
    equal target exactly?"""
    residual = combination(catalog, pairs) - target
    return residual.is_zero(), residual


def verify_dependence_relations(rows: dict[str, Poly], checks: list):
    """Record a combo-* check for each dependence relation among the rows,
    and for the two first-order constraints as combinations of them."""
    for target, combo in eqs.DEPENDENCE_RELATIONS.items():
        ok, residual = check_combination(rows[target], combo, rows)
        check(checks, f"combo-{target}", target, ok, str(residual))
    for name, (intro, combo) in eqs.INTRO_COMBINATIONS.items():
        ok, residual = check_combination(32 * eqs.lam * eqs.sig * intro, combo, rows)
        check(checks, f"combo-{name}", name, ok, str(residual))


def integrability_criterion(rules: RuleSystem, checks: list):
    """Record integrability: the transverse bracket coefficients, read off
    the d-rules expanded in components (`Derivation.rules`).

    span(e1,e2) is involutive iff lam3 = lam4 = 0: its doubled coefficients
    are (-lam4/lam, lam3/lam).  Those of span(e3,e4) must be the
    replacement-iv image of that pair, (-lam2/lam, lam1/lam), so that
    lam1 = lam2 = 0 is its criterion.  The detail shows the span(e1,e2)
    pair, or the span(e3,e4) pair when only that one fails.
    """
    doubled12 = [2 * c for c in lie_bracket(1, 2, rules)[2:]]
    doubled34 = [2 * c for c in lie_bracket(3, 4, rules)[:2]]
    typed = [LocFrac(-Poly.var("lam4"), {"lam": 1}), LocFrac(Poly.var("lam3"), {"lam": 1})]
    ok12, ok34 = doubled12 == typed, doubled34 == [REP_IV.apply(c) for c in typed]
    span, pair = ("e3,e4", doubled34) if ok12 and not ok34 else ("e1,e2", doubled12)
    check(checks, "integrability", "inp", ok12 and ok34, f"span({span}): {[str(c) for c in pair]}")


def rotation_invariance(checks: list):
    """Record rotation: under a simultaneous rotation of (e1,e2) and (e3,e4)
    by an unconstrained angle pair (c, s), every curvature component
    transforms by (c^2+s^2)^2, among them R(ce1+se2, ce3+se4, ce1+se2,
    ce3+se4) = (c^2+s^2)^2 sig.  The rotation is c + s K, K the quarter
    turn, so the coefficient of c^(4-q) s^q in a rotated component T is the
    table summed with K in q of its slots: 0, 2T, 0, T for q = 1..4.  One
    component at a time, so no rotated table is held."""
    T = eqs.curvature_table()
    # each slot keeps its index a (a c factor) or turns it (an s factor)
    options = [((a, 1, 0), (b, sb, 1)) for a, b, sb in zip(range(4), (1, 0, 3, 2), (1, -1, 1, -1))]
    zero = Poly.zero()
    ok = T[0][2][0][2] == eqs.sig
    for ix in product(range(4), repeat=4):
        sums = [zero] * 5
        for (i, si, di), (j, sj, dj), (k, sk, dk), (l, sl, dl) in product(*(options[a] for a in ix)):
            if T[i][j][k][l]:
                entry = T[i][j][k][l] if si * sj * sk * sl > 0 else -T[i][j][k][l]
                sums[di + dj + dk + dl] = sums[di + dj + dk + dl] + entry
        t = T[ix[0]][ix[1]][ix[2]][ix[3]]
        ok = ok and sums[1:] == [zero, 2 * t, zero, t]
    check(checks, "rotation", "rce", ok, "R(c e1 + s e2, ...) = (c^2+s^2)^2 sigma")


# ---------------------------------------------------------------------------
# one derivation per system, read by every suite
# ---------------------------------------------------------------------------


class Blocked(Exception):
    """A derived input was read whose check, the record `check`, failed."""

    def __init__(self, check: dict):
        super().__init__(check["id"])
        self.check = check


class DerivedRows(dict):
    """The rows whose check passed; reading a failed one raises Blocked."""

    def __init__(self, rows: dict[str, Poly], failed: dict[str, dict]):
        super().__init__(rows)
        self.failed = failed

    def __missing__(self, label: str):
        raise Blocked(self.failed[label])


class Derivation:
    """The nel rows, the solve, the component map, the d-rules expanded in
    it and the 36 rows derived from one system, each built on its first
    read and then kept.  Reading a part built on a failed check raises
    Blocked with that check."""

    def __init__(self, sys: StructureSystem):
        self.sys = sys

    @cached_property
    def nel(self):
        """`derive_nel`: the matched rows and the nel- checks."""
        return derive_nel(self.sys)

    @cached_property
    def solve(self):
        """(assignment, or None when it failed, and the `solve` check)."""
        checks = []
        try:
            assignment, detail = solve_sol(self.nel[0], self.sys), "12x12 solve, residual 0"
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            assignment, detail = None, str(exc)
        check(checks, "solve", "sol", assignment is not None, detail)
        return assignment, checks[0]

    @cached_property
    def components(self) -> dict[str, DForm]:
        """F, G, L expanded in the solved components; S stays free."""
        assignment, solved = self.solve
        if assignment is None:
            raise Blocked(solved)
        return self.sys.free_components(assignment)

    @cached_property
    def rules(self) -> RuleSystem:
        """Every d-rule of the system with its 1-forms expanded by
        `components`, each expanded once."""
        return self.sys.component_rules(self.components, self.sys.d_rules)

    @cached_property
    def eq36(self):
        """`derive_36`: (the rows whose check passed, the `eq-` checks)."""
        return derive_36(self.rules, self.components, self.sys.roles, self.sys.nonzero)

    @cached_property
    def equations(self) -> DerivedRows:
        """The `eq36` rows as polynomials."""
        rows, checks = self.eq36
        return DerivedRows({label: row.poly for label, row in rows.items()},
                           {c["label"]: c for c in checks})
