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
from .equations import EQ36, INP, NEL, NEL_UNKNOWNS
from .forms import COEFF6_ORDER, DForm, RuleSystem, coeff6, d_scalar, ext_d, substitute_one_forms
from .jets import DIRECTIONS, standard_context
from .structure import (
    Equation,
    StructureSystem,
    build_connection,
    check,
    curvature_forms,
    gamma,
    lie_bracket,
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


def match_rows(transcriptions: dict[str, Poly], raw: dict[str, LocFrac], source: dict[str, str],
               nonzero):
    """Match each transcription against its derived coefficient `raw[label]`.
    A match whose shift (`match_transcription`) holds a variable outside the
    declared-nonzero atoms `nonzero` is not one: raw = 0 does not give the
    transcription then.

    Returns (rows, report).  rows maps the label of each matched transcription
    to its Equation, with the source identity and the recovered multiplier as
    provenance; an unmatched one is left out.  report has one entry per
    label, in the order of `transcriptions`: source, matched, multiplier
    (None when unmatched) and residual, the difference of the two primitive
    parts, the raw one times a rejected shift ("0" on a match).
    """
    rows, report = {}, {}
    for label, transcribed in transcriptions.items():
        r = raw[label]
        mult = match_transcription(transcribed, r)
        shift = Poly({mult[1]: 1}) if mult else Poly.const(1)
        matched = mult is not None and shift.variables() <= set(nonzero)
        residual = 0 if matched else transcribed.normalized()[2] - shift * r.num.normalized()[2]
        report[label] = entry = {
            "source": source[label],
            "matched": matched,
            "multiplier": multiplier_text(mult) if matched else None,
            "residual": str(residual),
        }
        if matched:
            rows[label] = Equation(label, transcribed, provenance={
                "source": entry["source"],
                "multiplier": entry["multiplier"],
                "multiplier_value": mult,
                "raw_denominator": dict(r.den),
            })
    return rows, report


# ---------------------------------------------------------------------------
# component expansions and the identity 2-forms
# ---------------------------------------------------------------------------


def identity_forms(rules: RuleSystem, comp: dict[str, DForm],
                   which=("d2lam", "d2sig", "dF", "dL", "dS", "dG")):
    """The 2-form identities that vanish on solutions: d(d lam), d(d sig),
    and d X minus its rule for X in F, L, S, G, with `rules` the d-rules
    expanded by the component map `comp` (`Derivation.rules`)."""
    out = {}
    for name in which:
        if name.startswith("d2"):
            scalar = rules.ctx.symbol(name[2:])
            out[name] = ext_d(d_scalar(rules.ctx, rules.basis, scalar), rules)
        else:
            z = name[1:]
            out[name] = ext_d(comp[z], rules) - rules.d_rule(z)
    return out


# ---------------------------------------------------------------------------
# (nel) and (sol)
# ---------------------------------------------------------------------------


def derive_nel(sys: StructureSystem):
    """Twelve first-order rows from d applied to the dF, d(S-L), d(S+L) rules.

    Free components this time: the rows constrain F_i, G_i, L_i.  Returns
    `match_rows` over the labels nel-i .. nel-xii: the matched rows, and a
    report in which an unmatched row carries its residual.
    """
    comp = sys.free_components()
    three_forms = {
        "d(dF)": (sys.d_rule("F"), ("i", "ii", "iii", "iv")),
        "d(dS-dL)": (sys.d_rule("S") - sys.d_rule("L"), ("v", "vi", "vii", "viii")),
        "d(dS+dL)": (sys.d_rule("S") + sys.d_rule("L"), ("ix", "x", "xi", "xii")),
    }
    slots = (("A", "B", "C"), ("A", "B", "D"), ("A", "C", "D"), ("B", "C", "D"))
    transcriptions, raw, source = {}, {}, {}
    for src, (two_form, row_names) in three_forms.items():
        expanded = substitute_one_forms(ext_d(two_form, sys), comp)
        for names, row in zip(slots, row_names):
            label = f"nel-{row}"
            transcriptions[label] = NEL[row]
            raw[label] = expanded.coefficient(*names)
            source[label] = f"{src} @ {'^'.join(names)}"
    return match_rows(transcriptions, raw, source, sys.nonzero)


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
            out[f"S{i}"] = (si, f"S{p}")
            for j in DIRECTIONS:
                q, sj = self.perm[j - 1], self.signs[j - 1]
                out[f"lam{i}{j}"] = (self.s_lam * si * sj, f"lam{p}{q}")
                out[f"sig{i}{j}"] = (self.s_sig * si * sj, f"sig{p}{q}")
                out[f"S{i}{j}"] = (si * sj, f"S{p}{q}")
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


def form_action(elem: SymmetryElement, sys: StructureSystem) -> dict[str, DForm]:
    """The induced map on the 1-forms A, B, C, D, F, G, L, S.

    The coframe transforms like the frame (signed permutation); the connection
    forms transform by conjugating the matrix pattern, Gamma-hat_j^k =
    sum_{p,q} M_jp M_kq Gamma_p^q, and reading E, F, G, H back off the
    displayed slots.  S = E + H is invariant for every group element.
    """
    basis = sys.basis
    out = {}
    for i in range(4):
        name = basis.names[i]
        target = basis.names[elem.perm[i] - 1]
        out[name] = DForm(basis, 1, {(basis.index[target],): elem.signs[i]})
    grid = sys.connection

    def conjugated(j, k):
        p = elem.perm[j - 1]
        q = elem.perm[k - 1]
        piece = gamma(grid, p, q)
        sign = elem.signs[j - 1] * elem.signs[k - 1]
        return piece if sign > 0 else -piece

    E_hat = conjugated(2, 1)
    F_hat = conjugated(3, 1)
    G_hat = conjugated(4, 1)
    H_hat = conjugated(4, 3)
    out["F"] = F_hat
    out["G"] = G_hat
    out["L"] = E_hat - H_hat
    out["S"] = E_hat + H_hat
    out["E"] = E_hat
    out["H"] = H_hat
    return out


def verify_system_invariance(sys: StructureSystem, checks: list):
    """Record system-invariance: the group maps the exterior system to itself.

    Checked on the generators, which suffices for the whole group: for each
    generator and each rule d X = R, the transformed left-hand side d(Phi X),
    computed with the original rules, must equal Phi(R) (1-forms mapped by
    the induced action, coefficients by the element's rename).  The
    conjugated connection grid must also reproduce the displayed pattern.
    """
    grid = sys.connection
    failures = []
    for gen, elem in GENERATORS.items():
        act = form_action(elem, sys)
        pattern = build_connection(act["E"], act["F"], act["G"], act["H"])
        for j in range(1, 5):
            for k in range(1, 5):
                p, q = elem.perm[j - 1], elem.perm[k - 1]
                sign = elem.signs[j - 1] * elem.signs[k - 1]
                expect = gamma(grid, p, q)
                expect = expect if sign > 0 else -expect
                if not (gamma(pattern, j, k) - expect).is_zero():
                    failures.append((gen, f"pattern ({j},{k})"))
        one_form_map = {n: act[n] for n in ("F", "G", "L", "S")}
        coframe_map = {n: act[n] for n in ("A", "B", "C", "D")}
        for name in sys.basis.names:
            lhs = ext_d(act[name], sys)
            rule = sys.d_rule(name)
            renamed = DForm(
                rule.basis, rule.degree, {i: elem.apply(c) for i, c in rule.terms.items()}
            )
            rhs = substitute_one_forms(renamed, {**coframe_map, **one_form_map})
            if not (lhs - rhs).is_zero():
                failures.append((gen, f"rule d{name}"))
    check(checks, "system-invariance", "swp", not failures, str(failures[:8]) if failures else "")


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


def derive_36(rules: RuleSystem, comp: dict[str, DForm], nonzero):
    """Engine-derived equation set matched against all 36 transcriptions,
    from the `identity_forms` of `rules` and `comp`, under the
    declared-nonzero atoms `nonzero`.

    Returns `match_rows` over EQ36: the matched rows, and a report whose
    entry for each label records the source identity, the recovered
    multiplier, the match status and, for an unmatched row, its residual.
    The six symmetry-generated equations are additionally cross-checked
    against the dG-rule identity (`dG_cross_check` in their entries).
    """
    forms = identity_forms(rules, comp)
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
    rows, report = match_rows(EQ36, raw, source, nonzero)
    # cross-check those six against the dG identity
    g_coeffs = dict(zip(IDENTITY_SLOTS["dG"], coeff6(forms["dG"])))
    for label in SYMMETRY_GENERATED:
        cross = match_transcription(raw[label].num, g_coeffs[label])
        report[label]["dG_cross_check"] = cross is not None
    return rows, report


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
    lam1 = lam2 = 0 is its criterion.
    """
    doubled12 = [2 * c for c in lie_bracket(1, 2, rules)[2:]]
    doubled34 = [2 * c for c in lie_bracket(3, 4, rules)[:2]]
    typed = [LocFrac(-Poly.var("lam4"), {"lam": 1}), LocFrac(Poly.var("lam3"), {"lam": 1})]
    ok = doubled12 == typed and doubled34 == [REP_IV.apply(c) for c in typed]
    check(checks, "integrability", "inp", ok, f"span(e1,e2): {[str(c) for c in doubled12]}")


def rotation_invariance(checks: list):
    """Record rotation: under a simultaneous rotation of (e1,e2) and (e3,e4)
    by an unconstrained angle pair (c, s), every curvature component
    transforms by (c^2+s^2)^2, among them R(ce1+se2, ce3+se4, ce1+se2,
    ce3+se4) = (c^2+s^2)^2 sig."""
    table = eqs.curvature_table()
    c, s = Poly.var("c"), Poly.var("s")
    zero = Poly.zero()
    M = (
        (c, s, zero, zero),
        (-s, c, zero, zero),
        (zero, zero, c, s),
        (zero, zero, -s, c),
    )
    slots = list(product(range(4), repeat=4))
    T = {ix: table[ix[0]][ix[1]][ix[2]][ix[3]] for ix in slots}
    R = T
    for _ in range(4):
        # rotate the first slot and move it last: R'[j,k,l,i] = sum_p M_ip R[p,j,k,l]
        R = {
            (*rest, i): sum((M[i][p] * R[(p, *rest)] for p in range(4) if M[i][p]), zero)
            for *rest, i in slots
        }
    factor = (c**2 + s**2) ** 2
    ok = all(R[ix] == factor * T[ix] for ix in slots) and R[0, 2, 0, 2] == factor * eqs.sig
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
    it, the 36 rows and the curvature derived from one system, each built on
    its first read and then kept.  Reading a part built on a failed check
    raises Blocked with that check."""

    def __init__(self, sys: StructureSystem):
        self.sys = sys

    @cached_property
    def nel(self):
        """`derive_nel`: the matched rows and their report."""
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
        out = self.sys.free_components()
        for name in ("F", "G", "L"):
            out[name] = DForm(self.sys.basis, 1, {(i,): assignment[f"{name}{i + 1}"] for i in range(4)})
        return out

    @cached_property
    def rules(self) -> RuleSystem:
        """Every d-rule of the system with its 1-forms expanded by
        `components`, each expanded once."""
        return self.sys.component_rules(self.components, self.sys.d_rules)

    @cached_property
    def curvature(self):
        """`curvature_forms`: the curvature 2-forms of the connection."""
        return curvature_forms(self.sys)

    @cached_property
    def eq36(self):
        """(rows whose check passed, label -> `eq-` check with its `trace`);
        a symmetry-generated row must also agree with the dG identity."""
        rows, report = derive_36(self.rules, self.components, self.sys.nonzero)
        checks = []
        for label, entry in report.items():
            ok = entry["matched"] and entry.get("dG_cross_check", True)
            found = (f"multiplier {entry['multiplier']}" if entry["matched"]
                     else f"residual {entry['residual']}")
            check(checks, f"eq-{label}", label, ok, f"{entry['source']}; {found}")
            checks[-1]["trace"] = entry
        by_label = dict(zip(report, checks))
        return {l: row for l, row in rows.items() if by_label[l]["status"] == "pass"}, by_label

    @cached_property
    def equations(self) -> DerivedRows:
        """The `eq36` rows as polynomials."""
        rows, checks = self.eq36
        return DerivedRows({label: row.poly for label, row in rows.items()}, checks)
