"""Step-verified replications of the three elimination arguments.

Each pipeline is a list of steps executed against a fact store (a closed,
exact substitution map).  A step substitutes the current facts into a labeled
equation, asserts the result equals a stated factor times a stated core
polynomial, and may then record the core's consequence as a new fact.  Every
assertion is an exact polynomial identity; a failing step reports the residual
and the display it contradicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import equations as eqs
from .algebra import LocFrac, Poly, _coerce_frac, atom_divide, sos_certificate
from .equations import (
    CASE2_FINAL,
    CASE2_H,
    CASE2_J,
    CASE3_FINAL,
    CASE3_REWRITTEN,
    ELS_I,
    ELS_II,
    FSQ_I,
    FSQ_II,
    INTRO_COMBINATIONS,
    LTS_1,
    LTS_2,
    SUC,
)
from .forms import COFRAME, DForm, ext_d
from .jets import DIRECTIONS, JetContext, mentioned
from .structure import StructureSystem

lam, sig, mup, mum, mus = eqs.lam, eqs.sig, eqs.mup, eqs.mum, eqs.mus


def check(checks: list, check_id: str, label: str, ok: bool, detail: str = "") -> bool:
    """Append one report record {id, label, status, detail}; returns ok."""
    checks.append(
        {"id": check_id, "label": label, "status": "pass" if ok else "fail", "detail": detail}
    )
    return ok


@dataclass
class PipelineReport:
    """A pipeline's assumptions, the atoms it divides by, its steps as
    `check` records, and the final conclusion."""

    name: str
    assumptions: list
    divides_by: tuple
    steps: list = field(default_factory=list)
    final: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s["status"] == "pass" for s in self.steps)


class FactStore:
    """Closed substitution map: values never mention substituted symbols.

    Each fact keeps `jets.mentioned` of its value, so a new fact is
    substituted only into the facts that mention it."""

    def __init__(self, ctx: JetContext):
        self.ctx = ctx
        self.facts: dict[str, LocFrac] = {}
        self.mentions: dict[str, set] = {}

    def add(self, name: str, value, with_derivatives: bool = False):
        v = self.ctx.substitute(_coerce_frac(value), self.facts)
        for key, names in self.mentions.items():
            if name in names:
                self.facts[key] = w = self.ctx.substitute(self.facts[key], {name: v})
                self.mentions[key] = mentioned(w)
        self.facts[name] = v
        self.mentions[name] = mentioned(v)
        if with_derivatives:
            for j in DIRECTIONS:
                self.add(f"{name}{j}", self.ctx.derive(v, j))

    def reduce(self, expr) -> LocFrac:
        return self.ctx.substitute(_coerce_frac(expr), self.facts)


def _expect(report: PipelineReport, tag: str, description: str, value: LocFrac, expected) -> bool:
    """Record the step `tag`: value equals expected, else its residual."""
    residual = value - _coerce_frac(expected)
    ok = residual.is_zero()
    return check(report.steps, tag, description, ok, "" if ok else f"residual {residual}")


def reduce_square(expr: LocFrac, name: str, replacement: LocFrac) -> LocFrac:
    """Rewrite every name^2 inside expr by the replacement value, repeatedly."""
    while True:
        q, r = expr.num.split_power(name, 2)
        if not q:
            return expr
        expr = LocFrac(r, expr.den) + LocFrac(q, expr.den) * replacement


# ---------------------------------------------------------------------------
# constant-lambda elimination
# ---------------------------------------------------------------------------


def run_const_lambda(sys: StructureSystem, comp: dict[str, DForm]) -> PipelineReport:
    """d lam = 0 forces F = G = 0, and then the dF rule forces sig = 0,
    contradicting lam sig != 0.  `comp` is the derived component map."""
    report = PipelineReport(
        "const-lambda",
        assumptions=["lam sig != 0", "d lam = 0 (all lam_i = 0)"],
        divides_by=("lam", "sig"),
    )
    store = FactStore(sys.ctx)
    for i in DIRECTIONS:
        store.add(f"lam{i}", 0, with_derivatives=True)
    # F and G vanish by the solved components
    zero = LocFrac(Poly.zero())
    for name in ("F", "G"):
        for i in DIRECTIONS:
            _expect(report, f"{name}{i}=0", f"component {name}{i} under d lam = 0",
                    store.reduce(comp[name].coefficient(COFRAME[i - 1])), zero)
    # the dF rule then reads 0 = sig (A^C - D^B)
    reduced = {
        "F": DForm(sys.basis, 1),
        "G": DForm(sys.basis, 1),
        "L": DForm(sys.basis, 1, {idx: store.reduce(c) for idx, c in comp["L"].terms.items()}),
        "S": comp["S"],
    }
    rules = sys.component_rules(reduced, (*COFRAME, "F"))
    lhs = ext_d(reduced["F"], rules)  # d of the zero 1-form
    rhs = rules.d_rule("F")
    residual = rhs - lhs
    coeff_ac = residual.coefficient("A", "C")
    coeff_bd = residual.coefficient("B", "D")
    _expect(report, "dF-rule", "residual 2-form is sig (A^C + B^D)",
            coeff_ac, LocFrac(sig))
    _expect(report, "dF-rule-bd", "B^D coefficient", coeff_bd, LocFrac(sig))
    report.final = {
        "forced": "sig = 0",
        "contradiction": "sig is a declared nonzero atom",
        "ok": report.ok,
    }
    return report


# ---------------------------------------------------------------------------
# integrable-eigendistribution elimination
# ---------------------------------------------------------------------------


def run_case_ii(sys: StructureSystem, rows: dict[str, Poly]) -> PipelineReport:
    """The chain from lam1 = lam2 = lam4 = 0 to lam^4 - 5 lam^2 sig^2 + 12 sig^4 = 0,
    read off the derived 36 `rows`."""
    report = PipelineReport(
        "case-ii",
        assumptions=[
            "lam sig != 0",
            "lam4 = 0, lam3 > 0 (normalized gradient)",
            "lam1 = lam2 = 0 (span(e3,e4) integrable)",
        ],
        divides_by=("lam", "sig", "lam3", "mu+", "mu-"),
    )
    store = FactStore(sys.ctx)
    ctx = sys.ctx
    for name in ("lam1", "lam2", "lam4"):
        store.add(name, 0, with_derivatives=True)
    lam3p = Poly.var("lam3")

    # (suc): four successive consequences of the b-family
    _expect(report, "suc-1", "b reduces to -4 sig lam31",
            store.reduce(rows["b"]), -4 * sig * Poly.var("lam31"))
    store.add("lam31", 0)
    _expect(report, "suc-2", "b1 reduces to -4 sig lam32",
            store.reduce(rows["b1"]), -4 * sig * Poly.var("lam32"))
    store.add("lam32", 0)
    _expect(report, "suc-3", "b2 reduces to lam3 (2 sig S1 + sig2)",
            store.reduce(rows["b2"]), LocFrac(lam3p) * LocFrac(SUC[2]))
    store.add("S1", LocFrac(-Poly.var("sig2") * Fraction(1, 2), {"sig": 1}), with_derivatives=True)
    _expect(report, "suc-4", "b3 reduces to lam3 (2 sig S2 - sig1)",
            store.reduce(rows["b3"]), LocFrac(lam3p) * LocFrac(SUC[3]))
    store.add("S2", LocFrac(Poly.var("sig1") * Fraction(1, 2), {"sig": 1}), with_derivatives=True)

    # (c) and (c1) force sig2 = sig1 = 0 since lam sig lam3 != 0
    _expect(report, "c", "c reduces to 64 lam^2 sig lam3 sig2",
            store.reduce(rows["c"]), 64 * lam**2 * sig * lam3p * Poly.var("sig2"))
    store.add("sig2", 0, with_derivatives=True)
    _expect(report, "c1", "c1 reduces to -64 lam^2 sig lam3 sig1",
            store.reduce(rows["c1"]), -64 * lam**2 * sig * lam3p * Poly.var("sig1"))
    store.add("sig1", 0, with_derivatives=True)
    _expect(report, "S1=S2=0", "the trace components vanish with sig1, sig2",
            store.reduce(Poly.var("S1") ** 2 + Poly.var("S2") ** 2), 0)

    # (j): lam3 S4 = 2 lam^2
    _expect(report, "j", "j reduces to -16 sig^2 (lam3 S4 - 2 lam^2)",
            store.reduce(rows["j"]), LocFrac(-16 * sig**2) * LocFrac(CASE2_J))
    store.add("S4", LocFrac(2 * lam**2, {"lam3": 1}), with_derivatives=True)

    # (h): 3 mu* lam3^2 = 8 lam sig (lam3 sig3 + 4 lam^2 sig)
    _expect(report, "h", "h reduces to 16 sig^2 times the lam3^2 relation",
            store.reduce(rows["h"]), LocFrac(16 * sig**2) * LocFrac(CASE2_H))

    # combined with (d2): lam3 sig3 = -4 sig mu*
    r2 = store.reduce(rows["d2"])
    combo = LocFrac(mum) * store.reduce(CASE2_H) - r2
    _expect(report, "lts-1", "mu- * (h-relation) - d2 is -16 lam^2 sig (lam3 sig3 + 4 sig mu*)",
            combo, LocFrac(-16 * lam**2 * sig) * LocFrac(LTS_1))
    sig3_fact = LocFrac(-4 * sig * mus, {"lam3": 1})
    _expect(report, "lts-2", "eliminating sig3 turns the h-relation into the lam3^2 value",
            ctx.substitute(CASE2_H, {"sig3": sig3_fact}), LocFrac(LTS_2))

    # (els): d and d1 divided by 4 sig
    _expect(report, "els-i", "d, divided by 4 sig",
            atom_divide(store.reduce(rows["d"]) * Fraction(1, 4), "sig"), LocFrac(ELS_I))
    _expect(report, "els-ii", "d1, divided by 4 sig",
            atom_divide(store.reduce(rows["d1"]) * Fraction(1, 4), "sig"), LocFrac(ELS_II))

    # final combination with coefficients 3 mu* mu+ and -3 mu* mu-
    combo = LocFrac(3 * mus * mup) * LocFrac(ELS_I) - LocFrac(3 * mus * mum) * LocFrac(ELS_II)
    combo = ctx.substitute(combo, {"sig3": sig3_fact})
    lts2_value = LocFrac(64 * lam * sig**2 * (lam**2 - 2 * sig**2) * Fraction(1, 3), {"mu+": 1, "mu-": 1})
    combo = reduce_square(combo, "lam3", lts2_value)
    final = atom_divide(atom_divide(combo * Fraction(1, 512), "lam", 2), "sig", 2)
    # the combination of (lhs - rhs) forms is minus the displayed quartic
    _expect(report, "final", "combination, divided by 512 lam^2 sig^2, reads 0 = quartic",
            final, LocFrac(-CASE2_FINAL))

    cert = sos_certificate(CASE2_FINAL)
    report.final = {
        "identity": str(CASE2_FINAL),
        "sos_certificate": certificate_text(cert) if cert else None,
        "sos_ok": cert is not None,
        "contradiction": "positive unless lam = sig = 0, against lam sig != 0",
        "ok": report.ok and cert is not None,
    }
    return report


# ---------------------------------------------------------------------------
# functionally-dependent-norms elimination
# ---------------------------------------------------------------------------


def combination(rows: dict[str, Poly], pairs) -> Poly:
    """The sum of coeff * rows[label] over the (label, coeff) `pairs`."""
    total = Poly.zero()
    for label, coeff in pairs:
        total = total + coeff * rows[label]
    return total


def constraint(rows: dict[str, Poly], name: str) -> LocFrac:
    """The first-order constraint `name` of INTRO_COMBINATIONS read off the
    rows: its combination of them, divided by 32 lam sig."""
    return LocFrac(combination(rows, INTRO_COMBINATIONS[name][1]) * Fraction(1, 32), {"lam": 1, "sig": 1})


def run_case_iii(sys: StructureSystem, rows: dict[str, Poly]) -> PipelineReport:
    """sig a function of lam: the six rewritten equations and the final
    combination 8 lam^2 sig (lam1^2 + lam2^2 + lam3^2) = 0 against (nbl),
    read off the derived 36 `rows`."""
    report = PipelineReport(
        "case-iii",
        assumptions=[
            "lam sig (lam1^2 + lam2^2 + lam3^2) != 0",
            "lam4 = 0",
            "sig_i = sig' lam_i, sig_ij = sig' lam_ij + sig'' lam_i lam_j",
        ],
        divides_by=("lam", "sig"),
    )
    store = FactStore(sys.ctx)
    ctx = sys.ctx
    store.add("lam4", 0, with_derivatives=True)
    sigp, sigpp = Poly.var("sigp"), Poly.var("sigpp")
    for i in DIRECTIONS:
        store.add(f"sig{i}", sigp * Poly.var(f"lam{i}"))
        for j in DIRECTIONS:
            store.add(
                f"sig{i}{j}",
                sigp * Poly.var(f"lam{i}{j}") + sigpp * Poly.var(f"lam{i}") * Poly.var(f"lam{j}"),
            )

    # the first-order constraints factor through 8 lam sig sig' = 12 sig^2 - lam^2
    _expect(report, "fsq-i-a", "constraint (a) becomes -lam2 lam3 times the sig' relation",
            store.reduce(constraint(rows, "intro_a")),
            LocFrac(-Poly.var("lam2") * Poly.var("lam3")) * LocFrac(FSQ_I))
    _expect(report, "fsq-i-b", "constraint (b) becomes -lam1 lam3 times the sig' relation",
            store.reduce(constraint(rows, "intro_b")),
            LocFrac(-Poly.var("lam1") * Poly.var("lam3")) * LocFrac(FSQ_I))
    sigp_fact = LocFrac((12 * sig**2 - lam**2) * Fraction(1, 8), {"lam": 1, "sig": 1})

    # differentiating the sig' relation yields the sig'' relation
    d3 = ctx.derive(FSQ_I, 3)
    d3 = store.reduce(d3)
    core = 8 * lam * sig * sigpp + 8 * lam * sigp**2 - 16 * sig * sigp + 2 * lam
    _expect(report, "fsq-ii-a", "d_3 of the sig' relation factors through lam3",
            d3, LocFrac(Poly.var("lam3")) * LocFrac(core))
    scaled = ctx.substitute(8 * lam * sig**2 * core, {"sigp": sigp_fact})
    _expect(report, "fsq-ii-b", "8 lam sig^2 times the core, with sig' eliminated",
            scaled, LocFrac(FSQ_II))
    sigpp_fact = LocFrac(
        (4 * sig**2 - lam**2) * (12 * sig**2 + lam**2) * Fraction(1, 64), {"lam": 2, "sig": 3}
    )
    store.add("sigp", sigp_fact)
    store.add("sigpp", sigpp_fact)

    # the three replacement rules hold identically under the substitutions
    ok1 = ok2 = ok3 = True
    for i in DIRECTIONS:
        li = Poly.var(f"lam{i}")
        r1 = store.reduce(8 * lam * sig * Poly.var(f"sig{i}") - (12 * sig**2 - lam**2) * li)
        r2 = store.reduce(8 * lam * sig * Poly.var(f"sig{i}") - mus * li - 8 * sig**2 * li)
        ok1 &= r1.is_zero()
        ok2 &= r2.is_zero()
        for j in DIRECTIONS:
            lij = Poly.var(f"lam{i}{j}")
            r3 = store.reduce(
                8 * lam * sig**2 * (8 * lam * sig * Poly.var(f"sig{i}{j}") - mus * lij)
                - 64 * lam * sig**4 * lij
                - (4 * sig**2 - lam**2) * (12 * sig**2 + lam**2) * li * Poly.var(f"lam{j}")
            )
            ok3 &= r3.is_zero()
    check(report.steps, "rule-1", "8 lam sig sig_i -> (12 sig^2 - lam^2) lam_i", ok1)
    check(report.steps, "rule-2", "8 lam sig sig_i - mu* lam_i -> 8 sig^2 lam_i", ok2)
    check(report.steps, "rule-3", "second-order replacement rule", ok3)

    # the six rewritten equations; the d-family substitutes to 4 x its
    # rewritten form, while in h and h4 the second-order replacement also
    # feeds the lam_ii coefficients, leaving the factor -32 sig^2
    sources = ("d", "d1", "d2", "d3", "h", "h4")
    factors = (4, 4, 4, 4, -32 * sig**2, -32 * sig**2)
    for idx, (label, factor) in enumerate(zip(sources, factors)):
        _expect(report, f"rewrite-{label}",
                f"{label} substitutes to ({factor}) x its rewritten form",
                store.reduce(rows[label]), LocFrac(Poly.const(1) * factor) * LocFrac(CASE3_REWRITTEN[idx]))

    # final combination: sum of the first four minus 4 sig times the last two
    total = Poly.zero()
    for p in CASE3_REWRITTEN[:4]:
        total = total + p
    total = total - 4 * sig * (CASE3_REWRITTEN[4] + CASE3_REWRITTEN[5])
    _expect(report, "final", "the combination is -(8 lam^2 sig (lam1^2+lam2^2+lam3^2))",
            LocFrac(total), LocFrac(-CASE3_FINAL))

    cert = sos_certificate(
        Poly.var("lam1") ** 2 + Poly.var("lam2") ** 2 + Poly.var("lam3") ** 2
    )
    report.final = {
        "identity": f"{CASE3_FINAL} = 0",
        "gradient_sos": certificate_text(cert) if cert else None,
        "contradiction": "lam sig (lam1^2+lam2^2+lam3^2) != 0 everywhere",
        "ok": report.ok and cert is not None,
    }
    return report


def certificate_text(decomposition) -> str:
    return " + ".join(f"{c}*({q})^2" for c, q in decomposition)
