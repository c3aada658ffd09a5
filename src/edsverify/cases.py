"""Step-verified replications of the three elimination arguments.

Each pipeline is a list of steps executed against a fact store (a closed,
exact substitution map).  A step substitutes the current facts into a labeled
equation and asserts the result, divided by a stated unit or not, equals a
stated factor times a core polynomial; it may then record the core's
consequence as a new fact, solved from the display it checked.  Every
division goes through the store, which records the atoms it divides by for
the pipeline's `assumptions` check.  Every assertion is an exact polynomial
identity; a failing step reports the residual.
"""

from __future__ import annotations

from . import equations as eqs
from .algebra import AlgebraError, LocFrac, Poly, _coerce_frac, sos_certificate
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
from .jets import DIRECTIONS, ROLES, JetContext, mentioned
from .structure import StructureSystem, check

lam, sig, mup, mum, mus = eqs.lam, eqs.sig, eqs.mup, eqs.mum, eqs.mus


class FactStore:
    """Closed substitution map: values never mention substituted symbols.

    Each fact keeps `jets.mentioned` of its value, so a new fact is
    substituted only into the facts that mention it.  The store is the
    pipelines' one division path: `divides_by` holds each atom of a unit
    that `divide` divided by, and of a denominator given to `add` or
    `reduce`, in the order first met."""

    def __init__(self, ctx: JetContext):
        self.ctx = ctx
        self.facts: dict[str, LocFrac] = {}
        self.mentions: dict[str, set] = {}
        self.divides_by: dict[str, None] = {}  # an ordered set

    def _observed(self, value) -> LocFrac:
        value = _coerce_frac(value)
        self.divides_by.update(dict.fromkeys(value.den))
        return value

    def add(self, name: str, value, with_derivatives: bool = False):
        v = self.ctx.substitute(self._observed(value), self.facts)
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
        return self.ctx.substitute(self._observed(expr), self.facts)

    def divide(self, value, unit) -> LocFrac:
        """value / unit, for a unit: a nonzero rational times atom powers.
        `LocFrac.inverse` refuses anything else."""
        return _coerce_frac(value) * self._observed(_coerce_frac(unit).inverse())

    def solve(self, display: Poly, name: str, power: int = 1) -> LocFrac:
        """The value of name**power on display = q * name**power + r = 0, for
        a unit q; a display with `name` in q or in r is refused."""
        q, r = display.split_power(name, power)
        if name in q.variables() | r.variables():
            raise AlgebraError(f"{display} is not linear in {name}^{power}")
        return self.divide(-r, q)


def _expect(steps: list, tag: str, description: str, value: LocFrac, expected) -> bool:
    """Record the step `tag`: value equals expected, else its residual."""
    residual = value - _coerce_frac(expected)
    ok = residual.is_zero()
    return check(steps, tag, description, ok, "" if ok else f"residual {residual}")


def _checks(sys: StructureSystem, store: FactStore, assumptions: list, steps: list,
            conclusion: str, contradiction: str, proved: bool = True) -> list:
    """A pipeline's checks: `assumptions`, which fails when the store divided
    by an atom the file does not declare nonzero, the steps, and the
    conclusion, which holds when every step passed and `proved`."""
    undeclared = [atom for atom in store.divides_by if atom not in sys.nonzero]
    checks = []
    check(checks, "assumptions", "declared nonzero/vanishing data", not undeclared,
          f"divides by atoms not declared nonzero: {', '.join(undeclared)}" if undeclared
          else "; ".join(assumptions))
    checks += steps
    check(checks, "conclusion", conclusion,
          proved and all(s["status"] == "pass" for s in steps), contradiction)
    return checks


def reduce_square(expr: LocFrac, name: str, replacement: LocFrac) -> LocFrac:
    """Rewrite every name^2 inside expr by the replacement value, repeatedly."""
    while True:
        q, r = expr.split_power(name, 2)
        if not q:
            return expr
        expr = r + q * replacement


# ---------------------------------------------------------------------------
# constant-lambda elimination
# ---------------------------------------------------------------------------


def run_const_lambda(sys: StructureSystem, comp: dict[str, DForm]) -> list:
    """d lam = 0 forces F = G = 0, and then the dF rule forces sig = 0,
    contradicting lam sig != 0.  `comp` is the derived component map."""
    store, steps = FactStore(sys.ctx), []
    for i in DIRECTIONS:
        store.add(f"lam{i}", 0, with_derivatives=True)
    # F and G vanish by the solved components
    F, G, L, _ = sys.roles
    for role, name in zip(ROLES, (F, G)):
        for i in DIRECTIONS:
            _expect(steps, f"{role}{i}=0", f"component {role}{i} under d lam = 0",
                    store.reduce(comp[name].coefficient(COFRAME[i - 1])), 0)
    # the dF rule then reads 0 = sig (A^C - D^B)
    reduced = {**comp, F: DForm(sys.basis, 1), G: DForm(sys.basis, 1),
               L: DForm(sys.basis, 1, {idx: store.reduce(c) for idx, c in comp[L].terms.items()})}
    rules = sys.component_rules(reduced, (*COFRAME, F))
    lhs = ext_d(reduced[F], rules)  # d of the zero 1-form
    rhs = rules.d_rule(F)
    residual = rhs - lhs
    coeff_ac = residual.coefficient("A", "C")
    coeff_bd = residual.coefficient("B", "D")
    _expect(steps, "dF-rule", "residual 2-form is sig (A^C + B^D)", coeff_ac, sig)
    _expect(steps, "dF-rule-bd", "B^D coefficient", coeff_bd, sig)
    return _checks(sys, store, ["lam sig != 0", "d lam = 0 (all lam_i = 0)"], steps,
                   "sig = 0", "sig is a declared nonzero atom")


# ---------------------------------------------------------------------------
# integrable-eigendistribution elimination
# ---------------------------------------------------------------------------


def run_case_ii(sys: StructureSystem, rows: dict[str, Poly]) -> list:
    """The chain from lam1 = lam2 = lam4 = 0 to lam^4 - 5 lam^2 sig^2 + 12 sig^4 = 0,
    read off the derived 36 `rows`."""
    store, steps = FactStore(sys.ctx), []
    ctx = sys.ctx
    for name in ("lam1", "lam2", "lam4"):
        store.add(name, 0, with_derivatives=True)
    lam3p = Poly.var("lam3")

    # (suc): four successive consequences of the b-family
    _expect(steps, "suc-1", "b reduces to -4 sig lam31",
            store.divide(store.reduce(rows["b"]), -4 * sig), SUC[0])
    store.add("lam31", store.solve(SUC[0], "lam31"))
    _expect(steps, "suc-2", "b1 reduces to -4 sig lam32",
            store.divide(store.reduce(rows["b1"]), -4 * sig), SUC[1])
    store.add("lam32", store.solve(SUC[1], "lam32"))
    _expect(steps, "suc-3", "b2 reduces to lam3 (2 sig S1 + sig2)",
            store.divide(store.reduce(rows["b2"]), lam3p), SUC[2])
    store.add("S1", store.solve(SUC[2], "S1"), with_derivatives=True)
    _expect(steps, "suc-4", "b3 reduces to lam3 (2 sig S2 - sig1)",
            store.divide(store.reduce(rows["b3"]), lam3p), SUC[3])
    store.add("S2", store.solve(SUC[3], "S2"), with_derivatives=True)

    # (c) and (c1) force sig2 = sig1 = 0 since lam sig lam3 != 0
    sig2, sig1 = Poly.var("sig2"), Poly.var("sig1")
    _expect(steps, "c", "c reduces to 64 lam^2 sig lam3 sig2",
            store.divide(store.reduce(rows["c"]), 64 * lam**2 * sig * lam3p), sig2)
    store.add("sig2", store.solve(sig2, "sig2"), with_derivatives=True)
    _expect(steps, "c1", "c1 reduces to -64 lam^2 sig lam3 sig1",
            store.divide(store.reduce(rows["c1"]), -64 * lam**2 * sig * lam3p), sig1)
    store.add("sig1", store.solve(sig1, "sig1"), with_derivatives=True)
    _expect(steps, "S1=S2=0", "the trace components vanish with sig1, sig2",
            store.reduce(Poly.var("S1") ** 2 + Poly.var("S2") ** 2), 0)

    # (j): lam3 S4 = 2 lam^2
    _expect(steps, "j", "j reduces to -16 sig^2 (lam3 S4 - 2 lam^2)",
            store.divide(store.reduce(rows["j"]), -16 * sig**2), CASE2_J)
    store.add("S4", store.solve(CASE2_J, "S4"), with_derivatives=True)

    # (h): 3 mu* lam3^2 = 8 lam sig (lam3 sig3 + 4 lam^2 sig)
    _expect(steps, "h", "h reduces to 16 sig^2 times the lam3^2 relation",
            store.divide(store.reduce(rows["h"]), 16 * sig**2), CASE2_H)

    # combined with (d2): lam3 sig3 = -4 sig mu*
    r2 = store.reduce(rows["d2"])
    _expect(steps, "lts-1", "mu- * (h-relation) - d2 is -16 lam^2 sig (lam3 sig3 + 4 sig mu*)",
            store.divide(LocFrac(mum) * store.reduce(CASE2_H) - r2, -16 * lam**2 * sig), LTS_1)
    sig3 = store.solve(LTS_1, "sig3")
    _expect(steps, "lts-2", "eliminating sig3 turns the h-relation into the lam3^2 value",
            ctx.substitute(CASE2_H, {"sig3": sig3}), LTS_2)
    lam3_squared = store.solve(LTS_2, "lam3", 2)

    # (els): d and d1 divided by 4 sig
    _expect(steps, "els-i", "d, divided by 4 sig",
            store.divide(store.reduce(rows["d"]), 4 * sig), ELS_I)
    _expect(steps, "els-ii", "d1, divided by 4 sig",
            store.divide(store.reduce(rows["d1"]), 4 * sig), ELS_II)

    # final combination with coefficients 3 mu* mu+ and -3 mu* mu-
    combo = LocFrac(3 * mus * mup) * LocFrac(ELS_I) - LocFrac(3 * mus * mum) * LocFrac(ELS_II)
    combo = reduce_square(ctx.substitute(combo, {"sig3": sig3}), "lam3", lam3_squared)
    # the combination of (lhs - rhs) forms is minus the displayed quartic
    _expect(steps, "final", "combination, divided by 512 lam^2 sig^2, reads 0 = quartic",
            store.divide(combo, 512 * lam**2 * sig**2), -CASE2_FINAL)

    cert = sos_certificate(CASE2_FINAL)
    checks = _checks(sys, store, [
        "lam sig != 0",
        "lam4 = 0, lam3 > 0 (normalized gradient)",
        "lam1 = lam2 = 0 (span(e3,e4) integrable)",
    ], steps, str(CASE2_FINAL), "positive unless lam = sig = 0, against lam sig != 0",
        proved=cert is not None)
    check(checks, "sos", "positivity certificate", cert is not None,
          certificate_text(cert) if cert else "")
    return checks


# ---------------------------------------------------------------------------
# functionally-dependent-norms elimination
# ---------------------------------------------------------------------------


def combination(rows: dict[str, Poly], pairs) -> Poly:
    """The sum of coeff * rows[label] over the (label, coeff) `pairs`."""
    total = Poly.zero()
    for label, coeff in pairs:
        total = total + coeff * rows[label]
    return total


def run_case_iii(sys: StructureSystem, rows: dict[str, Poly]) -> list:
    """sig a function of lam: the six rewritten equations and the final
    combination 8 lam^2 sig (lam1^2 + lam2^2 + lam3^2) = 0 against (nbl),
    read off the derived 36 `rows`."""
    store, steps = FactStore(sys.ctx), []
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

    # the first-order constraints, read off the rows as their combination
    # divided by 32 lam sig, factor through 8 lam sig sig' = 12 sig^2 - lam^2
    for tag, name, side, other in (("fsq-i-a", "intro_a", "a", "lam2"),
                                   ("fsq-i-b", "intro_b", "b", "lam1")):
        value = store.divide(store.reduce(combination(rows, INTRO_COMBINATIONS[name][1])),
                             32 * lam * sig)
        _expect(steps, tag, f"constraint ({side}) becomes -{other} lam3 times the sig' relation",
                value, LocFrac(-Poly.var(other) * Poly.var("lam3")) * LocFrac(FSQ_I))
    sigp_fact = store.solve(FSQ_I, "sigp")

    # differentiating the sig' relation yields lam_i times one core, for
    # i = 1, 2, 3 (lam4 = 0); the gradient is nonzero, so the core vanishes
    core = 8 * lam * sig * sigpp + 8 * lam * sigp**2 - 16 * sig * sigp + 2 * lam
    residuals = [store.reduce(ctx.derive(FSQ_I, i)) - LocFrac(Poly.var(f"lam{i}") * core)
                 for i in (1, 2, 3)]
    _expect(steps, "fsq-ii-a", "d_i of the sig' relation is lam_i times one core (i = 1, 2, 3)",
            next((r for r in residuals if not r.is_zero()), residuals[0]), 0)
    scaled = ctx.substitute(8 * lam * sig**2 * core, {"sigp": sigp_fact})
    _expect(steps, "fsq-ii-b", "8 lam sig^2 times the core, with sig' eliminated", scaled, FSQ_II)
    store.add("sigp", sigp_fact)
    store.add("sigpp", store.solve(FSQ_II, "sigpp"))

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
    check(steps, "rule-1", "8 lam sig sig_i -> (12 sig^2 - lam^2) lam_i", ok1)
    check(steps, "rule-2", "8 lam sig sig_i - mu* lam_i -> 8 sig^2 lam_i", ok2)
    check(steps, "rule-3", "second-order replacement rule", ok3)

    # the six rewritten equations; the d-family substitutes to 4 x its
    # rewritten form, while in h and h4 the second-order replacement also
    # feeds the lam_ii coefficients, leaving the factor -32 sig^2
    sources = ("d", "d1", "d2", "d3", "h", "h4")
    factors = (4, 4, 4, 4, -32 * sig**2, -32 * sig**2)
    for label, factor, rewritten in zip(sources, factors, CASE3_REWRITTEN):
        _expect(steps, f"rewrite-{label}", f"{label} substitutes to ({factor}) x its rewritten form",
                store.divide(store.reduce(rows[label]), factor), rewritten)

    # final combination: sum of the first four minus 4 sig times the last two
    total = Poly.zero()
    for p in CASE3_REWRITTEN[:4]:
        total = total + p
    total = total - 4 * sig * (CASE3_REWRITTEN[4] + CASE3_REWRITTEN[5])
    _expect(steps, "final", "the combination is -(8 lam^2 sig (lam1^2+lam2^2+lam3^2))",
            LocFrac(total), -CASE3_FINAL)

    return _checks(sys, store, [
        "lam sig (lam1^2 + lam2^2 + lam3^2) != 0",
        "lam4 = 0",
        "sig_i = sig' lam_i, sig_ij = sig' lam_ij + sig'' lam_i lam_j",
    ], steps, f"{CASE3_FINAL} = 0", "lam sig (lam1^2+lam2^2+lam3^2) != 0 everywhere")


def certificate_text(decomposition) -> str:
    return " + ".join(f"{c}*({q})^2" for c, q in decomposition)
