"""Symbol registry for function germs and their directional derivatives.

The registry knows lam, sig with first- and second-order jets (lam1..lam4,
lam11..lam44, same for sig), the trace-connection components S1..S4 with
second-order jets, the free connection components F/G/L (never derived), and
the auxiliary pair sigp/sigpp used when sig is constrained to be a function of
lam.  Directional derivatives of atoms expand through these links, so the
quotient rule keeps denominators inside the atom monoid.

Second-order jets do not commute: lam12 and lam21 are distinct symbols.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .algebra import ATOMS, AlgebraError, LocFrac, NonUnitError, Poly, _coeff, _coerce_frac, _poly

DIRECTIONS = (1, 2, 3, 4)

Scalar = Union[int, Fraction, Poly, LocFrac]


class JetError(Exception):
    pass


class JetOrderError(JetError):
    """A derivative beyond the registered jet order was requested."""


class SubstitutionError(JetError):
    def __init__(self, msg, factor=None):
        super().__init__(msg)
        self.factor = factor


class JetContext:
    """Registered function symbols and their derivative links.

    The nonzero atoms a denominator may hold are not kept here: they are the
    module-global `algebra.ATOMS`, shared by every context.
    """

    def __init__(self):
        self.symbols: set[str] = set()
        self.links: dict[tuple[str, int], LocFrac] = {}

    # -- registry ------------------------------------------------------------

    def register(self, name: str) -> None:
        self.symbols.add(name)

    def link(self, name: str, direction: int, value) -> None:
        if name not in self.symbols:
            raise JetError(f"unregistered symbol {name!r}")
        self.links[(name, direction)] = _coerce_frac(value)

    def register_jet_family(self, base: str, max_order: int = 2) -> None:
        """base, base_i, base_ij with derivative links between them."""
        self.register(base)
        if max_order < 1:
            return
        for i in DIRECTIONS:
            self.register(f"{base}{i}")
            self.link(base, i, LocFrac(Poly.var(f"{base}{i}")))
        if max_order < 2:
            return
        for i in DIRECTIONS:
            for j in DIRECTIONS:
                self.register(f"{base}{i}{j}")
                self.link(f"{base}{i}", j, LocFrac(Poly.var(f"{base}{i}{j}")))

    def symbol(self, name: str) -> LocFrac:
        if name not in self.symbols:
            raise JetError(f"unregistered symbol {name!r}")
        return LocFrac(Poly.var(name))

    # -- the derivation operator ----------------------------------------------

    def derive_var(self, name: str, direction: int) -> LocFrac:
        key = (name, direction)
        if key in self.links:
            return self.links[key]
        if name in self.symbols:
            raise JetOrderError(
                f"jet order exceeded: d_{direction} of {name!r} is not registered"
            )
        raise JetError(f"cannot derive unregistered symbol {name!r}")

    def derive(self, expr: Scalar, direction: int) -> LocFrac:
        """Directional derivative d_direction with Leibniz and quotient rules.

        d(p/q) = dp/q - (p/q) * dq/q, where dq/q expands atom by atom so the
        result denominator stays inside the atom monoid.
        """
        if direction not in DIRECTIONS:
            raise JetError(f"direction must be 1..4, got {direction}")
        expr = _coerce_frac(expr)
        out = _dpoly(self, expr.num, direction)
        if expr.den:
            out = out * LocFrac(Poly.const(1), expr.den)
            out = out - sum_den_terms(self, expr, direction)
        return out

    def substitute(self, expr: Scalar, assignment: Mapping[str, Scalar]) -> LocFrac:
        """Simultaneous single-pass substitution.

        All keys are replaced at once, and a key in a value is not replaced
        again, so a layered fact map must be closed first (no value mentions
        a key), as cases.FactStore keeps it.

        When no key occurs in the numerator, nor in the polynomial of any
        denominator atom (`lam` occurs in `mu+`), the substitution is the
        identity and the coerced `expr` itself is returned.
        """
        expr = _coerce_frac(expr)
        names = expr.num.variables()
        for atom in expr.den:
            names |= ATOMS[atom].variables()
        if names.isdisjoint(assignment):
            return expr
        assignment = {k: _coerce_frac(v) for k, v in assignment.items()}
        out = _subst_poly(expr.num, assignment)
        for atom, e in expr.den.items():
            value = _subst_poly(ATOMS[atom], assignment)
            try:
                inv = value.inverse()
            except (NonUnitError, AlgebraError) as exc:
                factor = getattr(exc, "factor", None)
                raise SubstitutionError(
                    f"substitution sends denominator atom {atom!r} outside the "
                    f"atom monoid: {value.num}",
                    factor=factor,
                ) from exc
            for _ in range(e):
                out = out * inv
        return out


def sum_den_terms(ctx: JetContext, expr: LocFrac, direction: int) -> LocFrac:
    total = LocFrac(Poly.zero())
    for atom, e in expr.den.items():
        datom = _dpoly(ctx, ATOMS[atom], direction)
        total = total + e * expr * datom * LocFrac(Poly.const(1), {atom: 1})
    return total


def _dpoly(ctx: JetContext, p: Poly, direction: int) -> LocFrac:
    out = LocFrac(Poly.zero())
    for mono, coeff in p.terms.items():
        for idx, (name, e) in enumerate(mono):
            rest = dict(mono)
            if e > 1:
                rest[name] = e - 1
            else:
                del rest[name]
            partial = _poly({tuple(sorted(rest.items())): _coeff(coeff * e)})
            out = out + LocFrac(partial) * ctx.derive_var(name, direction)
    return out


def _subst_poly(p: Poly, assignment: Mapping[str, LocFrac]) -> LocFrac:
    out = LocFrac(Poly.zero())
    for mono, coeff in p.terms.items():
        kept = []
        factor = LocFrac(Poly.const(coeff))
        for name, e in mono:
            if name in assignment:
                v = assignment[name]
                for _ in range(e):
                    factor = factor * v
            else:
                kept.append((name, e))
        out = out + factor * LocFrac(_poly({tuple(kept): 1}))
    return out


def standard_context() -> JetContext:
    """The engine's ambient symbol table."""
    ctx = JetContext()
    ctx.register_jet_family("lam", 2)
    ctx.register_jet_family("sig", 2)
    for i in DIRECTIONS:
        ctx.register(f"S{i}")
        for j in DIRECTIONS:
            ctx.register(f"S{i}{j}")
            ctx.link(f"S{i}", j, LocFrac(Poly.var(f"S{i}{j}")))
    for fam in ("F", "G", "L"):
        for i in DIRECTIONS:
            ctx.register(f"{fam}{i}")
    # sig as a function of lam: d_j sigp = sigpp * lam_j
    ctx.register("sigp")
    ctx.register("sigpp")
    for j in DIRECTIONS:
        ctx.link("sigp", j, LocFrac(Poly.var("sigpp") * Poly.var(f"lam{j}")))
    # rotation parameters, never differentiated
    ctx.register("c")
    ctx.register("s")
    return ctx
