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

from .algebra import ATOMS, AlgebraError, LocFrac, NonUnitError, Poly, _coerce_frac, frac_sum

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
        self.links: dict[tuple[str, int], Poly] = {}

    # -- registry ------------------------------------------------------------

    def register(self, name: str) -> None:
        self.symbols.add(name)

    def link(self, name: str, direction: int, value) -> None:
        """Register d_direction name = value; the value must be a polynomial."""
        if name not in self.symbols:
            raise JetError(f"unregistered symbol {name!r}")
        value = _coerce_frac(value)
        if value.den:
            raise JetError(f"link d_{direction} {name} = {value} is not a polynomial")
        self.links[(name, direction)] = value.num

    def register_jet_family(self, base: str) -> None:
        """base, base_i, base_ij with derivative links between them."""
        self.register(base)
        for i in DIRECTIONS:
            self.register(f"{base}{i}")
            self.link(base, i, Poly.var(f"{base}{i}"))
        for i in DIRECTIONS:
            for j in DIRECTIONS:
                self.register(f"{base}{i}{j}")
                self.link(f"{base}{i}", j, Poly.var(f"{base}{i}{j}"))

    def symbol(self, name: str) -> LocFrac:
        if name not in self.symbols:
            raise JetError(f"unregistered symbol {name!r}")
        return LocFrac(Poly.var(name))

    # -- the derivation operator ----------------------------------------------

    def derive_var(self, name: str, direction: int) -> Poly:
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

        d(p/q) = dp/q - sum over the atoms a^e of q of e p da / (q a), so the
        result denominator stays inside the atom monoid.  The parts are added
        in one `frac_sum`.
        """
        if direction not in DIRECTIONS:
            raise JetError(f"direction must be 1..4, got {direction}")
        expr = _coerce_frac(expr)
        d = lambda name: self.derive_var(name, direction)
        parts = [(expr.num.derivative(d), expr.den)]
        for atom, e in expr.den.items():
            parts.append((-e * expr.num * ATOMS[atom].derivative(d), {**expr.den, atom: e + 1}))
        return frac_sum(parts)

    def substitute(self, expr: Scalar, assignment: Mapping[str, Scalar]) -> LocFrac:
        """Simultaneous single-pass substitution.

        All keys are replaced at once, and a key in a value is not replaced
        again, so a layered fact map must be closed first (no value mentions
        a key), as cases.FactStore keeps it.

        Only the keys in `mentioned(expr)` are read.  When none occurs, the
        substitution is the identity and the coerced `expr` itself is
        returned.
        """
        expr = _coerce_frac(expr)
        keys = [name for name in mentioned(expr) if name in assignment]
        if not keys:
            return expr
        assignment = {k: _coerce_frac(assignment[k]) for k in keys}
        out = expr.num.substitute(assignment)
        for atom, e in expr.den.items():
            value = ATOMS[atom].substitute(assignment)
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


def mentioned(expr: LocFrac) -> set:
    """The variables of expr's numerator and of the polynomials of its
    denominator atoms (`lam` occurs in `mu+`): the names a substitution
    into expr can change."""
    names = expr.num.variables()
    for atom in expr.den:
        names |= ATOMS[atom].variables()
    return names


def standard_context() -> JetContext:
    """The engine's ambient symbol table."""
    ctx = JetContext()
    ctx.register_jet_family("lam")
    ctx.register_jet_family("sig")
    for i in DIRECTIONS:
        ctx.register(f"S{i}")
        for j in DIRECTIONS:
            ctx.register(f"S{i}{j}")
            ctx.link(f"S{i}", j, Poly.var(f"S{i}{j}"))
    for fam in ("F", "G", "L"):
        for i in DIRECTIONS:
            ctx.register(f"{fam}{i}")
    # sig as a function of lam: d_j sigp = sigpp * lam_j
    ctx.register("sigp")
    ctx.register("sigpp")
    for j in DIRECTIONS:
        ctx.link("sigp", j, Poly.var("sigpp") * Poly.var(f"lam{j}"))
    return ctx
