"""Exterior algebra over the coframe (A,B,C,D) plus auxiliary 1-form symbols.

A DForm stores coefficients on strictly increasing multi-indices into the
basis name list.  The first four basis names are always the coframe; the
remaining names (F, G, L, S for the shipped system) behave as extra 1-form
generators so connection and curvature identities can be checked without
choosing components.  Scalar coefficients are LocFrac and the exterior
derivative expands 0-forms through the jet context (df = f_i e^i).  Every
sum goes through `form_sum`, so no form stores a zero coefficient.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import LocFrac, Poly, _coerce_frac, frac_product, frac_sum
from .jets import ROLES, JetContext, Scalar

COFRAME = ("A", "B", "C", "D")


class FormError(Exception):
    pass


class FormBasis:
    """Ordered 1-form generators; the first four are the coframe."""

    def __init__(self, names: Sequence[str] = COFRAME):
        if tuple(names[:4]) != COFRAME:
            raise FormError("basis must start with the coframe A, B, C, D")
        if len(set(names)) != len(names):
            raise FormError("duplicate basis names")
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}

    def __contains__(self, name):
        return name in self.index

    def __eq__(self, other):
        return isinstance(other, FormBasis) and self.names == other.names

    def __hash__(self):
        return hash(self.names)


DEFAULT_BASIS = FormBasis(COFRAME + ROLES)


def _merge_sign(a: tuple, b: tuple):
    """Concatenate two strictly increasing index tuples; returns (sign, tuple)
    or (0, ()) when they collide."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def form_sum(basis: FormBasis, degree: int, parts) -> "DForm":
    """The form summing (index, num, den) parts, normalized or not: one
    `frac_sum` per index, zero sums dropped."""
    groups: dict[tuple, list] = {}
    for idx, num, den in parts:
        groups.setdefault(idx, []).append((num, den))
    out = DForm(basis, degree)
    for idx, group in groups.items():
        if c := frac_sum(group):
            out.terms[idx] = c
    return out


def parts_of(*forms: "DForm"):
    """Every term of `forms` as a `form_sum` part."""
    return ((idx, c.num, c.den) for form in forms for idx, c in form.terms.items())


class DForm:
    """Graded exterior form with LocFrac coefficients."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: FormBasis, degree: int, terms: Mapping[tuple, Scalar] | None = None):
        if not 0 <= degree <= len(basis.names):
            raise FormError(f"degree {degree} out of range")
        self.basis = basis
        self.degree = degree
        self.terms: dict[tuple, LocFrac] = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise FormError(f"bad multi-index {idx} for degree {degree}")
            c = _coerce_frac(c)
            if not c.is_zero():
                self.terms[idx] = c

    # -- constructors --------------------------------------------------------

    @staticmethod
    def scalar(basis: FormBasis, value: Scalar) -> "DForm":
        return DForm(basis, 0, {(): value})

    @staticmethod
    def one_form(basis: FormBasis, name: str) -> "DForm":
        return DForm(basis, 1, {(basis.index[name],): 1})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "DForm") -> "DForm":
        if self.basis != other.basis:
            raise FormError("mixed bases")
        if self.degree != other.degree:
            raise FormError(f"degree mismatch: {self.degree} vs {other.degree}")
        return form_sum(self.basis, self.degree, parts_of(self, other))

    def __neg__(self) -> "DForm":
        out = DForm(self.basis, self.degree)
        out.terms = {idx: -c for idx, c in self.terms.items()}
        return out

    def __sub__(self, other: "DForm") -> "DForm":
        return self + (-other)

    def scale(self, factor: Scalar) -> "DForm":
        factor = _coerce_frac(factor)
        out = DForm(self.basis, self.degree)
        if factor.is_zero():
            return out
        out.terms = {idx: c * factor for idx, c in self.terms.items()}
        return out

    def __rmul__(self, factor):
        return self.scale(factor)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DForm):
            return NotImplemented
        return self.basis == other.basis and self.degree == other.degree and (self - other).is_zero()

    def __hash__(self):
        return hash((self.basis, self.degree, frozenset(self.terms.items())))

    def coefficient(self, *names: str) -> LocFrac:
        idx = tuple(sorted(self.basis.index[n] for n in names))
        if len(idx) != self.degree:
            raise FormError("coefficient index has wrong length")
        return self.terms.get(idx, LocFrac(Poly.zero()))

    def __str__(self):
        return " + ".join(self.term_text(idx) for idx in sorted(self.terms)) or "0"

    __repr__ = __str__

    def term_text(self, idx: tuple) -> str:
        """The term on `idx` as `__str__` writes it."""
        return f"({self.terms[idx]}) " + ("^".join(self.basis.names[i] for i in idx) or "1")


def wedge(a: DForm, b: DForm) -> DForm:
    """Exterior product; degrees above the basis size collapse to zero."""
    if a.basis != b.basis:
        raise FormError("mixed bases")
    deg = a.degree + b.degree
    if deg > len(a.basis.names):
        return DForm(a.basis, len(a.basis.names))  # necessarily zero
    terms = []
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, idx = _merge_sign(ia, ib)
            if sign:
                num, den = frac_product(ca, cb)
                terms.append((idx, num if sign > 0 else -num, den))
    return form_sum(a.basis, deg, terms)


class RuleSystem:
    """What ext_d needs to know: d of every basis 1-form, plus the jet context."""

    def __init__(self, basis: FormBasis, ctx: JetContext, d_rules: Mapping[str, DForm]):
        self.basis = basis
        self.ctx = ctx
        self.d_rules = dict(d_rules)

    def d_rule(self, name: str) -> DForm:
        try:
            return self.d_rules[name]
        except KeyError:
            raise FormError(f"no exterior-derivative rule for basis form {name!r}") from None


def d_scalar(ctx: JetContext, basis: FormBasis, f: Scalar) -> DForm:
    """df = (d_i f) e^i over the coframe."""
    f = _coerce_frac(f)
    return DForm(basis, 1, {(i,): ctx.derive(f, i + 1) for i in range(4)})


def ext_d(form: DForm, sys) -> DForm:
    """Exterior derivative with the graded Leibniz rule.

    0-form coefficients differentiate through the jet context; each basis
    1-form rewrites via the system's d-rule.  A term c e^I of degree k gives

        d(c e^I) = dc ^ e^I + sum_p (-1)^p c e^{I_0} ^ ... ^ d(e^{I_p}) ^ ... ^ e^{I_k-1},

    and d(e^{I_p}) = sum_J r_J e^J is a 2-form, which passes the first p
    factors without a sign.  So the term adds (d_i c) on the merged index of
    (i) and I, and (-1)^p (r_J c) on the merged index of J and I without
    I_p, each with the sign of its merge.
    """
    basis = form.basis
    if form.degree == 0:
        coeff = form.terms.get((), LocFrac(Poly.zero()))
        return d_scalar(sys.ctx, basis, coeff)
    terms = []
    for idx, c in form.terms.items():
        for i in range(4):
            dc = sys.ctx.derive(c, i + 1)
            sign, merged = _merge_sign((i,), idx)
            if dc and sign:
                terms.append((merged, dc.num if sign > 0 else -dc.num, dc.den))
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            parity = -1 if pos % 2 else 1
            for jdx, r in sys.d_rule(basis.names[i]).terms.items():
                sign, merged = _merge_sign(jdx, rest)
                if sign:
                    num, den = frac_product(r, c)
                    terms.append((merged, num if sign == parity else -num, den))
    return form_sum(basis, form.degree + 1, terms)


COEFF6_ORDER = (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"))


def coeff6(form: DForm):
    """Ordered coefficients of a coframe 2-form on A^B, A^C, A^D, B^C, B^D, C^D."""
    if form.degree != 2:
        raise FormError(f"coeff6 expects a 2-form, got degree {form.degree}")
    for idx in form.terms:
        if any(i >= 4 for i in idx):
            raise FormError("coeff6 expects a coframe-only 2-form")
    return tuple(form.coefficient(a, b) for a, b in COEFF6_ORDER)


def substitute_one_forms(form: DForm, mapping: Mapping[str, DForm]) -> DForm:
    """Replace auxiliary basis 1-forms by degree-1 forms (component expansion)."""
    basis = form.basis
    for name, repl in mapping.items():
        if repl.degree != 1 or repl.basis != basis:
            raise FormError("replacement must be a 1-form over the same basis")
    pieces = []
    for idx, c in form.terms.items():
        piece = DForm.scalar(basis, c)
        for i in idx:
            piece = wedge(piece, mapping.get(basis.names[i], DForm(basis, 1, {(i,): 1})))
        pieces.append(piece)
    return form_sum(basis, form.degree, parts_of(*pieces))

