"""Exterior algebra over the coframe (A,B,C,D) plus auxiliary 1-form symbols.

A DForm stores coefficients on strictly increasing multi-indices into the
basis name list.  The first four basis names are always the coframe; the
remaining names (F, G, L, S for the shipped system) behave as extra 1-form
generators so connection and curvature identities can be checked without
choosing components.  Scalar coefficients are LocFrac and the exterior
derivative expands 0-forms through the jet context (df = f_i e^i).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import LocFrac, Poly, _coerce_frac
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


def _accumulate(terms: dict, idx: tuple, c: LocFrac) -> None:
    """Add c to terms[idx], dropping the entry when the sum is zero."""
    s = terms.get(idx)
    s = c if s is None else s + c
    if s.is_zero():
        terms.pop(idx, None)
    else:
        terms[idx] = s


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
    def zero(basis: FormBasis, degree: int = 0) -> "DForm":
        return DForm(basis, degree)

    @staticmethod
    def scalar(basis: FormBasis, value: Scalar) -> "DForm":
        return DForm(basis, 0, {(): value})

    @staticmethod
    def one_form(basis: FormBasis, name: str) -> "DForm":
        return DForm(basis, 1, {(basis.index[name],): 1})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "DForm") -> "DForm":
        self._check_compatible(other)
        t = dict(self.terms)
        for idx, c in other.terms.items():
            _accumulate(t, idx, c)
        out = DForm(self.basis, self.degree)
        out.terms = t
        return out

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

    def _check_compatible(self, other):
        if self.basis != other.basis:
            raise FormError("mixed bases")
        if self.degree != other.degree:
            raise FormError(f"degree mismatch: {self.degree} vs {other.degree}")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

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
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join(self.basis.names[i] for i in idx) or "1"
            parts.append(f"({self.terms[idx]}) {mono}")
        return " + ".join(parts)

    __repr__ = __str__


def wedge(a: DForm, b: DForm) -> DForm:
    """Exterior product; degrees above the basis size collapse to zero."""
    if a.basis != b.basis:
        raise FormError("mixed bases")
    deg = a.degree + b.degree
    if deg > len(a.basis.names):
        return DForm(a.basis, len(a.basis.names))  # necessarily zero
    out = DForm(a.basis, deg)
    t: dict[tuple, LocFrac] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, idx = _merge_sign(ia, ib)
            if sign == 0:
                continue
            c = ca * cb
            _accumulate(t, idx, c if sign > 0 else -c)
    out.terms = t
    return out


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
    out = DForm(basis, form.degree + 1)
    for idx, c in form.terms.items():
        for i in range(4):
            dc = sys.ctx.derive(c, i + 1)
            sign, merged = _merge_sign((i,), idx)
            if dc and sign:
                _accumulate(out.terms, merged, dc if sign > 0 else -dc)
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            parity = -1 if pos % 2 else 1
            for jdx, r in sys.d_rule(basis.names[i]).terms.items():
                sign, merged = _merge_sign(jdx, rest)
                if sign:
                    rc = r * c
                    _accumulate(out.terms, merged, rc if sign == parity else -rc)
    return out


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
    out = DForm(basis, form.degree)
    for idx, c in form.terms.items():
        piece = DForm.scalar(basis, c)
        for i in idx:
            name = basis.names[i]
            factor = mapping.get(name, DForm(basis, 1, {(i,): 1}))
            piece = wedge(piece, factor)
        out = out + piece
    return out

