"""Exact scalar arithmetic: sparse multivariate polynomials over Q and
localized fractions whose denominators are monomials in declared-nonzero atoms.

A monomial is a tuple of (variable-name, exponent) pairs, canonical: sorted
by name, each name once, every exponent positive.  `Poly(terms)` brings any
input to that form (repeated names merge, zero exponents drop, coefficients
of monomials that become equal add up) and refuses a negative exponent;
internal builders that already hold canonical terms use `_poly`.  A Poly maps
monomials to nonzero rationals, an int when integral and else a Fraction, so
integer arithmetic carries nearly every coefficient.  Monomials are ordered
graded-lex (variables in name order) through a sort key.  LocFrac is Poly /
product of atom powers, normalized so that no atom divides numerator and
denominator at once: a variable atom (lam, sig, lam3) cancels by subtracting
exponents, a binomial atom (mu+, mu-) by exact division.  Equality of
fractions is decided by cross-multiplication.

Arithmetic skips work whose answer is known.  A zero operand of a sum
returns the other operand, and of a product gives zero (a Poly is never
mutated after construction, so sharing is safe).  A one-term factor maps
distinct monomials to distinct monomials and nonzero coefficients to nonzero
ones, so its product is one pass over the other operand's terms, with
nothing to collect or cancel, and a unit coefficient is not multiplied at
all.  A one-term power scales its exponents.  Fractions add through
`frac_sum`: any number of parts, lifted to one common denominator, their
terms added into one dict and the sum normalized once.

No other module reads the term format: derivatives, substitution,
proportionality, power splitting, single-term unpacking and the
sum-of-squares certificate are methods and functions here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import Mapping, Union

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name
Coeff = Union[int, Fraction]  # canonical: int, or Fraction with denominator > 1

ONE_MONO: Monomial = ()


class AlgebraError(Exception):
    pass


class NonUnitError(AlgebraError):
    """A fraction whose numerator is not rational-times-atom-monomial was
    asked for its inverse."""

    def __init__(self, msg, factor=None):
        super().__init__(msg)
        self.factor = factor


class SingularMatrixError(AlgebraError):
    def __init__(self, msg, determinant=None):
        super().__init__(msg)
        self.determinant = determinant


def _coeff(c: Coeff) -> Coeff:
    """c as a canonical coefficient; a float is refused, being inexact."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction or isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise AlgebraError(f"coefficient {c!r} is not an int or a Fraction")


def _quotient(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient a / b of two coefficients, canonical."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _coeff(Fraction(a, b))


def _poly(terms: dict) -> "Poly":
    """A Poly on canonical terms: sorted monomials, nonzero canonical coefficients."""
    out = Poly.__new__(Poly)
    out.terms = terms
    return out


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # insert the one pair by scanning a; exponents are positive, so a
        # shared name never drops out
        (name, e), = b
        for i, (n, x) in enumerate(a):
            if n == name:
                return a[:i] + ((n, x + e),) + a[i + 1:]
            if n > name:
                return a[:i] + b + a[i:]
        return a + b
    d = {p[0]: p for p in a}  # name -> pair: a pair of one factor is kept, not rebuilt
    for q in b:
        p = d.get(q[0])
        d[q[0]] = q if p is None else (q[0], p[1] + q[1])
    return tuple(sorted(d.values()))


def mono_div(a: Monomial, b: Monomial):
    """a / b, or None when b does not divide a."""
    d = {p[0]: p for p in a}
    for name, e in b:
        r = d.get(name, (name, 0))[1] - e
        if r < 0:
            return None
        if r:
            d[name] = (name, r)
        else:
            d.pop(name, None)
    return tuple(sorted(d.values()))


def mono_content(monos) -> Monomial:
    """The greatest common divisor of the nonempty collection of monomials
    `monos`; the walk stops once it is 1."""
    it = iter(monos)
    common = dict(next(it))
    for m in it:
        if not common:
            break
        exps = dict(m)
        common = {n: min(e, exps[n]) for n, e in common.items() if n in exps}
    return tuple(common.items())


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _grlex_key(m: Monomial):
    """Sort key of the graded lexicographic order, smallest for the greatest
    monomial: higher degree first, then, at the first variable (in name order)
    where two monomials differ, the one with the earlier name or the higher
    exponent.  A genuine monomial order: compatible with multiplication, so
    exact division by leading-term reduction terminates.  The pairs go in a
    list, not a tuple built from a generator: measured on `all`, the tuple
    raised peak RSS by about 0.5 MiB."""
    return -mono_degree(m), [(n, -e) for n, e in m]


class Poly:
    """Sparse multivariate polynomial over Q; a coefficient is an int or a Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None):
        self.terms = t = {}
        for m, c in (terms or {}).items():
            exps = {}
            for name, e in m:
                if e < 0:
                    raise AlgebraError(f"negative exponent {e} of {name!r}")
                exps[name] = exps.get(name, 0) + e
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            if s := t.get(m, 0) + _coeff(c):
                t[m] = _coeff(s)
            else:
                t.pop(m, None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Coeff) -> "Poly":
        c = _coeff(c)
        return _poly({ONE_MONO: c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise AlgebraError(f"negative exponent {exp} of {name!r}")
        return _poly({((name, exp),) if exp else ONE_MONO: 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            if s is None:
                t[m] = c
            elif s := s + c:
                t[m] = _coeff(s)
            else:
                del t[m]
        return _poly(t)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return _poly({})
        if len(self.terms) == 1 or len(other.terms) == 1:
            if len(self.terms) != 1:
                self, other = other, self
            (m1, c1), = self.terms.items()
            if c1 == 1:
                return _poly({mono_mul(m1, m2): c2 for m2, c2 in other.terms.items()})
            return _poly({mono_mul(m1, m2): _coeff(c1 * c2) for m2, c2 in other.terms.items()})
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = t.get(m)
                if s is None:
                    t[m] = _coeff(c1 * c2)
                elif s := s + c1 * c2:
                    t[m] = _coeff(s)
                else:
                    del t[m]
        return _poly(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n; a one-term self gives its term with exponents scaled by n,
        other polynomials square repeatedly, never past the last bit of n."""
        if n < 0:
            raise AlgebraError("negative polynomial power")
        if not n:
            return Poly.const(1)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return _poly({tuple((name, e * n) for name, e in m): c**n})
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for n, _ in m:
                out.add(n)
        return out

    def leading(self):
        """(monomial, coefficient) maximal under graded lex."""
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        m = min(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def as_constant(self):
        """The rational value of a constant polynomial, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and ONE_MONO in self.terms:
            return self.terms[ONE_MONO]
        return None

    def as_term(self):
        """(coefficient, monomial) of a one-term polynomial, else None."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        return c, m

    def split_power(self, name: str, k: int):
        """(q, r) with self == q * name**k + r and no term of r divisible by
        name**k."""
        q, r = {}, {}
        for m, c in self.terms.items():
            for i, (n, e) in enumerate(m):
                if n == name and e >= k:
                    q[m[:i] + ((n, e - k),) + m[i + 1:] if e > k else m[:i] + m[i + 1:]] = c
                    break
            else:
                r[m] = c
        return _poly(q), _poly(r)

    def proportion(self, other: "Poly"):
        """(factor, shift) with self * x^shift == factor * other, factor one
        term and shift a monomial; None when the two are not proportional.

        Decided in one walk over other's terms.  Were self = q x^s other for
        a rational q and a monomial s, then shift and factor's monomial would
        be other's and self's monomial contents.  So every term c x^m of
        other must land on a term of self at x^m times their quotient, all
        with the coefficient ratio q of the first, and the term counts must
        agree.  The ratios are compared as integer cross products, not as
        Fractions.
        """
        if not self.terms or len(self.terms) != len(other.terms):
            return None
        m_s, m_o = mono_content(self.terms), mono_content(other.terms)
        qn = qd = None  # q = qn / qd, compared in integers
        for m, c in other.terms.items():
            t = self.terms.get(mono_mul(mono_div(m, m_o) if m_o else m, m_s))
            if t is None:
                return None
            tn, td, cn, cd = t.numerator, t.denominator, c.numerator, c.denominator
            if qn is None:
                qn, qd = tn * cd, td * cn
            elif tn * cd * qd != qn * cn * td:
                return None
        return _poly({m_s: _quotient(qn, qd)}), m_o

    def coefficient_of(self, name: str, exp: int = 1) -> "Poly":
        """Coefficient polynomial of name**exp among terms with that exact
        power of `name`."""
        t = {}
        for m, c in self.terms.items():
            d = dict(m)
            if d.get(name, 0) == exp:
                d.pop(name, None)
                t[tuple(d.items())] = c
        return _poly(t)

    def rename(self, ren: Mapping[str, tuple[int, str]]) -> "Poly":
        """Image under the signed rename name -> (sign, new name); variables
        outside `ren` stay fixed.

        `ren` must permute its variables.  Then distinct monomials map to
        distinct monomials, so each term's image is one term, negated when
        an odd power of a negated variable divides it.
        """
        terms = {}
        for mono, c in self.terms.items():
            image = []
            for name, e in mono:
                sign, name = ren.get(name, (1, name))
                if sign < 0 and e % 2:
                    c = -c
                image.append((name, e))
            terms[tuple(sorted(image))] = c
        return _poly(terms)

    def evaluate(self, values: Mapping[str, Coeff]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for n, e in m:
                v = v * _coeff(values[n]) ** e
            total += v
        return total

    # -- derivation and substitution -----------------------------------------

    def derivative(self, d) -> "Poly":
        """The derivation sending each variable v to the polynomial d(v), by
        the Leibniz rule: each partial derivative times d of its variable,
        added straight into one term dict."""
        t = {}
        for mono, coeff in self.terms.items():
            for i, (name, e) in enumerate(mono):
                rest = mono[:i] + ((name, e - 1),) + mono[i + 1:] if e > 1 else mono[:i] + mono[i + 1:]
                for m, c in d(name).terms.items():
                    m, c = mono_mul(rest, m), coeff * e * c
                    s = t.get(m)
                    t[m] = c if s is None else s + c
        return _poly({m: _coeff(c) for m, c in t.items() if c})

    def substitute(self, values: Mapping[str, "LocFrac"]) -> "LocFrac":
        """self with the names of `values` replaced: each term's product of
        value powers is kept unnormalized, and the terms are added in one
        `frac_sum`."""
        parts = []
        for mono, coeff in self.terms.items():
            kept, num, den = [], _poly({(): coeff}), {}
            for name, e in mono:
                v = values.get(name)
                if v is None:
                    kept.append((name, e))
                    continue
                num = num * v.num ** e
                for atom, k in v.den.items():
                    den[atom] = den.get(atom, 0) + k * e
            parts.append((num * _poly({tuple(kept): 1}), den))
        return frac_sum(parts)

    # -- division and normal form ------------------------------------------

    def div_exact(self, divisor: "Poly"):
        """Exact quotient self/divisor, or None when division leaves a
        remainder.  Single-divisor reduction by the graded-lex leading term."""
        if divisor.is_zero():
            raise AlgebraError("division by zero polynomial")
        lm, lc = divisor.leading()
        rem = self
        quot = {}
        while rem.terms:
            m, c = rem.leading()
            q = mono_div(m, lm)
            if q is None:
                return None
            qc = _quotient(c, lc)
            # the leading monomial of rem falls strictly, so q is new
            quot[q] = qc
            rem = rem - _poly({q: qc}) * divisor
        return _poly(quot)

    def __floordiv__(self, other):
        """Exact quotient; raises AlgebraError when other does not divide self."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.div_exact(other)
        if q is None:
            raise AlgebraError(f"{other} does not divide {self}")
        return q

    def content(self):
        """(rational content, monomial content) with the rational carrying
        the sign of the graded-lex leading coefficient."""
        if not self.terms:
            return Fraction(0), ONE_MONO
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        _, lc = self.leading()
        sign = 1 if lc > 0 else -1
        return Fraction(sign * num, den), mono_content(self.terms)

    def normalized(self):
        """(content Fraction, content Monomial, primitive sign-normalized Poly)
        with self == content * monomial * primitive."""
        if not self.terms:
            return Fraction(0), ONE_MONO, Poly()
        c, mono = self.content()
        k = _coeff(c)
        t = {}
        for m, coeff in self.terms.items():
            t[mono_div(m, mono)] = _quotient(coeff, k)
        return c, mono, _poly(t)

    # -- presentation --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_grlex_key):
            c = self.terms[m]
            factors = []
            if abs(c) != 1 or not m:
                factors.append(str(abs(c)))
            for n, e in m:
                factors.append(n if e == 1 else f"{n}^{e}")
            piece = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + piece)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


def _coerce(x):
    t = type(x)
    if t is Poly:
        return x
    if t in (int, Fraction) or isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return x if isinstance(x, Poly) else NotImplemented


# ---------------------------------------------------------------------------
# Declared-nonzero atoms and localized fractions
# ---------------------------------------------------------------------------

LAM = Poly.var("lam")
SIG = Poly.var("sig")

#: pairwise coprime irreducible polynomials allowed in denominators
ATOMS: dict = {
    "lam": LAM,
    "sig": SIG,
    "mu+": 2 * SIG + LAM,
    "mu-": 2 * SIG - LAM,
    "lam3": Poly.var("lam3"),
}

ATOM_ORDER = tuple(ATOMS)

#: atoms that are a single variable, cancelled by exponent arithmetic
_VARIABLE_ATOMS = frozenset(n for n, a in ATOMS.items() if a == Poly.var(n))


class LocFrac:
    """Poly / monomial-in-atoms, kept in normal form (no atom divides both
    numerator and denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: Mapping[str, int] | None = None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        d = {}
        for name, e in (den or {}).items():
            if name not in ATOMS:
                raise AlgebraError(f"denominator atom {name!r} is not registered nonzero")
            if e < 0:
                raise AlgebraError("negative denominator exponent")
            if e:
                d[name] = e
        self.num, self.den = _normalize(num, d)

    def den_poly(self) -> Poly:
        p = Poly.const(1)
        for name, e in self.den.items():
            p = p * ATOMS[name] ** e
        return p

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return frac_sum(((self.num, self.den), (other.num, other.den)))

    __radd__ = __add__

    def __neg__(self):
        out = LocFrac.__new__(LocFrac)
        out.num, out.den = -self.num, dict(self.den)
        return out

    def __sub__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_frac(other) - self

    def __mul__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        den = dict(self.den)
        for n, e in other.den.items():
            den[n] = den.get(n, 0) + e
        return _frac(self.num * other.num, den)

    __rmul__ = __mul__

    def rename(self, ren: Mapping[str, tuple[int, str]]) -> "LocFrac":
        """Image under the signed rename of `Poly.rename`.

        Each denominator atom must map to plus or minus an atom; its sign
        survives at odd exponents.
        """
        num, den = self.num.rename(ren), {}
        for name, e in self.den.items():
            image = ATOMS[name].rename(ren)
            for target, atom in ATOMS.items():
                if atom == image or atom == -image:
                    break
            else:
                raise AlgebraError(
                    f"rename sends denominator atom {name!r} outside the atom set: {image}"
                )
            if atom != image and e % 2:
                num = -num
            den[target] = e
        return LocFrac(num, den)

    def split_power(self, name: str, k: int):
        """(q, r) over self's denominator with self == q * name**k + r, as
        `Poly.split_power` splits the numerator."""
        q, r = self.num.split_power(name, k)
        return _frac(q, self.den), _frac(r, self.den)

    def inverse(self) -> "LocFrac":
        """Inverse, defined when the numerator is rational * atom monomial."""
        if self.num.is_zero():
            raise AlgebraError("inverse of zero")
        c, extracted = _extract_atoms(self.num)
        if c is None:
            raise NonUnitError(
                f"non-unit numerator: {self.num}", factor=extracted
            )
        return LocFrac(self.den_poly() * Poly.const(_quotient(1, c)), extracted)

    def __truediv__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce_frac(other)
        if other is NotImplemented:
            return NotImplemented
        # cross multiplication a*d - c*b == 0
        return (self.num * other.den_poly() - other.num * self.den_poly()).is_zero()

    def __hash__(self):
        return hash((self.num, tuple(sorted(self.den.items()))))

    def __str__(self):
        if not self.den:
            return str(self.num)
        den = "*".join(n if e == 1 else f"{n}^{e}" for n, e in sorted(self.den.items()))
        return f"({self.num})/({den})"

    __repr__ = __str__


def _frac(num: Poly, den: dict) -> LocFrac:
    """A LocFrac on positive exponents of registered atoms, normalized."""
    out = LocFrac.__new__(LocFrac)
    out.num, out.den = _normalize(num, den)
    return out


def _lift(num: Poly, den: dict, common: dict) -> Poly:
    """The numerator of num / den over the multiple `common` of den."""
    for n, e in common.items():
        if extra := e - den.get(n, 0):
            num = num * ATOMS[n] ** extra
    return num


def frac_sum(parts) -> LocFrac:
    """The sum of the fractions num / prod(atom^e) given as (num Poly, den
    dict) pairs, which need not be normalized.  The nonzero parts are lifted
    to the lcm of their denominators, their terms added into one dict, and
    the sum normalized once."""
    parts = [(num, den) for num, den in parts if num.terms]
    common = {}
    for _, den in parts:
        for n, e in den.items():
            if e > common.get(n, 0):
                common[n] = e
    t = {}
    for num, den in parts:
        for m, c in _lift(num, den, common).terms.items():
            s = t.get(m)
            t[m] = c if s is None else s + c
    return _frac(_poly({m: _coeff(c) for m, c in t.items() if c}), common)


def _coerce_frac(x):
    t = type(x)
    if t is LocFrac:
        return x
    if t in (Poly, int, Fraction) or isinstance(x, (Poly, int, Fraction)):
        return _frac(_coerce(x), {})
    return x if isinstance(x, LocFrac) else NotImplemented


def _cancel_atom(p: Poly, name: str, most=inf):
    """(p / atom**k, k) for the largest k <= most with atom**k dividing the
    nonzero p.  A variable atom cancels by subtracting k, the least exponent
    of the variable over p's terms; a binomial one by exact division."""
    if name not in _VARIABLE_ATOMS:
        # a binomial atom never divides a one-term polynomial
        k = 0
        while k < most and len(p.terms) > 1 and (q := p.div_exact(ATOMS[name])) is not None:
            p, k = q, k + 1
        return p, k
    k = most
    for m in p.terms:
        for n, e in m:
            if n == name:
                k = min(k, e)
                break
        else:
            return p, 0
    return _poly({
        tuple((n, e - k if n == name else e) for n, e in m if n != name or e != k): c
        for m, c in p.terms.items()
    }), k


def _normalize(num: Poly, den: dict):
    if num.is_zero():
        return num, {}
    out = {}
    for name, e in den.items():
        num, k = _cancel_atom(num, name, e)
        if e > k:
            out[name] = e - k
    return num, out


def _extract_atoms(p: Poly):
    """Write p as c * prod(atom^e).  Returns (c, exponents) on success and
    (None, irreducible-residual) otherwise."""
    if p.is_zero():
        return 0, {}
    exps = {}
    for name in ATOM_ORDER:
        p, k = _cancel_atom(p, name)
        if k:
            exps[name] = k
    c = p.as_constant()
    if c is None:
        return None, p
    return c, exps


# ---------------------------------------------------------------------------
# Fraction-free elimination and exact linear solving
# ---------------------------------------------------------------------------


def eliminate(m) -> list:
    """Forward fraction-free (Bareiss) elimination of the rows m, in place.

    Works over int and over Poly: every update (m_ij p - m_ic m_kj) // prev
    is exact by Sylvester's identity.  A zero pivot swaps in a lower row; a
    column with no pivot is skipped.  Only entries right of each pivot are
    updated, so entries left of a row's pivot are stale and read as zero.
    Returns the pivot columns cols.  The pivot m[k][cols[k]] is the minor
    of the input on its first k + 1 rows (after the swaps) and columns
    cols[0..k].
    """
    cols, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        k = len(cols)
        r = next((r for r in range(k, len(m)) if m[r][c]), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        top, pv = m[k], m[k][c]
        for row in m[k + 1:]:
            f = row[c]
            for j in range(c + 1, len(row)):
                v = row[j] * pv - f * top[j]
                # prev is still the initial 1 at the first pivot: no division
                row[j] = v // prev if k else v
        cols.append(c)
        prev = pv
    return cols


def _clear_rows(matrix, rhs):
    """Multiply each row by its denominator lcm; returns Poly matrix/rhs."""
    cleared = []
    vec = []
    for row, b in zip(matrix, rhs):
        lcm: dict = {}
        for entry in (*row, b):
            for n, e in entry.den.items():
                lcm[n] = max(lcm.get(n, 0), e)
        cleared.append([_lift(entry.num, entry.den, lcm) for entry in row])
        vec.append(_lift(b.num, b.den, lcm))
    return cleared, vec


def _blocks(a):
    """The connected blocks of the graph joining row i to column j where
    a[i][j] is nonzero, as (rows, columns) pairs of sorted index lists.  A
    zero row is a block without columns; a zero column belongs to none."""
    cols_of = [{j for j, entry in enumerate(row) if entry} for row in a]
    out, seen = [], set()
    for start in range(len(a)):
        if start in seen:
            continue
        seen.add(start)
        rows, cols = [start], set(cols_of[start])
        while grown := [i for i in range(len(a)) if i not in seen and cols_of[i] & cols]:
            for i in grown:
                seen.add(i)
                rows.append(i)
                cols |= cols_of[i]
        out.append((sorted(rows), sorted(cols)))
    return out


def _sign(order) -> int:
    """The sign of the permutation that sorts the distinct integers `order`."""
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1:])
    return -1 if inversions % 2 else 1


def linear_solve(matrix, rhs, nonzero):
    """Solve matrix @ x == rhs exactly over the localized ring, block by block.

    The rows are cleared of denominators and split into the connected blocks
    of their row/column incidence graph (`_blocks`); the shipped 12x12 system
    is four 3x3 blocks.  A block with more rows than columns, or fewer, makes
    the matrix singular.  `eliminate` on a block's augmented rows leaves an
    upper-triangular U, a right-hand side c and the block determinant d =
    u_kk of the rows in their swapped order.  Back substitution stays in the
    polynomial ring, y_i = (d c_i - sum_{j>i} u_ij y_j) / u_ii, and x = y / d.
    The determinant of the matrix is the product of the block determinants
    times the signs of the row order (blocks in turn, each after its swaps)
    and of the column order.

    The determinant must be a unit (rational times atom monomial) whose atoms
    all lie in `nonzero`, the atoms declared nonzero; a zero determinant raises
    SingularMatrixError, any other NonUnitError with the offending factor or
    atoms.  The returned solution satisfies the system exactly.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise AlgebraError("linear_solve expects a square system")
    a, b = _clear_rows(matrix, rhs)
    eliminated, row_order, col_order = [], [], []
    det = Poly.const(1)
    for rows, cols in _blocks(a):
        k = len(cols)
        m = [[a[i][j] for j in cols] + [b[i]] for i in rows]
        index = {id(row): i for i, row in zip(rows, m)}
        if len(rows) != k or eliminate(m)[:k] != list(range(k)):
            raise SingularMatrixError("singular matrix", determinant=Poly.zero())
        row_order += [index[id(row)] for row in m]
        col_order += cols
        eliminated.append((cols, m))
        det = det * m[k - 1][k - 1]
    if _sign(row_order) != _sign(col_order):
        det = -det
    c, exps = _extract_atoms(det)
    if c is None:
        raise NonUnitError(
            f"determinant has a factor outside the atom set: {exps}", factor=exps
        )
    undeclared = [name for name in exps if name not in nonzero]
    if undeclared:
        raise NonUnitError(
            f"determinant {det} divides by atoms not declared nonzero: {', '.join(undeclared)}",
            factor=undeclared,
        )
    xs = [None] * n
    for cols, m in eliminated:
        k = len(cols)
        d = m[k - 1][k - 1]
        y = [None] * k
        for i in reversed(range(k)):
            acc = d * m[i][k]
            for j in range(i + 1, k):
                acc = acc - m[i][j] * y[j]
            y[i] = acc // m[i][i]
        inv = LocFrac(d).inverse()
        for j, yj in zip(cols, y):
            xs[j] = LocFrac(yj) * inv
    for row, bi in zip(matrix, rhs):
        products = [entry * x for entry, x in zip(row, xs) if entry]
        if frac_sum([*((p.num, p.den) for p in products), (-bi.num, bi.den)]):
            raise AlgebraError("linear_solve residual is nonzero")
    return xs


# ---------------------------------------------------------------------------
# Positivity certificates
# ---------------------------------------------------------------------------


def sos_certificate(p: Poly):
    """Exact decomposition p = sum c_k q_k^2 with positive rational c_k, as a
    list of (c_k, q_k), or None when the ansatz below gives none.

    The basis b is the halves of p's even monomials in graded-lex order, and
    p = b^T G b for a symmetric Gram matrix G: a positive even term sits on
    the diagonal, any other term on the first off-diagonal pair whose product
    is its monomial.  With s the lcm of G's denominators, `eliminate` on s G
    gives pivots d_k and pivot rows u_k (zero left of the pivot), and when G
    is positive semidefinite s G = sum_k u_k^T u_k / (d_{k-1} d_k), d_{-1} = 1,
    an exact rational LDL^T.  So c_k = d_k / (s d_{k-1}) and
    q_k = (u_k . b) / d_k; the identity is checked exactly before it is
    returned.
    """
    even = sorted((m for m in p.terms if all(e % 2 == 0 for _, e in m)), key=_grlex_key)
    halves = [tuple((v, e // 2) for v, e in m) for m in even]
    n = len(halves)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for m, c in p.terms.items():
        if c > 0 and m in even:
            i = j = even.index(m)
        else:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if mono_mul(halves[i], halves[j]) == m), None)
            if pair is None:
                return None
            i, j = pair
            c = _quotient(c, 2)
        gram[i][j] = gram[j][i] = c
    scale = lcm(*(x.denominator for row in gram for x in row))
    u = [[x.numerator * (scale // x.denominator) for x in row] for row in gram]
    out, prev = [], 1
    for k, col in enumerate(eliminate(u)):
        pivot = u[k][col]
        q = Poly({halves[j]: Fraction(u[k][j], pivot) for j in range(col, n)})
        out.append((Fraction(pivot, scale * prev), q))
        prev = pivot
    return out if _verify_sos(p, out) else None


def _verify_sos(p: Poly, decomposition) -> bool:
    acc = Poly.zero()
    for c, q in decomposition:
        if c <= 0:
            return False
        acc = acc + Poly.const(c) * q * q
    return acc == p
