"""Machine form of the frame formalism: the u(2)-patterned connection matrix,
the shipped exterior system, torsion and curvature residuals, Lie brackets,
covariant derivatives, and the line-oriented EDS text format.

Index conventions: grid[k][l] with 1-based accessors gamma(j, k) = the
connection 1-form with lower index j and upper index k; the displayed pattern
is rows = upper index, columns = lower index:

    [ 0   E   F   G ]
    [-E   0  -G   F ]          E = (S+L)/2,  H = (S-L)/2,
    [-F   G   0   H ]          L = E-H,      S = E+H.
    [-G  -F  -H   0 ]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Mapping, Sequence

from .algebra import LocFrac, Poly
from .equations import curvature_table
from .forms import (
    COFRAME,
    DForm,
    FormBasis,
    FormError,
    RuleSystem,
    ext_d,
    substitute_one_forms,
    wedge,
)
from .jets import JetContext, standard_context

DATA_FILE = "weakly-einstein.eds"

#: file-name -> internal scalar symbol
SCALAR_NAMES = {"lambda": "lam", "sigma": "sig"}
ATOM_NAMES = {
    "lambda": "lam",
    "sigma": "sig",
    "mu+": "mu+",
    "mu-": "mu-",
    "lambda3": "lam3",
}


def check(checks: list, check_id: str, label: str, ok: bool, detail: str = "") -> bool:
    """Append one report record {id, label, status, detail}; returns ok."""
    checks.append(
        {"id": check_id, "label": label, "status": "pass" if ok else "fail", "detail": detail}
    )
    return ok


class EdsParseError(Exception):
    """Syntax or consistency error in an EDS file, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class Equation:
    """A labeled polynomial constraint in cleared-denominator normal form."""

    label: str
    poly: Poly
    provenance: dict = field(default_factory=dict)


class StructureSystem(RuleSystem):
    """Frame declaration plus rewrite rules for d of each basis 1-form."""

    def __init__(
        self,
        basis: FormBasis,
        ctx: JetContext,
        d_rules: Mapping[str, DForm],
        nonzero: Sequence[str],
    ):
        super().__init__(basis, ctx, d_rules)
        self.frame_names = basis.names[:4]
        self.nonzero = tuple(nonzero)

    def one_form(self, name: str) -> DForm:
        return DForm.one_form(self.basis, name)

    # E and H are macros over S and L, never independent symbols
    def form_E(self) -> DForm:
        half = Fraction(1, 2)
        return self.one_form("S").scale(half) + self.one_form("L").scale(half)

    def form_H(self) -> DForm:
        half = Fraction(1, 2)
        return self.one_form("S").scale(half) + self.one_form("L").scale(-half)

    @cached_property
    def connection(self):
        """The connection grid (`build_connection`), built once per system."""
        return build_connection(self.form_E(), self.one_form("F"), self.one_form("G"), self.form_H())

    def component_rules(self, comp_map: Mapping[str, DForm], names) -> RuleSystem:
        """The d-rules of `names` with auxiliary 1-forms expanded in components."""
        rules = {name: substitute_one_forms(self.d_rule(name), comp_map) for name in names}
        return RuleSystem(self.basis, self.ctx, rules)

    def free_components(self) -> dict[str, DForm]:
        """F = F_i e^i and friends, with free component symbols."""
        out = {}
        for name in ("F", "G", "L", "S"):
            out[name] = DForm(
                self.basis, 1, {(i,): self.ctx.symbol(f"{name}{i + 1}") for i in range(4)}
            )
        return out


# ---------------------------------------------------------------------------
# Connection pattern (the u(2)-valued matrix) and its characterization
# ---------------------------------------------------------------------------


def build_connection(E: DForm, F: DForm, G: DForm, H: DForm):
    """4x4 grid of 1-forms, grid[k-1][j-1] = Gamma_j^k, in the displayed pattern."""
    basis = E.basis
    zero = DForm(basis, 1)
    return [
        [zero, E, F, G],
        [-E, zero, -G, F],
        [-F, G, zero, H],
        [-G, -F, -H, zero],
    ]


def gamma(grid, j: int, k: int) -> DForm:
    """Gamma_j^k (lower j, upper k), 1-based."""
    return grid[k - 1][j - 1]


# full commutation conditions for nabla J = 0: with J e_j = s_j e_{m(j)},
# m = (2,1,4,3) and s = (+,-,+,-), every slot satisfies
# Gamma_{m(j)}^{m(k)} = s_j s_k Gamma_j^k.  Restricted to skew grids this is
# the familiar cross-plane rule Gamma_j^k = (-1)^{j+k} Gamma_p^q for
# {{j,p},{k,q}} = {{1,2},{3,4}}.
_J_MAP = (2, 1, 4, 3)
_J_SIGNS = (1, -1, 1, -1)

_J_RELATIONS = [
    (_J_MAP[j - 1], _J_MAP[k - 1], j, k, _J_SIGNS[j - 1] * _J_SIGNS[k - 1])
    for j in range(1, 5)
    for k in range(1, 5)
]


def verify_parallel_g_J(grid, checks: list):
    """Record connection-pattern: the grid solves nabla g = 0 and
    nabla J = 0, and those equations admit exactly the displayed pattern
    (the free 1-forms of `_pattern_classes`, four)."""
    # nabla g = 0: skew-symmetry in (j, k), the diagonal (k = j) included
    skew = all((gamma(grid, j, k) + gamma(grid, k, j)).is_zero()
               for j in range(1, 5) for k in range(j, 5))
    # nabla J = 0: signed identifications under conjugation by J
    commutes = all((gamma(grid, j, k) - sign * gamma(grid, p, q)).is_zero()
                   for j, k, p, q, sign in _J_RELATIONS)
    check(checks, "connection-pattern", "mtx", skew and commutes,
          f"free 1-forms: {len(_pattern_classes())}")


def _pattern_classes():
    """Solve the nabla g / nabla J relations on 16 free slots; the solution
    set must be spanned by E, F, G, H.

    The relations identify each slot with its images under two signed
    involutions: (j, k) -> (k, j) with sign -1, and (j, k) -> (m(j), m(k))
    with sign s_j s_k.  So each orbit is one free 1-form, keyed by its lowest
    slot with signs relative to it, unless a slot is reached with both signs:
    then the orbit is zero (the diagonal is, by the first involution).
    """
    out, seen = {}, set()
    for start in [(j, k) for j in range(1, 5) for k in range(1, 5)]:
        if start in seen:
            continue
        signs, todo, zero = {start: 1}, [start], False
        while todo:
            j, k = slot = todo.pop()
            conj = ((_J_MAP[j - 1], _J_MAP[k - 1]), _J_SIGNS[j - 1] * _J_SIGNS[k - 1])
            for image, rel in (((k, j), -1), conj):
                s = signs[slot] * rel
                if image not in signs:
                    signs[image] = s
                    todo.append(image)
                zero = zero or signs[image] != s
        seen |= signs.keys()
        if not zero:
            out[start] = sorted(signs.items())
    return out


# ---------------------------------------------------------------------------
# Torsion, curvature, brackets, covariant derivatives
# ---------------------------------------------------------------------------


def grid_rules(sys: StructureSystem) -> RuleSystem:
    """The coframe rules the connection grid implies, d e^k = sum_j e^j ^ Gamma_j^k.

    Only the coframe has rules here: the exterior derivative of a coframe form
    under them is its covariant derivative, with the connection 1-form factor
    wedged on the left (nabla e^k = -Gamma_j^k tensor e^j, and a torsion-free
    nabla extends to forms by the Leibniz rule of d)."""
    grid = sys.connection
    rules = {}
    for k, name in enumerate(COFRAME, start=1):
        rule = DForm(sys.basis, 2)
        for j, lower in enumerate(COFRAME, start=1):
            rule = rule + wedge(sys.one_form(lower), gamma(grid, j, k))
        rules[name] = rule
    return RuleSystem(sys.basis, sys.ctx, rules)


def torsion_equations(sys: StructureSystem):
    """Residuals d e^k - e^j ^ Gamma_j^k for k = 1..4 (zero iff torsion-free):
    the system's coframe rules minus `grid_rules`."""
    implied = grid_rules(sys)
    return [sys.d_rule(name) - implied.d_rule(name) for name in COFRAME]


def curvature_forms(sys: StructureSystem):
    """R_k^l = -d Gamma_k^l + Gamma_k^p ^ Gamma_p^l as a 4x4 grid of 2-forms."""
    grid = sys.connection
    out = []
    for k in range(1, 5):
        row = []
        for l in range(1, 5):
            r = -ext_d(gamma(grid, k, l), sys)
            for p in range(1, 5):
                r = r + wedge(gamma(grid, k, p), gamma(grid, p, l))
            row.append(r)
        out.append(row)
    return out


def expected_curvature(sys: StructureSystem):
    """The curvature 2-forms the last four exterior equations encode,
    R_k^l = sum_{i<j} T_klij e^i ^ e^j over equations.curvature_table."""
    T = curvature_table()
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return [
        [DForm(sys.basis, 2, {(i, j): T[k][l][i][j] for i, j in pairs}) for l in range(4)]
        for k in range(4)
    ]


def lie_bracket(i: int, j: int, rules: RuleSystem):
    """Coefficients of [e_i, e_j] on the frame, from 2 d e^k = -C_ij^k e^i ^ e^j,
    read off `rules`: coframe d-rules with the 1-forms expanded in components."""
    if i == j:
        return [LocFrac(Poly.zero())] * 4
    out = []
    for name in COFRAME:
        c = rules.d_rule(name).coefficient(COFRAME[i - 1], COFRAME[j - 1])  # on e^min ^ e^max
        out.append(c if i > j else -c)
    return out


def verify_covariant_derivatives(sys: StructureSystem, checks: list):
    """Record covariant-derivatives: nabla A = -(E^B + F^C + G^D) and the
    eigenform rules nabla zeta = 2 G^eta - 2 F^theta, nabla eta =
    -2 G^zeta + L^theta and nabla theta = 2 F^zeta - L^eta, each nabla taken
    as `ext_d` under `grid_rules` and each 1-form factor written on the left
    (the factor is an auxiliary 1-form, the rest coframe forms, so the wedge
    is faithful).  A failure names each nabla that differs."""
    A, B, C, D = (sys.one_form(n) for n in COFRAME)
    E, F, G, L = sys.form_E(), sys.one_form("F"), sys.one_form("G"), sys.one_form("L")
    zeta = -wedge(A, B) + wedge(C, D)
    eta = -wedge(A, C) + wedge(D, B)
    theta = -wedge(A, D) + wedge(B, C)
    expected = {
        "A": (A, -(wedge(E, B) + wedge(F, C) + wedge(G, D))),
        "zeta": (zeta, (wedge(G, eta) - wedge(F, theta)).scale(2)),
        "eta": (eta, wedge(G, zeta).scale(-2) + wedge(L, theta)),
        "theta": (theta, wedge(F, zeta).scale(2) - wedge(L, eta)),
    }
    rules = grid_rules(sys)
    failures = [
        f"nabla {name}"
        for name, (form, nabla) in expected.items()
        if not (ext_d(form, rules) - nabla).is_zero()
    ]
    check(checks, "covariant-derivatives", "lmn", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# EDS text format
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\d+(/\d+)?")


def _tokenize(line: str, lineno: int):
    tokens = []
    col = 0
    n = len(line)
    while col < n:
        ch = line[col]
        if ch.isspace():
            col += 1
            continue
        if ch == "#":
            break
        if ch in "+-=^":
            tokens.append((ch, col + 1))
            col += 1
            continue
        m = _NUM_RE.match(line, col)
        if m:
            tokens.append((m.group(0), col + 1))
            col = m.end()
            continue
        m = _NAME_RE.match(line, col)
        if m:
            tokens.append((m.group(0), col + 1))
            col = m.end()
            continue
        raise EdsParseError(f"unexpected character {ch!r}", lineno, col + 1)
    return tokens


class _LineParser:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def col(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, what):
        if self.peek() != what:
            raise EdsParseError(f"expected {what!r}", self.lineno, self.col())
        return self.take()

    def error(self, msg):
        raise EdsParseError(msg, self.lineno, self.col())


def _parse_sum(p: _LineParser, basis: FormBasis, scalars, macros, ctx, degree):
    """sum := [sign] term (sign term)*; term := (rational|scalar)* form(^form)*"""
    total = DForm(basis, degree)
    first = True
    while True:
        tok = p.peek()
        if tok is None:
            if first:
                p.error("empty expression")
            return total
        sign = 1
        if tok in "+-":
            p.take()
            sign = -1 if tok == "-" else 1
        elif not first:
            p.error("expected '+' or '-' between terms")
        coeff = LocFrac(Poly.const(sign))
        wedge_names = []
        saw_factor = False
        while True:
            tok = p.peek()
            if tok is None:
                break
            if tok in "+-":
                if not wedge_names and not saw_factor:
                    p.error("dangling sign")
                break
            if _NUM_RE.fullmatch(tok):
                if wedge_names:
                    p.error("scalar factor after a wedge chain")
                try:
                    q = Fraction(tok)
                except ZeroDivisionError:
                    p.error(f"zero denominator in {tok!r}")
                p.take()
                coeff = coeff * LocFrac(Poly.const(q))
                saw_factor = True
                continue
            if tok == "^":
                col = p.col()
                p.take()
                nxt = p.peek()
                if nxt is None or not _NAME_RE.fullmatch(nxt):
                    raise EdsParseError("dangling wedge", p.lineno, col + 1)
                if not wedge_names:
                    p.error("wedge without a left operand")
                name = p.take()[0]
                wedge_names.append(name)
                continue
            if _NAME_RE.fullmatch(tok):
                if tok in scalars:
                    if wedge_names:
                        p.error("scalar factor after a wedge chain")
                    p.take()
                    coeff = coeff * ctx.symbol(scalars[tok])
                    saw_factor = True
                    continue
                if wedge_names:
                    p.error("missing '^' between 1-forms")
                p.take()
                wedge_names.append(tok)
                continue
            p.error(f"unexpected token {tok!r}")
        # build the wedge chain
        form = DForm.scalar(basis, coeff)
        for name in wedge_names:
            if name in macros:
                factor = macros[name]
            elif name in basis:
                factor = DForm.one_form(basis, name)
            else:
                p.error(f"unknown 1-form {name!r}")
            form = wedge(form, factor)
        if form.degree != degree:
            p.error(f"term has degree {form.degree}, rule needs degree {degree}")
        total = total + form
        first = False
        if p.peek() is None:
            return total


def parse_eds(text: str) -> StructureSystem:
    """Parse the EDS text format into a StructureSystem."""
    ctx = standard_context()
    frame = None
    scalars: dict[str, str] = {}
    oneforms: list[str] = []
    nonzero: list[str] = []
    macros: dict[str, DForm] = {}
    rules: dict[str, DForm] = {}
    basis = None
    pending_rules = []  # (lineno, tokens) until declarations are in

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head, headcol = tokens[0]
        p = _LineParser(tokens, lineno)
        if head == "frame":
            p.take()
            names = []
            while p.peek() is not None:
                names.append(p.take()[0])
            if tuple(names) != COFRAME:
                raise EdsParseError("frame must declare exactly A B C D", lineno, headcol)
            frame = tuple(names)
        elif head == "scalars":
            p.take()
            while p.peek() is not None:
                tok, col = p.take()
                if tok not in SCALAR_NAMES:
                    raise EdsParseError(f"unknown scalar {tok!r}", lineno, col)
                scalars[tok] = SCALAR_NAMES[tok]
        elif head == "oneforms":
            p.take()
            while p.peek() is not None:
                tok, col = p.take()
                if not _NAME_RE.fullmatch(tok):
                    raise EdsParseError(f"bad 1-form name {tok!r}", lineno, col)
                if tok in COFRAME or tok in oneforms:
                    raise EdsParseError(f"1-form {tok!r} is declared twice", lineno, col)
                if tok in SCALAR_NAMES:
                    raise EdsParseError(f"1-form {tok!r} is named after a scalar", lineno, col)
                oneforms.append(tok)
        elif head == "nonzero":
            # raw word split: atom names may carry '+'/'-'
            for m in list(re.finditer(r"\S+", raw.split("#", 1)[0]))[1:]:
                word = m.group()
                if word not in ATOM_NAMES:
                    raise EdsParseError(f"unknown nonzero atom {word!r}", lineno, m.start() + 1)
                nonzero.append(ATOM_NAMES[word])
        elif head in ("macro", "d"):
            pending_rules.append((lineno, tokens, head))
        else:
            raise EdsParseError(f"unknown directive {head!r}", lineno, headcol)

    if frame is None:
        raise EdsParseError("missing frame declaration", len(lines) or 1, 1)
    basis = FormBasis(frame + tuple(oneforms))

    for lineno, tokens, head in pending_rules:
        p = _LineParser(tokens, lineno)
        p.take()
        tok = p.peek()
        if tok is None or not _NAME_RE.fullmatch(tok):
            p.error("expected a form name")
        name, namecol = p.take()
        if head == "macro":
            p.expect("=")
            if name in basis or name in macros:
                raise EdsParseError(f"macro {name!r} shadows a declared form", lineno, namecol)
            macros[name] = _parse_sum(p, basis, scalars, macros, ctx, 1)
        else:
            if name not in basis:
                raise EdsParseError(f"d-rule for undeclared form {name!r}", lineno, namecol)
            if name in rules:
                raise EdsParseError(f"duplicate d-rule for {name!r}", lineno, namecol)
            p.expect("=")
            rules[name] = _parse_sum(p, basis, scalars, macros, ctx, 2)

    return StructureSystem(basis, ctx, rules, nonzero)


_ATOM_BACK = {v: k for k, v in ATOM_NAMES.items()}
_SCALAR_BACK = {v: k for k, v in SCALAR_NAMES.items()}


def _serialize_coeff(c: LocFrac):
    """(sign-free text factors, sign) for a coefficient of the canonical form
    q * scalar-product; raises when the coefficient is not of that shape."""
    if c.den:
        raise FormError("cannot serialize a coefficient with denominator")
    term = c.num.as_term()
    if term is None:
        raise FormError(f"cannot serialize coefficient {c}")
    q, mono = term
    sign = "-" if q < 0 else "+"
    q = abs(q)
    factors = []
    if q != 1:
        factors.append(str(q))
    for name, e in mono:
        pretty = _SCALAR_BACK.get(name, name)
        factors.extend([pretty] * e)
    return factors, sign


def serialize(sys: StructureSystem) -> str:
    """Canonical text form; parse(serialize(sys)) reproduces the system and the
    shipped file is exactly this serialization of itself."""
    lines = [
        "frame " + " ".join(sys.frame_names),
        "scalars lambda sigma",
        "oneforms " + " ".join(sys.basis.names[4:]),
        "nonzero " + " ".join(_ATOM_BACK[a] for a in sys.nonzero),
    ]
    for name in sys.basis.names:
        if name not in sys.d_rules:
            continue
        form = sys.d_rules[name]
        pieces = []
        for idx in sorted(form.terms):
            factors, sign = _serialize_coeff(form.terms[idx])
            factors.append("^".join(sys.basis.names[i] for i in idx))
            term = " ".join(factors)
            if not pieces:
                pieces.append(term if sign == "+" else "-" + term)
            else:
                pieces.append(f"{sign} {term}")
        lines.append(f"d {name} = " + " ".join(pieces))
    return "\n".join(lines) + "\n"


def load_system(path=None) -> StructureSystem:
    """Parse the shipped weakly-einstein.eds (or a caller-supplied file)."""
    if path is None:
        data = resources.files("edsverify").joinpath("data", DATA_FILE).read_bytes()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return parse_eds(_decode(data))


def _decode(data: bytes) -> str:
    """`data` as UTF-8 text; a bad byte is an EdsParseError at its line and
    column, counted as `parse_eds` counts them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; a stand-in for the byte ends it
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise EdsParseError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8", len(lines), len(lines[-1])
        ) from None
