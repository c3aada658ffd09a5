import ast
import random
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest

from edsverify import algebra
from edsverify.algebra import (
    ATOMS,
    AlgebraError,
    LocFrac,
    NonUnitError,
    Poly,
    SingularMatrixError,
    linear_solve,
)

from conftest import VARS, random_locfrac, random_poly

lam = Poly.var("lam")
sig = Poly.var("sig")
lam3 = Poly.var("lam3")
mup = ATOMS["mu+"]
mum = ATOMS["mu-"]


def test_common_denominator_identity():
    a = LocFrac(lam, {"sig": 1})
    b = LocFrac(sig, {"lam": 1})
    assert a + b == LocFrac(lam**2 + sig**2, {"lam": 1, "sig": 1})


def test_mu_product():
    # mu* = mu+ mu- = 4 sig^2 - lam^2
    assert mup * mum == 4 * sig**2 - lam**2


def test_additive_inverse_100_random():
    rng = random.Random(12)
    for _ in range(100):
        a = random_locfrac(rng)
        assert (a + (-a)).is_zero()


def test_ring_axioms_1000_random_triples():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (random_locfrac(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_atom_divide_monomial():
    assert LocFrac(8 * lam * sig * lam3) / LocFrac(lam) == LocFrac(8 * sig * lam3)


def test_atom_divide_case_quartic():
    quartic = lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4
    value = LocFrac(512 * lam**2 * sig**2 * quartic) / LocFrac(lam**2)
    assert value == LocFrac(512 * sig**2 * quartic)


def test_atom_divide_keeps_denominator():
    value = LocFrac(lam + sig) / LocFrac(lam)
    assert value.den == {"lam": 1}
    assert value.num == lam + sig


def test_atom_divide_rejects_unregistered():
    with pytest.raises(NonUnitError):
        LocFrac(lam) / LocFrac(Poly.var("lam1"))


def test_atom_divide_inverts_multiplication():
    rng = random.Random(3)
    for _ in range(50):
        a = random_locfrac(rng)
        scaled = a * LocFrac(ATOMS["mu+"] ** 2)
        assert scaled / LocFrac(ATOMS["mu+"] ** 2) == a


def test_locfrac_normal_form_cancels_atoms():
    v = LocFrac(mup * mum, {"mu+": 1, "mu-": 1})
    assert v == LocFrac(Poly.const(1))
    assert not v.den


def test_cross_multiplication_equality():
    a = LocFrac(lam * sig, {"sig": 2})
    b = LocFrac(lam, {"sig": 1})
    assert a == b


def test_linear_solve_two_by_two_block():
    lam1 = Poly.var("lam1")
    matrix = [[LocFrac(mup), LocFrac(mum)], [LocFrac(mum), LocFrac(mup)]]
    rhs = [LocFrac(lam1), LocFrac(Poly.zero())]
    x = linear_solve(matrix, rhs, ATOMS)
    eighth = Fraction(1, 8)
    assert x[0] == LocFrac(mup * lam1 * eighth, {"lam": 1, "sig": 1})
    assert x[1] == LocFrac(-mum * lam1 * eighth, {"lam": 1, "sig": 1})


def test_linear_solve_zero_leading_pivot():
    # the first column's pivot is zero, so elimination must swap rows
    matrix = [[LocFrac(Poly.zero()), LocFrac(lam)], [LocFrac(sig), LocFrac(Poly.zero())]]
    rhs = [LocFrac(sig), LocFrac(lam3)]
    x = linear_solve(matrix, rhs, ATOMS)
    assert x[0] == LocFrac(lam3, {"sig": 1})
    assert x[1] == LocFrac(sig, {"lam": 1})


def test_linear_solve_identity():
    rng = random.Random(5)
    rhs = [random_locfrac(rng) for _ in range(3)]
    eye = [
        [LocFrac(Poly.const(1 if i == j else 0)) for j in range(3)]
        for i in range(3)
    ]
    assert linear_solve(eye, rhs, ATOMS) == rhs


def test_linear_solve_singular_rank_deficient():
    rhs = [LocFrac(lam), LocFrac(sig)]
    matrix = [[LocFrac(lam), LocFrac(sig)], [LocFrac(lam), LocFrac(sig)]]
    with pytest.raises(SingularMatrixError) as err:
        linear_solve(matrix, rhs, ATOMS)
    assert err.value.determinant.is_zero()


def test_linear_solve_non_unit_determinant():
    # determinant lam + sig is nonzero but outside the atom monoid
    matrix = [[LocFrac(lam + sig)]]
    with pytest.raises(NonUnitError):
        linear_solve(matrix, [LocFrac(lam)], ATOMS)


def test_linear_solve_refuses_a_determinant_with_an_undeclared_atom():
    # the determinant is lam sig (the zero-leading-pivot system): both atoms must be allowed
    matrix = [[LocFrac(Poly.zero()), LocFrac(lam)], [LocFrac(sig), LocFrac(Poly.zero())]]
    rhs = [LocFrac(sig), LocFrac(lam3)]
    assert linear_solve(matrix, rhs, ("lam", "sig")) == linear_solve(matrix, rhs, ATOMS)
    with pytest.raises(NonUnitError, match="not declared nonzero: sig$") as err:
        linear_solve(matrix, rhs, ("lam", "mu+"))
    assert err.value.factor == ["sig"]


def test_linear_solve_reproduces_rhs():
    # L @ U with unit diagonals, so the determinant is a unit by construction
    rng = random.Random(11)
    zero = LocFrac(Poly.zero())
    diag = [LocFrac(lam), LocFrac(mup), LocFrac(sig)]
    lower = [[zero] * 3 for _ in range(3)]
    upper = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        lower[i][i] = LocFrac(Poly.const(1))
        upper[i][i] = diag[i]
        for j in range(i):
            lower[i][j] = random_locfrac(rng)
            upper[j][i] = random_locfrac(rng)
    matrix = [
        [sum((lower[i][k] * upper[k][j] for k in range(3)), zero) for j in range(3)]
        for i in range(3)
    ]
    rhs = [random_locfrac(rng) for _ in range(3)]
    x = linear_solve(matrix, rhs, ATOMS)
    for i in range(3):
        acc = zero
        for j in range(3):
            acc = acc + matrix[i][j] * x[j]
        assert acc == rhs[i]


def test_div_exact_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).div_exact(b) == a


def test_div_exact_fails_on_non_multiple():
    assert (lam + sig).div_exact(lam * sig) is None


def test_normalized_content():
    p = 6 * lam**2 * sig - 4 * lam * sig**2
    c, mono, prim = p.normalized()
    assert Poly({mono: c}) * prim == p
    assert prim.content() == (Fraction(1), ())


# -- normal form of localized fractions against trial division ---------------


def normalize_by_division(num, den):
    """The reference: cancel each denominator atom by repeated exact division."""
    if num.is_zero():
        return num, {}
    den = dict(den)
    for name in list(den):
        while den[name] > 0:
            q = num.div_exact(ATOMS[name])
            if q is None:
                break
            num = q
            den[name] -= 1
        if den[name] == 0:
            del den[name]
    return num, den


def extract_by_division(p):
    """The reference: divide out each atom, in ATOMS order, while it divides."""
    if p.is_zero():
        return Fraction(0), {}
    exps = {}
    for name in ATOMS:
        while (q := p.div_exact(ATOMS[name])) is not None:
            p = q
            exps[name] = exps.get(name, 0) + 1
    c = p.as_constant()
    return (None, p) if c is None else (c, exps)


def random_atom_multiple(rng):
    """A random base (zero, a constant or a random polynomial) times random
    powers of every atom."""
    constant = Poly.const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    base = rng.choice([Poly.zero(), constant, random_poly(rng)])
    for atom in ATOMS.values():
        base = base * atom ** rng.randint(0, 3)
    return base


def test_normalize_matches_trial_division():
    rng = random.Random(41)
    seen = set()
    for _ in range(400):
        num = random_atom_multiple(rng)
        names = rng.sample(list(ATOMS), rng.randint(0, len(ATOMS)))
        den = {name: rng.randint(1, 4) for name in names}
        got_num, got_den = algebra._normalize(num, den)
        want_num, want_den = normalize_by_division(num, den)
        assert got_num.terms == want_num.terms
        assert list(got_den.items()) == list(want_den.items())
        got_c, got_exps = algebra._extract_atoms(num)
        want_c, want_exps = extract_by_division(num)
        assert got_c == want_c
        if got_c is None:
            assert got_exps.terms == want_exps.terms
        else:
            assert list(got_exps.items()) == list(want_exps.items())
        # record which atoms were cancelled only in part, and which in full
        for name, e in den.items():
            seen.add((name, "part" if name in want_den else "full"))
    assert seen == {(name, kind) for name in ATOMS for kind in ("part", "full")}


@pytest.fixture()
def div_exact_calls(monkeypatch):
    """The divisors of every Poly.div_exact call made while the test runs."""
    calls = []
    div_exact = Poly.div_exact

    def counted(self, divisor):
        calls.append(divisor)
        return div_exact(self, divisor)

    monkeypatch.setattr(Poly, "div_exact", counted)
    return calls


def test_variable_atoms_cancel_without_division(div_exact_calls):
    calls = div_exact_calls
    v = LocFrac(lam**2 * sig * lam3 + 3 * lam * sig**3 * lam3**2, {"lam": 2, "sig": 1, "lam3": 3})
    assert v.num == lam + 3 * sig**2 * lam3
    assert v.den == {"lam": 1, "lam3": 2}
    assert calls == []
    w = LocFrac(mup * lam, {"mu+": 1})
    assert w.num == lam and not w.den
    assert calls


def test_one_term_numerators_skip_binomial_division(div_exact_calls):
    # a binomial atom never divides a monomial, so no trial division is made
    v = LocFrac(3 * lam**2 * sig, {"mu+": 2, "mu-": 1})
    assert v.num == 3 * lam**2 * sig and v.den == {"mu+": 2, "mu-": 1}
    inv = LocFrac(Fraction(-2, 5) * lam * sig**2 * lam3, {"mu-": 1}).inverse()
    assert inv == LocFrac(Fraction(-5, 2) * mum, {"lam": 1, "sig": 2, "lam3": 1})
    assert div_exact_calls == []
    # once the numerator has two terms the binomials are still divided out
    w = LocFrac(mup**2 * mum * lam, {"mu+": 1, "mu-": 2})
    assert w.num == mup * lam and w.den == {"mu-": 1}
    assert div_exact_calls
    c, exps = algebra._extract_atoms(Fraction(7, 3) * mup**2 * mum * sig)
    assert c == Fraction(7, 3) and exps == {"sig": 1, "mu+": 2, "mu-": 1}


# -- monomial order ------------------------------------------------------------


def mono_cmp(a, b):
    """The reference: graded lexicographic order (variables in name order,
    missing = 0) as a comparator."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        na = a[ia][0] if ia < len(a) else None
        nb = b[ib][0] if ib < len(b) else None
        if na == nb:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif nb is None or (na is not None and na < nb):
            return 1
        else:
            return -1
    return 0


ORDER_NAMES = ("lam", "lam1", "lam12", "lam2", "S12", "sig", "sigp")


def test_sort_key_matches_comparator():
    rng = random.Random(23)
    for _ in range(300):
        monos = list(dict.fromkeys(
            tuple(sorted((n, rng.randint(1, 3)) for n in rng.sample(ORDER_NAMES, rng.randint(0, 3))))
            for _ in range(rng.randint(1, 8))
        ))
        want = sorted(monos, key=cmp_to_key(mono_cmp), reverse=True)
        assert sorted(monos, key=algebra._grlex_key) == want
        assert Poly(dict.fromkeys(monos, 1)).leading()[0] == want[0]


def test_leading_and_str_pinned():
    lam1, lam12, lam2 = Poly.var("lam1"), Poly.var("lam12"), Poly.var("lam2")
    s12, sigp = Poly.var("S12"), Poly.var("sigp")
    p = lam2 * sig + lam12 * sig + lam1 * sig + s12 * lam - 3
    assert p.leading() == ((("S12", 1), ("lam", 1)), Fraction(1))
    assert str(p) == "S12*lam + lam1*sig + lam12*sig + lam2*sig - 3"
    q = sigp**2 + 2 * lam * sig + lam**2 - Fraction(1, 2) * lam12**3
    assert q.leading() == ((("lam12", 3),), Fraction(-1, 2))
    assert str(q) == "-1/2*lam12^3 + lam^2 + 2*lam*sig + sigp^2"
    r = lam1 * lam2 - lam**2 + sig
    assert r.leading() == ((("lam", 2),), Fraction(-1))
    assert str(r) == "-lam^2 + lam1*lam2 + sig"


# -- shared fraction-free elimination against Fraction Gaussian elimination --


def gauss_reference(rows):
    """The reference: Gaussian elimination over Fraction, taking the first
    nonzero row as pivot.  Returns the pivot columns, the pivots, and whether
    a zero pivot forced a row swap."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols, pivots, swapped = [], [], False
    for c in range(len(m[0]) if m else 0):
        k = len(cols)
        r = next((r for r in range(k, len(m)) if m[r][c]), None)
        if r is None:
            continue
        swapped |= r != k
        m[k], m[r] = m[r], m[k]
        for i in range(k + 1, len(m)):
            f = m[i][c] / m[k][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        cols.append(c)
        pivots.append(m[k][c])
    return cols, pivots, swapped


def solve_reference(matrix, rhs):
    """The reference: Gauss-Jordan elimination over Fraction of a nonsingular
    system."""
    m = [row + [b] for row, b in zip(matrix, rhs)]
    n = len(m)
    for k in range(n):
        r = next(r for r in range(k, n) if m[r][k])
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return [row[n] for row in m]


def random_integer_matrix(rng, rows, cols):
    """A random small integer matrix, at times with a zero column, a row
    that is a multiple of another, or a zero in the top-left corner."""
    m = [[rng.randint(-4, 4) if rng.random() < 0.8 else 0 for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0
    if rows > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        q = rng.choice([-2, -1, 2, 3])
        m[i] = [q * x for x in m[j]]
    if rng.random() < 0.3:
        m[0][0] = 0
    return m


def test_eliminate_matches_fraction_reference():
    rng = random.Random(61)
    # column 1 has no pivot; columns 2 and 4 each need a row swap
    skipped_and_swapped = [[0, 0, 1, 6], [0, 1, 2, 0], [0, 1, 2, 0], [0, -18, 315, 7]]
    inputs = [skipped_and_swapped]
    inputs += [random_integer_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300)]
    seen = set()
    for ints in inputs:
        want_cols, want_pivots, swapped = gauss_reference(ints)
        m = [list(row) for row in ints]
        cols = algebra.eliminate(m)
        assert cols == want_cols
        # the k-th Bareiss pivot is the k-th leading minor: the product of
        # the first k + 1 Gaussian pivots
        minor = Fraction(1)
        for k, (c, g) in enumerate(zip(cols, want_pivots)):
            minor *= g
            assert m[k][c] == minor
        width = len(ints[0])
        seen.add("swap" if swapped else "no-swap")
        seen.add("deficient" if len(cols) < min(len(ints), width) else "full")
        if any(not any(row[c] for row in ints) for c in range(width)):
            seen.add("zero-column")
    assert seen == {"swap", "no-swap", "deficient", "full", "zero-column"}


def test_eliminate_skips_division_before_the_first_pivot(div_exact_calls):
    m = [[lam, sig, Poly.const(1)], [sig, lam3, lam]]
    assert algebra.eliminate(m) == [0, 1]
    assert m[1][1:] == [lam * lam3 - sig**2, lam**2 - sig]
    assert div_exact_calls == []


def test_linear_solve_matches_fraction_reference():
    rng = random.Random(67)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        ints = random_integer_matrix(rng, n, n)
        matrix = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in ints]
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        system = [[LocFrac(Poly.const(x)) for x in row] for row in matrix]
        values = [LocFrac(Poly.const(b)) for b in rhs]
        cols, _, swapped = gauss_reference(matrix)
        if len(cols) < n:
            seen.add("singular")
            with pytest.raises(SingularMatrixError) as err:
                linear_solve(system, values, ATOMS)
            assert err.value.determinant.is_zero()
            continue
        seen.add("swap" if swapped else "no-swap")
        got = linear_solve(system, values, ATOMS)
        assert got == [LocFrac(Poly.const(x)) for x in solve_reference(matrix, rhs)]
    assert seen == {"singular", "swap", "no-swap"}


# -- canonical coefficients: an int when integral, else a Fraction -------------


def assert_canonical(*values):
    """Every stored coefficient of the Polys and LocFracs given is an int or
    a Fraction with denominator > 1."""
    for v in values:
        for c in (v.num if isinstance(v, LocFrac) else v).terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (v, c)


def test_coefficients_are_canonical(system, derived):
    from edsverify.derive import derive_36, identity_forms
    from edsverify.equations import EQ36, SOL

    half = Fraction(1, 2)
    p = Poly({(("lam", 1),): Fraction(4, 2), (("sig", 2),): half, (): 3})
    q = half * lam - Fraction(3, 2) * sig + Poly.const(Fraction(6, 3))
    assert_canonical(p, q, Poly.const(Fraction(4, 2)), Poly.const(half), lam, Poly.var("sig", 3))
    assert p.terms[(("lam", 1),)] == 2
    # Fraction coefficients whose sum or product is whole come back as ints
    whole = [q + q, p - q, p * q, q * 2, q**2, q**3, -q]
    assert_canonical(*whole)
    assert (q + q).terms == {(("lam", 1),): 1, (("sig", 1),): -3, (): 4}
    assert_canonical((p * q).div_exact(q), (p * q).div_exact(p), (q * 6).normalized()[2])
    assert_canonical(*q.normalized()[2:], p.rename({"lam": (-1, "sig"), "sig": (1, "lam")}))
    assert_canonical(p.coefficient_of("lam"), (p * q).coefficient_of("sig", 2))
    a = LocFrac(q, {"sig": 1})
    b = LocFrac(p * half, {"lam": 2, "mu+": 1})
    assert_canonical(a + b, a - b, a * b, -a, a * 2, LocFrac(half * lam).inverse(), a / LocFrac(lam))
    assert_canonical(a / LocFrac(mum**2), LocFrac(Fraction(4, 2)))
    matrix = [[LocFrac(half * lam), LocFrac(sig)], [LocFrac(Poly.zero()), LocFrac(Fraction(3, 2))]]
    assert_canonical(*linear_solve(matrix, [LocFrac(Poly.const(1)), LocFrac(half)], ATOMS))
    assert_canonical(*EQ36.values(), *SOL.values())
    for form in identity_forms(derived.rules, derived.components).values():
        assert_canonical(*form.terms.values())
    rows, _ = derive_36(derived.rules, derived.components, system.nonzero)
    assert_canonical(*(e.provenance["multiplier_value"][0] for e in rows.values()))


def test_constructors_refuse_float_coefficients():
    for build in (lambda: Poly.const(0.1), lambda: Poly({(("lam", 1),): 0.5}),
                  lambda: LocFrac(0.5), lambda: lam.evaluate({"lam": 0.5})):
        with pytest.raises(AlgebraError):
            build()
    with pytest.raises(TypeError):
        lam * 0.1


def test_poly_puts_monomials_in_canonical_form():
    x, y = Poly.var("x"), Poly.var("y")
    p = Poly({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): 2})
    assert p == 3 * x * y and list(p.terms) == [(("x", 1), ("y", 1))]
    assert Poly({(("x", 1), ("x", 1)): 1}) == Poly.var("x", 2)
    assert Poly({(("x", 2), ("y", 0)): 5}) == 5 * Poly.var("x", 2)
    assert Poly({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): -1}).is_zero()
    assert Poly({(("x", 0),): Fraction(1, 2), (): Fraction(1, 2)}) == 1
    assert Poly.var("x", 0) == 1


def test_negative_exponents_are_refused():
    with pytest.raises(AlgebraError):
        Poly.var("x", -1)
    with pytest.raises(AlgebraError):
        Poly({(("x", 2), ("x", -1)): 1})


def test_whole_fraction_and_int_build_the_same_poly():
    for two in (2, Fraction(2), Fraction(6, 3)):
        p = Poly({(("lam", 1),): two, (): Fraction(1, 2)})
        r = Poly({(("lam", 1),): 2, (): Fraction(1, 2)})
        assert p == r and hash(p) == hash(r) and str(p) == str(r) == "2*lam + 1/2"
        assert LocFrac(p, {"sig": 1}) == LocFrac(r, {"sig": 1})
        assert hash(LocFrac(p, {"sig": 1})) == hash(LocFrac(r, {"sig": 1}))
    assert Poly.const(Fraction(2)) == Poly.const(2) and str(Poly.const(Fraction(2))) == "2"


def test_poly_matches_sympy_ring():
    pytest.importorskip("sympy")
    from functools import reduce

    from sympy.polys.domains import QQ
    from sympy.polys.monomials import monomial_div, monomial_gcd
    from sympy.polys.rings import ring

    R, *_ = ring("S1,lam,lam1,lam3,sig,sig2", QQ)
    names = [str(g) for g in R.symbols]
    assert sorted(names) == names == sorted(VARS)
    rng = random.Random(97)  # its own stream: conftest.random_poly's is unchanged

    def draw():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(sorted((n, rng.randint(1, 2)) for n in rng.sample(VARS, rng.randint(0, 3))))
            c = rng.randint(-6, 6)
            terms[mono] = c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 4))
        return Poly(terms)

    def to_ring(p):
        return R.from_dict({tuple(dict(m).get(n, 0) for n in names): QQ(c.numerator, c.denominator)
                            for m, c in p.terms.items()})

    def assert_same(p, f):
        assert_canonical(p)
        assert p.terms == {tuple((n, e) for n, e in zip(names, exps) if e): Fraction(c.numerator, c.denominator)
                           for exps, c in f.terms()}

    for _ in range(300):
        a, b, c = draw(), draw(), draw()
        fa, fb, fc = to_ring(a), to_ring(b), to_ring(c)
        assert_same(a + b, fa + fb)
        assert_same(a - c, fa - fc)
        assert_same(a * b * c, fa * fb * fc)
        assert_same(b**2, fb**2)
        if b:
            assert_same((a * b).div_exact(b), (fa * fb).exquo(fb))
        if a:
            content, mono, primitive = a.normalized()
            gcd = reduce(monomial_gcd, fa.monoms())
            cont, prim = R.from_dict({monomial_div(m, gcd): k for m, k in fa.terms()}).primitive()
            assert abs(content) == Fraction(cont.numerator, cont.denominator)
            assert mono == tuple((n, e) for n, e in zip(names, gcd) if e)
            assert_same(primitive, prim if content > 0 else -prim)
            assert primitive.leading()[1] > 0


# -- one-pass sums, powers and the block solve against their references ------


def pairwise_add(a, b):
    """The reference: the former two-operand sum, which lifted both
    numerators to the lcm denominator, added them and normalized."""
    den = dict(a.den)
    for n, e in b.den.items():
        den[n] = max(den.get(n, 0), e)
    x, y = a.num, b.num
    for n, e in den.items():
        x = x * ATOMS[n] ** (e - a.den.get(n, 0))
        y = y * ATOMS[n] ** (e - b.den.get(n, 0))
    return LocFrac(x + y, den)


def test_frac_sum_matches_the_pairwise_fold():
    rng = random.Random(71)
    seen = set()
    for trial in range(300):
        fracs = [random_locfrac(rng) for _ in range(rng.randint(0, 5))]
        if trial % 3 == 1:
            # the negatives too, shuffled in: the sum cancels to zero
            fracs += [-f for f in fracs]
            rng.shuffle(fracs)
        elif trial % 3 == 2:
            # parts of atom * p over atom^2: the sum's numerator divides by the atom
            atom = rng.choice(sorted(ATOMS))
            p = random_poly(rng) * ATOMS[atom]
            cut = {m: c for m, c in p.terms.items() if rng.random() < 0.5}
            fracs += [LocFrac(Poly(cut), {atom: 2}), LocFrac(p - Poly(cut), {atom: 2})]
        want = LocFrac(Poly.zero())
        for f in fracs:
            want = pairwise_add(want, f)
        got = algebra.frac_sum((f.num, f.den) for f in fracs)
        assert got.num.terms == want.num.terms and got.den == want.den, (fracs, got, want)
        assert_canonical(got)
        seen.add("zero" if want.is_zero() else "denominator" if want.den else "polynomial")
    assert seen == {"zero", "denominator", "polynomial"}


def test_frac_sum_normalizes_unnormalized_parts():
    # lam sig / (lam^2 sig) + mu+ / (mu+ lam): parts as given, not normalized
    got = algebra.frac_sum([(lam * sig, {"lam": 2, "sig": 1}), (mup, {"mu+": 1, "lam": 1})])
    assert got.num == 2 and got.den == {"lam": 1}
    assert algebra.frac_sum([]) == 0 and not algebra.frac_sum([(Poly.zero(), {"lam": 3})]).den


def test_power_of_a_term_scales_its_exponents():
    rng = random.Random(73)
    for _ in range(200):
        p = random_poly(rng, max_terms=2)
        for n in range(5):
            want = Poly.const(1)
            for _ in range(n):
                want = want * p
            got = p**n
            assert got.terms == want.terms
            assert_canonical(got)


def det_reference(rows):
    """The reference: the determinant by Gaussian elimination over Fraction,
    negated at each row swap."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def block_system(rng, sizes):
    """A random Fraction matrix, block diagonal with square blocks of the
    given sizes, under a random row and column permutation."""
    n = sum(sizes)
    m = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for k in sizes:
        for i in range(k):
            for j in range(k):
                if rng.random() < 0.85:
                    m[at + i][at + j] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if k > 1 and rng.random() < 0.4:
            # a zero at the block's top-left corner: elimination swaps inside the block
            m[at][at] = Fraction(0)
        at += k
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[r][c] for c in cols] for r in rows]


def test_block_solve_matches_fraction_reference():
    rng = random.Random(79)
    seen = set()
    for _ in range(150):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        matrix = block_system(rng, sizes)
        n = len(matrix)
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        det = det_reference(matrix)
        # row r scaled by lam: the determinant gains the factor lam, the solution stays
        r = rng.randrange(n)
        system = [[LocFrac(lam * x if i == r else Poly.const(x)) for x in row] for i, row in enumerate(matrix)]
        values = [LocFrac(lam * b if i == r else Poly.const(b)) for i, b in enumerate(rhs)]
        blocks = algebra._blocks(matrix)
        seen.add("split" if len(blocks) > 1 else "one block")
        if not det:
            seen.add("singular")
            with pytest.raises(SingularMatrixError) as err:
                linear_solve(system, values, ATOMS)
            assert err.value.determinant.is_zero()
            continue
        seen.add("swap" if gauss_reference(matrix)[2] else "no-swap")
        got = linear_solve(system, values, ATOMS)
        assert got == [LocFrac(Poly.const(x)) for x in solve_reference(matrix, rhs)]
        with pytest.raises(NonUnitError) as err:
            linear_solve(system, values, ("sig",))
        assert str(err.value) == f"determinant {det * lam} divides by atoms not declared nonzero: lam"
    assert seen == {"split", "one block", "singular", "swap", "no-swap"}


def test_a_non_square_block_is_singular():
    one, zero = LocFrac(Poly.const(1)), LocFrac(Poly.zero())
    # rows 0 and 1 meet only column 0; row 2 meets columns 1 and 2
    matrix = [[one, zero, zero], [LocFrac(lam), zero, zero], [zero, one, LocFrac(sig)]]
    assert algebra._blocks([[e.num for e in row] for row in matrix]) == [([0, 1], [0]), ([2], [1, 2])]
    with pytest.raises(SingularMatrixError) as err:
        linear_solve(matrix, [one, one, one], ATOMS)
    assert err.value.determinant.is_zero()
    # a zero row is a block without columns, a zero column belongs to none
    assert algebra._blocks([[Poly.zero(), Poly.zero()], [Poly.zero(), lam]]) == [([0], []), ([1], [1])]


# -- the term format belongs to algebra alone -------------------------------------

TERM_HELPERS = {"_poly", "_coeff", "_quotient", "_grlex_key", "mono_mul", "mono_div", "mono_content"}


def test_only_algebra_uses_the_term_helpers():
    """No module of the package but algebra imports, or reads as an attribute,
    a helper that knows how a Poly stores its terms."""
    offenders = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("algebra"):
                offenders += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names
                              if a.name in TERM_HELPERS or a.name == "*"]
            elif isinstance(node, ast.Attribute) and node.attr in TERM_HELPERS:
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders


def test_cases_divides_only_through_the_fact_store():
    """Outside `FactStore`, cases.py builds no LocFrac with a denominator,
    calls no `.inverse()` and uses no `/`, so every division of a pipeline is
    recorded in the store's `divides_by`."""
    path = Path(algebra.__file__).parent / "cases.py"
    tree = ast.parse(path.read_text(), str(path))
    store = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FactStore")
    inside = {id(n) for n in ast.walk(store)}
    offenders = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "LocFrac" \
                and (len(node.args) > 1 or node.keywords):
            offenders.append(f"{node.lineno}: LocFrac with a denominator")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "inverse":
            offenders.append(f"{node.lineno}: .inverse()")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            offenders.append(f"{node.lineno}: /")
    assert not offenders


def test_checks_are_recorded_where_they_are_decided():
    """No routine of derive.py or structure.py returns a dict display (a
    verdict is a `check` record appended to the list the routine is given),
    and cli.py reads no verdict out of a report dict."""
    package = Path(algebra.__file__).parent
    offenders = []
    for name in ("derive.py", "structure.py"):
        tree = ast.parse((package / name).read_text(), name)
        offenders += [f"{name}:{node.lineno}: returns a dict" for node in ast.walk(tree)
                      if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)]
    tree = ast.parse((package / "cli.py").read_text(), "cli.py")
    offenders += [f"cli.py:{node.lineno}: [{node.slice.value!r}]" for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                  and node.slice.value in ("ok", "failures", "closure_ok")]
    assert not offenders


def test_split_power_divides_off_the_power():
    rng = random.Random(101)
    seen = set()
    for _ in range(300):
        name, k = rng.choice(VARS), rng.randint(1, 3)
        p = random_poly(rng) * Poly.var(name, rng.randint(0, 2 * k))
        if rng.random() < 0.5:
            p = p + random_poly(rng, max_exp=4)
        q, r = p.split_power(name, k)
        assert q * Poly.var(name, k) + r == p, (p, name, k)
        assert all(dict(m).get(name, 0) < k for m in r.terms), (p, name, k, r)
        assert_canonical(q, r)
        seen.add((q.is_zero(), r.is_zero()))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_as_term_unpacks_exactly_one_term():
    rng = random.Random(103)
    seen = set()
    for _ in range(200):
        p = random_poly(rng, max_terms=3)
        term = p.as_term()
        seen.add(len(p.terms))
        if len(p.terms) != 1:
            assert term is None, p
            continue
        c, m = term
        assert c and Poly.const(c) * Poly({m: 1}) == p, p
    assert seen == {0, 1, 2, 3}
    assert (-3 * lam**2 * sig).as_term() == (-3, (("lam", 2), ("sig", 1)))
    assert Poly.const(Fraction(1, 2)).as_term() == (Fraction(1, 2), ())


def test_monomial_products_and_quotients_keep_the_factors_pairs():
    """A (name, exponent) pair that only one factor holds is that factor's
    own tuple in the result, so the polynomials a run keeps share them."""
    a = (("lam", 2), ("sig", 1), ("sig3", 1))
    b = (("S1", 1), ("lam", 1), ("sig4", 2))
    prod = algebra.mono_mul(a, b)
    assert prod == (("S1", 1), ("lam", 3), ("sig", 1), ("sig3", 1), ("sig4", 2))
    assert [p is q for p, q in zip(prod, (b[0], None, a[1], a[2], b[2]))] == [True, False, True, True, True]
    quot = algebra.mono_div(prod, (("S1", 1), ("lam", 1)))
    assert quot == (("lam", 2), ("sig", 1), ("sig3", 1), ("sig4", 2))
    assert [p is q for p, q in zip(quot, (None, a[1], a[2], b[2]))] == [False, True, True, True]
    assert algebra.mono_div(a, b) is None and algebra.mono_div(a, (("lam", 3),)) is None
