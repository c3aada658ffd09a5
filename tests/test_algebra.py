import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from edsverify import algebra
from edsverify.algebra import (
    ATOMS,
    LocFrac,
    NonUnitError,
    Poly,
    SingularMatrixError,
    atom_divide,
    linear_solve,
    ring_ops,
)

from conftest import random_locfrac, random_poly

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


def test_ring_ops_named_entry():
    a = LocFrac(lam)
    b = LocFrac(sig)
    assert ring_ops(a, b, "add") == LocFrac(lam + sig)
    assert ring_ops(a, b, "mul") == LocFrac(lam * sig)
    assert ring_ops(a, b, "sub") == LocFrac(lam - sig)
    assert ring_ops(a, b, "neg") == LocFrac(-lam)


def test_atom_divide_monomial():
    assert atom_divide(LocFrac(8 * lam * sig * lam3), "lam") == LocFrac(8 * sig * lam3)


def test_atom_divide_case_quartic():
    quartic = lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4
    value = atom_divide(LocFrac(512 * lam**2 * sig**2 * quartic), "lam", 2)
    assert value == LocFrac(512 * sig**2 * quartic)


def test_atom_divide_keeps_denominator():
    value = atom_divide(LocFrac(lam + sig), "lam")
    assert value.den == {"lam": 1}
    assert value.num == lam + sig


def test_atom_divide_rejects_unregistered():
    with pytest.raises(Exception):
        atom_divide(LocFrac(lam), "lam1")


def test_atom_divide_inverts_multiplication():
    rng = random.Random(3)
    for _ in range(50):
        a = random_locfrac(rng)
        scaled = ring_ops(a, LocFrac(ATOMS["mu+"] ** 2), "mul")
        assert atom_divide(scaled, "mu+", 2) == a


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
    x = linear_solve(matrix, rhs)
    eighth = Fraction(1, 8)
    assert x[0] == LocFrac(mup * lam1 * eighth, {"lam": 1, "sig": 1})
    assert x[1] == LocFrac(-mum * lam1 * eighth, {"lam": 1, "sig": 1})


def test_linear_solve_zero_leading_pivot():
    # the first column's pivot is zero, so elimination must swap rows
    matrix = [[LocFrac(Poly.zero()), LocFrac(lam)], [LocFrac(sig), LocFrac(Poly.zero())]]
    rhs = [LocFrac(sig), LocFrac(lam3)]
    x = linear_solve(matrix, rhs)
    assert x[0] == LocFrac(lam3, {"sig": 1})
    assert x[1] == LocFrac(sig, {"lam": 1})


def test_linear_solve_identity():
    rng = random.Random(5)
    rhs = [random_locfrac(rng) for _ in range(3)]
    eye = [
        [LocFrac(Poly.const(1 if i == j else 0)) for j in range(3)]
        for i in range(3)
    ]
    assert linear_solve(eye, rhs) == rhs


def test_linear_solve_singular_rank_deficient():
    rhs = [LocFrac(lam), LocFrac(sig)]
    matrix = [[LocFrac(lam), LocFrac(sig)], [LocFrac(lam), LocFrac(sig)]]
    with pytest.raises(SingularMatrixError) as err:
        linear_solve(matrix, rhs)
    assert err.value.determinant.is_zero()


def test_linear_solve_non_unit_determinant():
    # determinant lam + sig is nonzero but outside the atom monoid
    matrix = [[LocFrac(lam + sig)]]
    with pytest.raises(NonUnitError):
        linear_solve(matrix, [LocFrac(lam)])


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
    x = linear_solve(matrix, rhs)
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


def test_variable_atoms_cancel_without_division(monkeypatch):
    calls = []
    div_exact = Poly.div_exact

    def counted(self, divisor):
        calls.append(divisor)
        return div_exact(self, divisor)

    monkeypatch.setattr(Poly, "div_exact", counted)
    v = LocFrac(lam**2 * sig * lam3 + 3 * lam * sig**3 * lam3**2, {"lam": 2, "sig": 1, "lam3": 3})
    assert v.num == lam + 3 * sig**2 * lam3
    assert v.den == {"lam": 1, "lam3": 2}
    assert calls == []
    w = LocFrac(mup * lam, {"mu+": 1})
    assert w.num == lam and not w.den
    assert calls


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
