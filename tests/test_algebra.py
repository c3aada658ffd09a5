import random
from fractions import Fraction

import pytest

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

from conftest import random_locfrac

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
        from conftest import random_poly

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
