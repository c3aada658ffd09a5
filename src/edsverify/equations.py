"""Transcriptions of the labeled equation displays the engine re-derives.

Every equation is stored as a single polynomial, LHS - RHS of the display it
transcribes, over the jet symbols lam, sig, lam_i, sig_i, S_i and their
second-order companions.  mu+ = 2 sig + lam and mu- = 2 sig - lam are
expansion macros, never indeterminates, so the ring stays 36-variable.

Label scheme: plain letters a, b, c, ... k for the base equations; a trailing
digit picks the frame-replacement case that generates the subscripted variant
(a4 = image of a under replacement iv, and so on).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LocFrac, Poly

lam = Poly.var("lam")
sig = Poly.var("sig")
mup = 2 * sig + lam
mum = 2 * sig - lam
mus = mup * mum  # 4 sig^2 - lam^2


def l(i: int) -> Poly:
    return Poly.var(f"lam{i}")


def s(i: int) -> Poly:
    return Poly.var(f"sig{i}")


def S(i: int) -> Poly:
    return Poly.var(f"S{i}")


def lj(i: int, j: int) -> Poly:
    return Poly.var(f"lam{i}{j}")


def sj(i: int, j: int) -> Poly:
    return Poly.var(f"sig{i}{j}")


def Sj(i: int, j: int) -> Poly:
    return Poly.var(f"S{i}{j}")


SECOND_ORDER = tuple(
    [f"lam{i}{j}" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
    + [f"sig{i}{j}" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
    + [f"S{i}{j}" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
)


# ---------------------------------------------------------------------------
# The thirty-six directional-derivative equations (stored as LHS - RHS)
# ---------------------------------------------------------------------------

EQ36: dict[str, Poly] = {}


def _eq(label: str, lhs: Poly, rhs: Poly) -> None:
    EQ36[label] = lhs - rhs


_eq("a", 2 * (2 * (lj(1, 2) - lj(2, 1)) + l(1) * S(1) + l(2) * S(2)) * sig,
    l(1) * s(2) - l(2) * s(1))
_eq("a4", 2 * (2 * (lj(3, 4) - lj(4, 3)) + l(3) * S(3) + l(4) * S(4)) * sig,
    l(3) * s(4) - l(4) * s(3))

_eq("b", 2 * (2 * (lj(1, 3) - lj(3, 1)) + l(2) * S(3) - l(4) * S(1)) * sig,
    -l(1) * l(3) - l(2) * s(4) + (s(2) - l(2)) * l(4))
_eq("b1", 2 * (2 * (lj(2, 3) - lj(3, 2)) - l(1) * S(3) - l(4) * S(2)) * sig,
    l(2) * l(3) - (s(1) + l(1)) * l(4) + l(1) * s(4))
_eq("b2", 2 * (2 * (lj(1, 4) - lj(4, 1)) + l(2) * S(4) + l(3) * S(1)) * sig,
    -l(2) * l(3) + l(2) * s(3) - l(3) * s(2) + l(1) * l(4))
_eq("b3", 2 * (2 * (lj(2, 4) - lj(4, 2)) + l(3) * S(2) - l(1) * S(4)) * sig,
    -l(1) * l(3) - l(2) * l(4) - l(1) * s(3) + l(3) * s(1))

_eq("c", 16 * (2 * (lj(3, 2) - lj(4, 1)) + l(3) * S(1) + l(4) * S(2)) * lam * sig**2 * mum,
    8 * lam * sig * (2 * sig + 7 * lam) * (l(4) * s(1) - l(3) * s(2))
    + (3 * lam**3 + 2 * lam**2 * sig - 28 * lam * sig**2 - 104 * sig**3) * (l(1) * l(4) - l(2) * l(3)))
_eq("c1", 16 * (2 * (lj(3, 1) + lj(4, 2)) + l(4) * S(1) - l(3) * S(2)) * lam * sig**2 * mup,
    8 * lam * sig * (7 * lam - 2 * sig) * (l(3) * s(1) + l(4) * s(2))
    + (3 * lam**3 - 2 * lam**2 * sig - 28 * lam * sig**2 + 104 * sig**3) * (l(1) * l(3) + l(2) * l(4)))
_eq("c4", 16 * (2 * (lj(2, 3) - lj(1, 4)) - l(1) * S(3) - l(2) * S(4)) * lam * sig**2 * mup,
    8 * lam * sig * (2 * sig - 7 * lam) * (l(1) * s(4) - l(2) * s(3))
    + (3 * lam**3 - 2 * lam**2 * sig - 28 * lam * sig**2 + 104 * sig**3) * (l(2) * l(3) - l(1) * l(4)))
_eq("c5", 16 * (2 * (lj(1, 3) + lj(2, 4)) + l(2) * S(3) - l(1) * S(4)) * lam * sig**2 * mum,
    -8 * lam * sig * (2 * sig + 7 * lam) * (l(1) * s(3) + l(2) * s(4))
    - (3 * lam**3 + 2 * lam**2 * sig - 28 * lam * sig**2 - 104 * sig**3) * (l(1) * l(3) + l(2) * l(4)))

_eq("d", 16 * (2 * (mup * lj(1, 1) + mum * lj(3, 3)) + mup * l(2) * S(1) + mum * l(4) * S(3)) * lam * sig**2,
    -3 * mus * (mum * l(2)**2 + mup * l(4)**2)
    + 8 * lam * sig * ((2 * sig - 3 * lam) * l(2) * s(2) + (2 * sig + 3 * lam) * l(4) * s(4)
                       + 4 * lam * (l(1) * s(1) - l(3) * s(3)) + 32 * lam * sig**3)
    + 4 * sig * ((lam**2 + 4 * lam * sig + 20 * sig**2) * l(1)**2
                 + (lam**2 - 4 * lam * sig + 20 * sig**2) * l(3)**2))
_eq("d1", 16 * (2 * (mum * lj(2, 2) + mup * lj(3, 3)) - mum * l(1) * S(2) + mup * l(4) * S(3)) * lam * sig**2,
    -3 * mus * (mup * l(1)**2 + mum * l(4)**2)
    + 8 * lam * sig * ((2 * sig + 3 * lam) * l(1) * s(1) + (2 * sig - 3 * lam) * l(4) * s(4)
                       + 4 * lam * (l(3) * s(3) - l(2) * s(2)) - 32 * lam * sig**3)
    + 4 * sig * ((lam**2 - 4 * lam * sig + 20 * sig**2) * l(2)**2
                 + (lam**2 + 4 * lam * sig + 20 * sig**2) * l(3)**2))
# the lam4*sig4 sign here follows the replacement-ii image of the base
# equation (confirmed independently by the dG-rule identity); the printed
# display carries the opposite sign, which every later use neutralizes by
# setting lam4 = 0
_eq("d2", 16 * (2 * (mum * lj(1, 1) + mup * lj(4, 4)) + mum * l(2) * S(1) - mup * l(3) * S(4)) * lam * sig**2,
    -3 * mus * (mup * l(2)**2 + mum * l(3)**2)
    + 8 * lam * sig * ((2 * sig + 3 * lam) * l(2) * s(2) + (2 * sig - 3 * lam) * l(3) * s(3)
                       - 4 * lam * (l(1) * s(1) - l(4) * s(4)) - 32 * lam * sig**3)
    + 4 * sig * ((lam**2 - 4 * lam * sig + 20 * sig**2) * l(1)**2
                 + (lam**2 + 4 * lam * sig + 20 * sig**2) * l(4)**2))
_eq("d3", 16 * (2 * (mup * lj(2, 2) + mum * lj(4, 4)) - mup * l(1) * S(2) - mum * l(3) * S(4)) * lam * sig**2,
    -3 * mus * (mum * l(1)**2 + mup * l(3)**2)
    + 8 * lam * sig * ((2 * sig - 3 * lam) * l(1) * s(1) + (2 * sig + 3 * lam) * l(3) * s(3)
                       + 4 * lam * (l(2) * s(2) - l(4) * s(4)) + 32 * lam * sig**3)
    + 4 * sig * ((lam**2 + 4 * lam * sig + 20 * sig**2) * l(2)**2
                 + (lam**2 - 4 * lam * sig + 20 * sig**2) * l(4)**2))

_eq("e", 16 * (2 * (mup * lj(2, 1) + mum * lj(3, 4)) - mup * l(1) * S(1) + mum * l(4) * S(4)) * lam * sig**2,
    32 * lam**2 * sig * (l(2) * s(1) - l(3) * s(4))
    + (3 * lam**3 - 2 * lam**2 * sig + 4 * lam * sig**2 + 104 * sig**3) * l(1) * l(2)
    - (3 * lam**3 + 2 * lam**2 * sig + 4 * lam * sig**2 - 104 * sig**3) * l(3) * l(4)
    + 8 * lam * sig * ((3 * lam - 2 * sig) * l(1) * s(2) - (3 * lam + 2 * sig) * l(4) * s(3)))
_eq("e1", 16 * (2 * (mum * lj(1, 2) - mup * lj(3, 4)) + mum * l(2) * S(2) - mup * l(4) * S(4)) * lam * sig**2,
    -32 * lam**2 * sig * (l(1) * s(2) + l(3) * s(4))
    - (3 * lam**3 + 2 * lam**2 * sig + 4 * lam * sig**2 - 104 * sig**3) * l(1) * l(2)
    - (3 * lam**3 - 2 * lam**2 * sig + 4 * lam * sig**2 + 104 * sig**3) * l(3) * l(4)
    + 8 * lam * sig * ((2 * sig - 3 * lam) * l(4) * s(3) - (2 * sig + 3 * lam) * l(2) * s(1)))
_eq("e2", 16 * (2 * (mum * lj(2, 1) - mup * lj(4, 3)) - mum * l(1) * S(1) + mup * l(3) * S(3)) * lam * sig**2,
    -32 * lam**2 * sig * (l(2) * s(1) + l(4) * s(3))
    - (3 * lam**3 + 2 * lam**2 * sig + 4 * lam * sig**2 - 104 * sig**3) * l(1) * l(2)
    - (3 * lam**3 - 2 * lam**2 * sig + 4 * lam * sig**2 + 104 * sig**3) * l(3) * l(4)
    + 8 * lam * sig * ((2 * sig - 3 * lam) * l(3) * s(4) - (2 * sig + 3 * lam) * l(1) * s(2)))
_eq("e3", 16 * (2 * (mup * lj(1, 2) + mum * lj(4, 3)) + mup * l(2) * S(2) - mum * l(3) * S(3)) * lam * sig**2,
    32 * lam**2 * sig * (l(1) * s(2) - l(4) * s(3))
    + (3 * lam**3 - 2 * lam**2 * sig + 4 * lam * sig**2 + 104 * sig**3) * l(1) * l(2)
    - (3 * lam**3 + 2 * lam**2 * sig + 4 * lam * sig**2 - 104 * sig**3) * l(3) * l(4)
    + 8 * lam * sig * ((3 * lam - 2 * sig) * l(2) * s(1) - (3 * lam + 2 * sig) * l(3) * s(4)))

_eq("f", 16 * (2 * (sj(1, 2) - sj(2, 1)) + s(1) * S(1) + s(2) * S(2)) * lam * sig**2,
    mus * (l(1) * s(2) - l(2) * s(1)) + 16 * sig**2 * (l(4) * s(3) - l(3) * s(4)))
_eq("f4", 16 * (2 * (sj(4, 3) - sj(3, 4)) - s(3) * S(3) - s(4) * S(4)) * lam * sig**2,
    16 * sig**2 * (l(1) * s(2) - l(2) * s(1)) + mus * (l(4) * s(3) - l(3) * s(4)))

_eq("g", 16 * (2 * (sj(1, 3) - sj(3, 1)) + s(2) * S(3) - s(4) * S(1)) * lam * sig**2,
    4 * sig * (mum * l(3) * s(1) - mup * l(1) * s(3)) + mum**2 * l(2) * s(4) - mup**2 * l(4) * s(2))
_eq("g1", 16 * (2 * (sj(3, 2) - sj(2, 3)) + s(1) * S(3) + s(4) * S(2)) * lam * sig**2,
    mup**2 * l(1) * s(4) - mum**2 * l(4) * s(1) + 4 * sig * (mum * l(2) * s(3) - mup * l(3) * s(2)))
_eq("g2", 16 * (2 * (sj(4, 1) - sj(1, 4)) - s(2) * S(4) - s(3) * S(1)) * lam * sig**2,
    mup**2 * l(2) * s(3) - mum**2 * l(3) * s(2) + 4 * sig * (mum * l(1) * s(4) - mup * l(4) * s(1)))
_eq("g3", 16 * (2 * (sj(4, 2) - sj(2, 4)) + s(1) * S(4) - s(3) * S(2)) * lam * sig**2,
    mup**2 * l(3) * s(1) - mum**2 * l(1) * s(3) + 4 * sig * (mup * l(2) * s(4) - mum * l(4) * s(2)))

_eq("h", 16 * (2 * (lj(1, 1) + lj(2, 2)) + l(2) * S(1) - l(1) * S(2)) * lam * sig**2 * mus
    - 128 * (2 * (sj(1, 1) + sj(2, 2)) + s(2) * S(1) - s(1) * S(2)) * lam**2 * sig**3
    + 320 * lam**2 * sig**2 * (s(1)**2 + s(2)**2),
    (112 * sig**4 + 40 * lam**2 * sig**2 - lam**4) * (l(1)**2 + l(2)**2)
    - 48 * sig**2 * mus * (l(3)**2 + l(4)**2)
    + 16 * lam * sig * ((4 * sig**2 - 5 * lam**2) * (l(1) * s(1) + l(2) * s(2))
                        + 8 * sig**2 * (l(3) * s(3) + l(4) * s(4)) + 32 * lam**2 * sig**3))
_eq("h4", 16 * (2 * (lj(3, 3) + lj(4, 4)) + l(4) * S(3) - l(3) * S(4)) * lam * sig**2 * mus
    - 128 * (2 * (sj(3, 3) + sj(4, 4)) + s(4) * S(3) - s(3) * S(4)) * lam**2 * sig**3
    + 320 * lam**2 * sig**2 * (s(3)**2 + s(4)**2),
    (112 * sig**4 + 40 * lam**2 * sig**2 - lam**4) * (l(3)**2 + l(4)**2)
    - 48 * sig**2 * mus * (l(1)**2 + l(2)**2)
    + 16 * lam * sig * ((4 * sig**2 - 5 * lam**2) * (l(3) * s(3) + l(4) * s(4))
                        + 8 * sig**2 * (l(1) * s(1) + l(2) * s(2)) - 32 * lam**2 * sig**3))

_eq("i", 16 * (2 * (lj(4, 1) + lj(2, 3)) - l(1) * S(3) - l(3) * S(1)) * lam * sig**2 * mus
    - 128 * (2 * (sj(4, 1) + sj(2, 3)) - s(1) * S(3) - s(3) * S(1)) * lam**2 * sig**3,
    (304 * sig**4 - 160 * lam * sig**3 + 56 * lam**2 * sig**2 + 8 * lam**3 * sig - lam**4) * l(2) * l(3)
    + (304 * sig**4 + 160 * lam * sig**3 + 56 * lam**2 * sig**2 - 8 * lam**3 * sig - lam**4) * l(1) * l(4)
    - 8 * lam * sig * (mum**2 * l(3) * s(2) + mup**2 * l(1) * s(4)
                       + 40 * lam * sig * (s(1) * s(4) + s(2) * s(3)))
    - 8 * lam * sig * ((4 * sig**2 - 4 * lam * sig + 9 * lam**2) * l(2) * s(3)
                       + (4 * sig**2 + 4 * lam * sig + 9 * lam**2) * l(4) * s(1)))
_eq("i1", 16 * (2 * (lj(4, 2) - lj(1, 3)) - l(2) * S(3) - l(3) * S(2)) * lam * sig**2 * mus
    - 128 * (2 * (sj(4, 2) - sj(1, 3)) - s(2) * S(3) - s(3) * S(2)) * lam**2 * sig**3,
    (304 * sig**4 - 160 * lam * sig**3 + 56 * lam**2 * sig**2 + 8 * lam**3 * sig - lam**4) * l(2) * l(4)
    - (304 * sig**4 + 160 * lam * sig**3 + 56 * lam**2 * sig**2 - 8 * lam**3 * sig - lam**4) * l(1) * l(3)
    + 8 * lam * sig * (mup**2 * l(3) * s(1) - mum**2 * l(2) * s(4)
                       + 40 * lam * sig * (s(1) * s(3) - s(2) * s(4)))
    + 8 * lam * sig * ((4 * sig**2 + 4 * lam * sig + 9 * lam**2) * l(1) * s(3)
                       - (4 * sig**2 - 4 * lam * sig + 9 * lam**2) * l(4) * s(2)))
_eq("i2", 16 * (2 * (lj(2, 4) - lj(3, 1)) - l(1) * S(4) - l(4) * S(1)) * lam * sig**2 * mus
    - 128 * (2 * (sj(2, 4) - sj(3, 1)) - s(1) * S(4) - s(4) * S(1)) * lam**2 * sig**3,
    (304 * sig**4 + 160 * lam * sig**3 + 56 * lam**2 * sig**2 - 8 * lam**3 * sig - lam**4) * l(2) * l(4)
    - (304 * sig**4 - 160 * lam * sig**3 + 56 * lam**2 * sig**2 + 8 * lam**3 * sig - lam**4) * l(1) * l(3)
    + 8 * lam * sig * (mum**2 * l(1) * s(3) - mup**2 * l(4) * s(2)
                       + 40 * lam * sig * (s(1) * s(3) - s(2) * s(4)))
    + 8 * lam * sig * ((4 * sig**2 - 4 * lam * sig + 9 * lam**2) * l(3) * s(1)
                       - (4 * sig**2 + 4 * lam * sig + 9 * lam**2) * l(2) * s(4)))
_eq("i3", 16 * (2 * (lj(1, 4) + lj(3, 2)) + l(2) * S(4) + l(4) * S(2)) * lam * sig**2 * mus
    - 128 * (2 * (sj(1, 4) + sj(3, 2)) + s(2) * S(4) + s(4) * S(2)) * lam**2 * sig**3,
    (304 * sig**4 - 160 * lam * sig**3 + 56 * lam**2 * sig**2 + 8 * lam**3 * sig - lam**4) * l(1) * l(4)
    + (304 * sig**4 + 160 * lam * sig**3 + 56 * lam**2 * sig**2 - 8 * lam**3 * sig - lam**4) * l(2) * l(3)
    - 8 * lam * sig * (mum**2 * l(4) * s(1) + mup**2 * l(2) * s(3)
                       + 40 * lam * sig * (s(2) * s(3) + s(1) * s(4)))
    - 8 * lam * sig * ((4 * sig**2 - 4 * lam * sig + 9 * lam**2) * l(1) * s(4)
                       + (4 * sig**2 + 4 * lam * sig + 9 * lam**2) * l(3) * s(2)))

_eq("j", 16 * (2 * (Sj(2, 1) - Sj(1, 2)) - S(1)**2 - S(2)**2) * lam * sig**2
    + 8 * lam * sig * (s(2) * S(1) - s(1) * S(2)),
    mus * (l(2) * S(1) - l(1) * S(2)) + 16 * sig**2 * (l(3) * S(4) - l(4) * S(3))
    - 32 * lam**2 * sig**2)
_eq("j4", 16 * (2 * (Sj(4, 3) - Sj(3, 4)) - S(3)**2 - S(4)**2) * lam * sig**2
    + 8 * lam * sig * (s(4) * S(3) - s(3) * S(4)),
    mus * (l(4) * S(3) - l(3) * S(4)) + 16 * sig**2 * (l(1) * S(2) - l(2) * S(1))
    + 32 * lam**2 * sig**2)

_eq("k", 16 * (2 * (Sj(3, 1) - Sj(1, 3)) + S(1) * S(4) - S(2) * S(3)) * lam * sig**2
    + 8 * lam * sig * (s(2) * S(4) - s(4) * S(2)),
    mup**2 * l(4) * S(2) - mum**2 * l(2) * S(4) + 4 * sig * (mup * l(1) * S(3) - mum * l(3) * S(1)))
_eq("k1", 16 * (2 * (Sj(3, 2) - Sj(2, 3)) + S(2) * S(4) + S(1) * S(3)) * lam * sig**2
    + 8 * lam * sig * (s(4) * S(1) - s(1) * S(4)),
    mup**2 * l(1) * S(4) - mum**2 * l(4) * S(1) + 4 * sig * (mum * l(2) * S(3) - mup * l(3) * S(2)))
_eq("k2", 16 * (2 * (Sj(4, 1) - Sj(1, 4)) - S(1) * S(3) - S(2) * S(4)) * lam * sig**2
    + 8 * lam * sig * (s(3) * S(2) - s(2) * S(3)),
    mup**2 * l(2) * S(3) - mum**2 * l(3) * S(2) + 4 * sig * (mum * l(1) * S(4) - mup * l(4) * S(1)))
_eq("k3", 16 * (2 * (Sj(4, 2) - Sj(2, 4)) - S(2) * S(3) + S(1) * S(4)) * lam * sig**2
    + 8 * lam * sig * (s(1) * S(3) - s(3) * S(1)),
    mup**2 * l(3) * S(1) - mum**2 * l(1) * S(3) + 4 * sig * (mup * l(2) * S(4) - mum * l(4) * S(2)))

assert len(EQ36) == 36

#: subscripted label -> (base label, frame-replacement case 1..5)
VARIANTS: dict[str, tuple[str, int]] = {
    "a4": ("a", 4),
    "b1": ("b", 1), "b2": ("b", 2), "b3": ("b", 3),
    "c1": ("c", 1), "c4": ("c", 4), "c5": ("c", 5),
    "d1": ("d", 1), "d2": ("d", 2), "d3": ("d", 3),
    "e1": ("e", 1), "e2": ("e", 2), "e3": ("e", 3),
    "f4": ("f", 4),
    "g1": ("g", 1), "g2": ("g", 2), "g3": ("g", 3),
    "h4": ("h", 4),
    "i1": ("i", 1), "i2": ("i", 2), "i3": ("i", 3),
    "j4": ("j", 4),
    "k1": ("k", 1), "k2": ("k", 2), "k3": ("k", 3),
}


# ---------------------------------------------------------------------------
# First-order consequences: the twelve rows, their closed-form solution, and
# the two bracket-coefficient identities
# ---------------------------------------------------------------------------

F1, F2, F3, F4 = (Poly.var(f"F{i}") for i in (1, 2, 3, 4))
G1, G2, G3, G4 = (Poly.var(f"G{i}") for i in (1, 2, 3, 4))
L1, L2, L3, L4 = (Poly.var(f"L{i}") for i in (1, 2, 3, 4))

NEL: dict[str, Poly] = {
    "i": 2 * sig * L1 + mup * G3 + s(2),
    "ii": 2 * sig * L2 + mup * G4 - s(1),
    "iii": 2 * sig * L3 - mum * G1 - s(4),
    "iv": 2 * sig * L4 - mum * G2 + s(3),
    "v": mup * F1 + mum * G2,
    "vi": mup * F2 - mum * G1,
    "vii": mup * F3 - mum * G4 - l(1),
    "viii": mup * F4 + mum * G3 - l(2),
    "ix": mum * F1 + mup * G2 - l(3),
    "x": mum * F2 - mup * G1 - l(4),
    "xi": mum * F3 - mup * G4,
    "xii": mum * F4 + mup * G3,
}

NEL_UNKNOWNS = tuple(
    f"{fam}{i}" for fam in ("L", "F", "G") for i in (1, 2, 3, 4)
)


_d8 = {"lam": 1, "sig": 1}
_d16 = {"lam": 1, "sig": 2}

#: closed-form connection components: 16 lam sig^2 L_i and 8 lam sig (F_i, G_i)
SOL: dict[str, LocFrac] = {
    "L1": LocFrac((-8 * lam * sig * s(2) + mus * l(2)) * Fraction(1, 16), _d16),
    "L2": LocFrac((8 * lam * sig * s(1) - mus * l(1)) * Fraction(1, 16), _d16),
    "L3": LocFrac((8 * lam * sig * s(4) - mus * l(4)) * Fraction(1, 16), _d16),
    "L4": LocFrac((-8 * lam * sig * s(3) + mus * l(3)) * Fraction(1, 16), _d16),
    "F1": LocFrac(-mum * l(3) * Fraction(1, 8), _d8),
    "F2": LocFrac(-mum * l(4) * Fraction(1, 8), _d8),
    "F3": LocFrac(mup * l(1) * Fraction(1, 8), _d8),
    "F4": LocFrac(mup * l(2) * Fraction(1, 8), _d8),
    "G1": LocFrac(-mup * l(4) * Fraction(1, 8), _d8),
    "G2": LocFrac(mup * l(3) * Fraction(1, 8), _d8),
    "G3": LocFrac(-mum * l(2) * Fraction(1, 8), _d8),
    "G4": LocFrac(mum * l(1) * Fraction(1, 8), _d8),
}

#: 8 lam sig (G1 + F2) = -4 sig lam4 and 8 lam sig (G2 - F1) = 4 sig lam3
INP = (
    (G1 + F2, -4 * sig * l(4)),
    (G2 - F1, 4 * sig * l(3)),
)


# ---------------------------------------------------------------------------
# The two first-order constraints from the introduction
# ---------------------------------------------------------------------------

INTRO_A: Poly = (12 * sig**2 - lam**2) * (l(2) * l(3) - l(1) * l(4)) - 2 * lam * (
    mum * (l(2) * s(3) - l(1) * s(4)) + mup * (l(3) * s(2) - l(4) * s(1))
)
INTRO_B: Poly = (12 * sig**2 - lam**2) * (l(1) * l(3) + l(2) * l(4)) - 2 * lam * (
    mup * (l(1) * s(3) + l(2) * s(4)) + mum * (l(3) * s(1) + l(4) * s(2))
)


# ---------------------------------------------------------------------------
# Linear-dependence relations and the two constraint combinations
# ---------------------------------------------------------------------------

_8ls = 8 * lam * sig

#: target label -> [(source label, coefficient)]
DEPENDENCE_RELATIONS: dict[str, list] = {
    "e3": [("a", _8ls * mup), ("a4", -_8ls * mum), ("e", Poly.const(1))],
    "e1": [("a", _8ls * mum), ("a4", -_8ls * mup), ("e2", Poly.const(1))],
    "i1": [("c1", mum), ("c5", -mup), ("g", _8ls), ("g3", -_8ls), ("i2", Poly.const(1))],
    "i3": [("c", mup), ("c4", -mum), ("g2", _8ls), ("g1", -_8ls), ("i", Poly.const(1))],
}

#: 32 lam sig * constraint -> [(source label, coefficient)]
INTRO_COMBINATIONS = {
    "intro_a": (INTRO_A, [("b2", _8ls * mus), ("b1", -_8ls * mus), ("c", -mup), ("c4", mum)]),
    "intro_b": (INTRO_B, [("b", _8ls * mus), ("b3", _8ls * mus), ("c1", mum), ("c5", -mup)]),
}


# ---------------------------------------------------------------------------
# Case-pipeline displays
# ---------------------------------------------------------------------------

#: case ii, after lam1 = lam2 = lam4 = 0: the four successive consequences
SUC = (
    lj(3, 1),
    lj(3, 2),
    2 * sig * S(1) + s(2),
    2 * sig * S(2) - s(1),
)

#: lam3 S4 = 2 lam^2 (from j) and 3 mu* lam3^2 = 8 lam sig (lam3 sig3 + 4 lam^2 sig) (from h)
CASE2_J = l(3) * S(4) - 2 * lam**2
CASE2_H = 3 * mus * l(3)**2 - 8 * lam * sig * (l(3) * s(3) + 4 * lam**2 * sig)

#: lam3 sig3 = -4 sig mu*, then 3 mu* lam3^2 = 64 lam sig^2 (lam^2 - 2 sig^2)
LTS_1 = l(3) * s(3) + 4 * sig * mus
LTS_2 = 3 * mus * l(3)**2 - 64 * lam * sig**2 * (lam**2 - 2 * sig**2)

ELS_I = (8 * lam * sig * mum * lj(3, 3)
         - 8 * lam**2 * (8 * sig**3 - l(3) * s(3))
         - (lam**2 - 4 * lam * sig + 20 * sig**2) * l(3)**2)
ELS_II = (8 * lam * sig * mup * lj(3, 3)
          - 8 * lam**2 * (l(3) * s(3) - 8 * sig**3)
          - (lam**2 + 4 * lam * sig + 20 * sig**2) * l(3)**2)

CASE2_FINAL = lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4

sigp = Poly.var("sigp")
sigpp = Poly.var("sigpp")

FSQ_I = 8 * lam * sig * sigp - 12 * sig**2 + lam**2
FSQ_II = 64 * lam**2 * sig**3 * sigpp - (4 * sig**2 - lam**2) * (12 * sig**2 + lam**2)

#: the six rewritten equations of the functional-dependence case (lam4 = 0)
CASE3_REWRITTEN = (
    # from d
    4 * (2 * (mup * lj(1, 1) + mum * lj(3, 3)) + mup * l(2) * S(1)) * lam * sig**2
    - ((lam - 6 * sig) * lam * sig * l(2)**2 + 64 * lam**2 * sig**4
       + (20 * sig**3 + 16 * lam * sig**2 + lam**2 * sig - lam**3) * l(1)**2
       + (20 * sig**3 - 16 * lam * sig**2 + lam**2 * sig + lam**3) * l(3)**2),
    # from d1
    4 * (2 * (mum * lj(2, 2) + mup * lj(3, 3)) - mum * l(1) * S(2)) * lam * sig**2
    - ((lam + 6 * sig) * lam * sig * l(1)**2 - 64 * lam**2 * sig**4
       + (20 * sig**3 - 16 * lam * sig**2 + lam**2 * sig + lam**3) * l(2)**2
       + (20 * sig**3 + 16 * lam * sig**2 + lam**2 * sig - lam**3) * l(3)**2),
    # from d2
    4 * (2 * mum * lj(1, 1) + mum * l(2) * S(1) - mup * l(3) * S(4)) * lam * sig**2
    - (lam * sig * ((lam + 6 * sig) * l(2)**2 + (lam - 6 * sig) * l(3)**2)
       + (20 * sig**3 - 16 * lam * sig**2 + lam**2 * sig + lam**3) * l(1)**2
       - 64 * lam**2 * sig**4),
    # from d3
    4 * (2 * mup * lj(2, 2) - mup * l(1) * S(2) - mum * l(3) * S(4)) * lam * sig**2
    - (lam * sig * ((lam - 6 * sig) * l(1)**2 + (lam + 6 * sig) * l(3)**2)
       + (20 * sig**3 + 16 * lam * sig**2 + lam**2 * sig - lam**3) * l(2)**2
       + 64 * lam**2 * sig**4),
    # from h
    4 * (2 * (lj(1, 1) + lj(2, 2)) + l(2) * S(1) - l(1) * S(2)) * lam * sig**2
    - (10 * sig**2 * (l(1)**2 + l(2)**2) - lam**2 * l(3)**2 - 16 * lam**3 * sig**2),
    # from h4
    4 * (2 * lj(3, 3) - l(3) * S(4)) * lam * sig**2
    - (10 * sig**2 * l(3)**2 - lam**2 * (l(1)**2 + l(2)**2) + 16 * lam**3 * sig**2),
)

CASE3_FINAL = 8 * lam**2 * sig * (l(1)**2 + l(2)**2 + l(3)**2)


# ---------------------------------------------------------------------------
# The curvature component table: the only hand-typed curvature data; the
# structure, rotation and numeric checks all read it
# ---------------------------------------------------------------------------

#: 1-based (i, j, k, l, value) generators; all other components are the ones
#: algebraically related to these, or zero
ROT_COMPONENTS = (
    (1, 2, 1, 2, -lam),
    (3, 4, 3, 4, lam),
    (1, 3, 1, 3, sig),
    (2, 4, 2, 4, sig),
    (1, 4, 1, 4, -sig),
    (2, 3, 2, 3, -sig),
    (1, 4, 2, 3, sig),
    (1, 3, 4, 2, -sig),
)


def curvature_table():
    """Full 4^4 component table of Poly values generated from ROT_COMPONENTS
    by the pair-skew and pair-exchange symmetries."""
    T = [[[[Poly.zero() for _ in range(4)] for _ in range(4)] for _ in range(4)] for _ in range(4)]
    assigned = {}

    def put(i, j, k, l, v):
        key = (i, j, k, l)
        if key in assigned:
            if assigned[key] != v:
                raise ValueError(f"inconsistent curvature assignment at {key}")
            return
        assigned[key] = v
        T[i - 1][j - 1][k - 1][l - 1] = v

    for i, j, k, l, v in ROT_COMPONENTS:
        for (a, b, c, d, w) in (
            (i, j, k, l, v), (j, i, k, l, -v), (i, j, l, k, -v), (j, i, l, k, v),
            (k, l, i, j, v), (l, k, i, j, -v), (k, l, j, i, -v), (l, k, j, i, v),
        ):
            put(a, b, c, d, w)
    return T
