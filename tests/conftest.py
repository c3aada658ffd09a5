import random
from fractions import Fraction

import pytest

from edsverify.algebra import ATOMS, LocFrac, Poly
from edsverify.derive import Derivation
from edsverify.structure import load_system


@pytest.fixture(scope="session")
def system():
    return load_system()


@pytest.fixture(scope="session")
def derived(system):
    return Derivation(system)


VARS = ("lam", "sig", "lam1", "lam3", "sig2", "S1")


def random_poly(rng: random.Random, max_terms: int = 4, max_exp: int = 2) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for name in rng.sample(VARS, rng.randint(0, 3)):
            mono.append((name, rng.randint(1, max_exp)))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(terms)


def random_locfrac(rng: random.Random) -> LocFrac:
    den = {}
    for name in rng.sample(sorted(ATOMS), rng.randint(0, 2)):
        den[name] = rng.randint(1, 2)
    return LocFrac(random_poly(rng), den)


def recorded(verify, *args) -> dict:
    """The checks that `verify(*args, checks)` records, by id, in order."""
    checks = []
    verify(*args, checks)
    return {c["id"]: c for c in checks}
