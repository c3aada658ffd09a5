"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here: symbolic checks demand exact equality (zero
polynomials), numeric gates are 1e-12 (1e-14 for the tensor symmetries), and
the runtime budgets are 5 s for the structure suite, 60 s for the 36-equation
suite, and 2 s for the numeric sweep.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import edsverify.cases as cases_mod
import edsverify.derive as derive_mod
import edsverify.numeric as numeric_mod
from edsverify.algebra import Poly
from edsverify.equations import SOL, lam, sig
from edsverify.structure import (
    EdsParseError,
    curvature_forms,
    expected_curvature,
    load_system,
    parse_eds,
    serialize,
    torsion_equations,
    verify_covariant_derivatives,
)

from conftest import recorded


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def system():
    return load_system()


@pytest.fixture(scope="module")
def derived(system):
    return derive_mod.Derivation(system)


def test_structure_suite(system):
    with criterion("structure: torsion, curvature, covariant derivatives exact, < 5 s"):
        t0 = time.perf_counter()
        assert all(r.is_zero() for r in torsion_equations(system))
        R = curvature_forms(system)
        X = expected_curvature(system)
        assert all((R[k][l] - X[k][l]).is_zero() for k in range(4) for l in range(4))
        cov = recorded(verify_covariant_derivatives, system)["covariant-derivatives"]
        assert cov["status"] == "pass", cov["detail"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"structure suite took {elapsed:.2f} s"


def test_first_order_rows_and_solution(system):
    with criterion("nel/sol: 12 rows matched, residual-free solve, inp identities"):
        rows, report = derive_mod.derive_nel(system)
        assert len(rows) == 12
        assert all(entry["matched"] for entry in report.values())
        assignment = derive_mod.solve_sol(rows, system)
        for eq in rows.values():
            assert system.ctx.substitute(eq.poly, assignment).is_zero()
        for name, value in SOL.items():
            assert (assignment[name] - value).is_zero()
        inp = recorded(derive_mod.verify_inp, assignment)
        assert [c["status"] for c in inp.values()] == ["pass", "pass"]


def test_thirty_six_equations(system, derived):
    with criterion("36 equations: exact membership with stated multipliers, < 60 s"):
        t0 = time.perf_counter()
        rows, report = derive_mod.derive_36(derived.rules, derived.components, system.nonzero)
        assert len(rows) == 36
        assert all(entry["matched"] for entry in report.values())
        assert recorded(derive_mod.verify_multipliers, rows)["multipliers"]["status"] == "pass"
        stated = {"c": "256*lam^2*sig^3", "h": "512*lam^2*sig^4", "j": "32*lam*sig^2"}
        for label, text in stated.items():
            assert rows[label].provenance["multiplier"].lstrip("-") == text
        variants = recorded(derive_mod.verify_symmetry_variants, derived.equations)
        assert variants["variants"]["status"] == "pass"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"equation suite took {elapsed:.2f} s"


def test_dependence_and_constraint_combinations(derived):
    with criterion("combinations: four dependence relations and both constraints exact"):
        table = recorded(derive_mod.verify_dependence_relations, derived.equations)
        for name in ("e3", "e1", "i1", "i3", "intro_a", "intro_b"):
            assert table[f"combo-{name}"]["status"] == "pass", table[f"combo-{name}"]


def test_case_pipelines(system, derived):
    with criterion("cases: const-lambda, integrable case, functional-dependence case"):
        def failed(checks):
            return [c for c in checks if c["status"] != "pass"]

        const = cases_mod.run_const_lambda(system, derived.components)
        assert not failed(const) and const[-1]["label"] == "sig = 0"

        case2 = cases_mod.run_case_ii(system, derived.equations)
        assert not failed(case2), failed(case2)
        tags = {c["id"] for c in case2}
        assert {"suc-1", "suc-2", "suc-3", "suc-4", "lts-1", "lts-2",
                "els-i", "els-ii", "final"} <= tags
        [conclusion] = [c for c in case2 if c["id"] == "conclusion"]
        assert conclusion["label"] == str(lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4)
        cert = cases_mod.sos_certificate(lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4)
        acc = Poly.zero()
        for c, q in cert:
            assert c > 0
            acc = acc + Poly.const(c) * q * q
        assert acc == lam**4 - 5 * lam**2 * sig**2 + 12 * sig**4
        assert cert[1][0] == Fraction(23, 4)

        case3 = cases_mod.run_case_iii(system, derived.equations)
        assert not failed(case3), failed(case3)
        tags = {c["id"] for c in case3}
        assert {"fsq-i-a", "fsq-i-b", "fsq-ii-a", "fsq-ii-b", "rule-1", "rule-2",
                "rule-3", "rewrite-d", "rewrite-d1", "rewrite-d2", "rewrite-d3",
                "rewrite-h", "rewrite-h4", "final"} <= tags


def test_numeric_sweep():
    with criterion("numeric: 100-point sweep, all residuals < 1e-12, < 2 s"):
        import random

        t0 = time.perf_counter()
        report = numeric_mod.sweep(points=100, seed=0, tol=1e-12)
        assert report["ok"], report["worst"]
        assert report["worst"]["scalar"] == 0.0
        assert report["worst"]["curvature_symmetry"] < 1e-14
        # independent route: brute-force norm over all 256 index tuples
        rng = random.Random(0)
        for _ in range(100):
            lam_v, sig_v = rng.uniform(-2, 2), rng.uniform(-2, 2)
            R = numeric_mod.build_curvature(lam_v, sig_v).R
            total = 0.0
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        for l in range(4):
                            total += R[i, j, k, l] ** 2
            assert abs(total - (8 * lam_v**2 + 32 * sig_v**2)) < 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"numeric sweep took {elapsed:.2f} s"


def test_symmetry_claims(system, derived):
    with criterion("symmetry: order 32, conjugation rules, exact rotation expansion"):
        group = recorded(derive_mod.verify_group)
        assert group["order"]["detail"] == "32"
        assert all(c["status"] == "pass" for c in group.values())
        assert recorded(derive_mod.rotation_invariance)["rotation"]["status"] == "pass"
        closure = recorded(derive_mod.verify_group_closure, derived.equations)["closure"]
        assert closure["status"] == "pass", closure["detail"]
        invariance = recorded(derive_mod.verify_system_invariance, system)["system-invariance"]
        assert invariance["status"] == "pass", invariance["detail"]
        pt = numeric_mod.build_curvature(1.5, -0.5)
        orbit = numeric_mod.symmetry_orbit_check(pt, seed=0, angles=16)
        assert orbit["group_elements"] == 32
        assert orbit["group_residual"] < 1e-12
        assert orbit["rotation_residual"] < 1e-12


MALFORMED_FIXTURES = (
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A B^F\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^Q\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\ntwist A B\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd Q = A^B\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^F\nd A = C^G\n",
    "frame A B C D\nscalars lambda sigma\noneforms F\nnonzero tau\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^F + ?\n",
    "frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A =\n",
)


def test_parser_gate(system):
    with criterion("parser: shipped file round-trips, 10 malformed fixtures located"):
        from importlib import resources

        text = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
        assert serialize(parse_eds(text)) == text
        assert len(MALFORMED_FIXTURES) == 10
        for fixture in MALFORMED_FIXTURES:
            with pytest.raises(EdsParseError) as err:
                parse_eds(fixture)
            assert err.value.line >= 1 and err.value.column >= 1
