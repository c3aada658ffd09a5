"""Custody gates: every suite reads the rows and components derived once from
the given file, and a suite whose derived input failed reports itself
`blocked`.

The mutants in `data/mutants.tsv` are the 54 single-term mutants of the
shipped file (each term of each `d` rule doubled, or its sign flipped), one
line each: the label, a tab, and the `d` rule line that replaces the shipped
one.
"""

import contextlib
import io
import json
import re
import tempfile
from collections import Counter
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edsverify.derive as D
import edsverify.structure as S
from edsverify.cli import RUNNERS, main

SHIPPED = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
MUTANTS = dict(line.split("\t") for line in
               (Path(__file__).parent / "data" / "mutants.tsv").read_text().splitlines())
NONZERO_LINE = "nonzero lambda sigma mu+ mu- lambda3\n"


def mutant_text(label: str) -> str:
    rule = MUTANTS[label]
    shipped_rule = next(l for l in SHIPPED.splitlines() if l.startswith(rule.split("=")[0]))
    assert shipped_rule != rule
    return SHIPPED.replace(shipped_rule + "\n", rule + "\n")


def run_all(text: str, tmp_path: Path) -> tuple[int, dict]:
    """`all --points 1` on the EDS text: the exit code and suite -> checks,
    numeric excluded."""
    eds, out = tmp_path / "system.eds", tmp_path / "all.json"
    eds.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["all", "--eds", str(eds), "--points", "1", "--json", str(out)])
    suites = json.loads(out.read_text())["suites"]
    return code, {s["suite"]: s["checks"] for s in suites if s["suite"] != "numeric"}


def test_mutation_matrix(tmp_path):
    """Every suite fails or is blocked on every mutant, except nel, sol and
    case-const-lambda on the two mutants of the F^L term of d G: those leave
    the first-order rows and the component solve as they are.  A blocked
    suite reports exactly one check, naming a check that failed upstream."""
    assert len(MUTANTS) == 54
    passes = {name: [] for name in RUNNERS if name != "numeric"}
    for label in MUTANTS:
        code, suites = run_all(mutant_text(label), tmp_path)
        assert code == 1, label
        failed = {c["id"]: c for checks in suites.values() for c in checks if c["status"] == "fail"}
        for name, checks in suites.items():
            assert all(c["id"] != "suite-error" for c in checks), (label, name)
            if all(c["status"] == "pass" for c in checks):
                passes[name].append(label)
            elif any(c["id"] == "blocked" for c in checks):
                [blocked] = checks
                upstream = failed[blocked["label"]]
                assert upstream["id"] != "blocked" and blocked["detail"] == upstream["detail"]
    unaffected = ["G.3.double", "G.3.flip"]
    assert passes == {
        "structure": [], "nel": unaffected, "sol": unaffected, "equations36": [],
        "combos": [], "symmetry": [], "case-const-lambda": unaffected,
        "case-ii": [], "case-iii": [],
    }


@pytest.mark.parametrize("nonzero, missing", [
    ("nonzero lambda\n", "sig"),
    ("", "lam, sig"),
])
def test_a_solve_that_divides_by_an_undeclared_atom_fails(nonzero, missing, tmp_path):
    """The solve divides by its determinant 65536 lam^4 sig^8, so every atom
    of it must be declared nonzero; every suite that reads the solution is
    then blocked by the failed solve."""
    code, suites = run_all(SHIPPED.replace(NONZERO_LINE, nonzero), tmp_path)
    assert code == 1
    solve = suites["sol"][0]
    assert [c["status"] for c in suites["sol"]] == ["fail"]
    assert solve["detail"] == ("determinant 65536*lam^4*sig^8 divides by atoms "
                               f"not declared nonzero: {missing}")
    for name in ("equations36", "combos", "symmetry", "case-const-lambda", "case-ii", "case-iii"):
        assert suites[name] == [{"id": "blocked", "label": "solve", "status": "fail",
                                 "detail": solve["detail"]}], name


def test_a_pipeline_assumes_only_declared_atoms(tmp_path):
    """case-ii divides by lam3, mu+ and mu-: a file that declares only lambda
    and sigma nonzero fails its assumptions check, and only that."""
    code, suites = run_all(SHIPPED.replace(NONZERO_LINE, "nonzero lambda sigma\n"), tmp_path)
    assert code == 1
    failed = [(name, c["id"], c["detail"]) for name, checks in suites.items()
              for c in checks if c["status"] == "fail"]
    assert failed == [("case-ii", "assumptions", "divides by atoms not declared nonzero: lam3, mu+, mu-")]


SOLVE_BLOCKS = ("equations36", "combos", "symmetry", "case-const-lambda", "case-ii", "case-iii")


@pytest.mark.parametrize("word, atom", [
    ("lambda", "lam"), ("sigma", "sig"), ("mu+", "mu+"), ("mu-", "mu-"), ("lambda3", "lam3"),
])
def test_dropping_one_atom_fails_exactly_what_divides_by_it(word, atom, tmp_path):
    """The solve divides by lam and sig, case-ii by lam3, mu+ and mu-: a file
    that leaves out one atom fails the first check that divides by it, and
    only that, with the suites that read a failed solve blocked."""
    nonzero = NONZERO_LINE.replace(f" {word} ", " ").replace(f" {word}\n", "\n")
    assert nonzero != NONZERO_LINE
    code, suites = run_all(SHIPPED.replace(NONZERO_LINE, nonzero), tmp_path)
    assert code == 1
    failed = [(name, c["id"], c["detail"]) for name, checks in suites.items()
              for c in checks if c["status"] == "fail"]
    if atom in ("lam", "sig"):
        detail = f"determinant 65536*lam^4*sig^8 divides by atoms not declared nonzero: {atom}"
        assert failed == [("sol", "solve", detail)] + [(name, "blocked", detail) for name in SOLVE_BLOCKS]
    else:
        assert failed == [("case-ii", "assumptions", f"divides by atoms not declared nonzero: {atom}")]


def test_a_file_without_d_S_fails_only_the_nel_rows_that_read_it(tmp_path):
    """d F gives nel-i..iv without d S, so they still match; d(dS-dL) and
    d(dS+dL) cannot be formed, and their eight rows fail with the missing
    rule as the residual.  The solve fails on exactly those rows."""
    code, suites = run_all("".join(l for l in SHIPPED.splitlines(True) if not l.startswith("d S ")),
                           tmp_path)
    assert code == 1
    first = [f"nel-{row}" for row in ("i", "ii", "iii", "iv")]
    rest = [f"nel-{row}" for row in ("v", "vi", "vii", "viii", "ix", "x", "xi", "xii")]
    nel = {c["id"]: (c["status"], c["detail"]) for c in suites["nel"]}
    assert sorted(nel) == sorted(first + rest)
    assert all(nel[label][0] == "pass" for label in first)
    missing = "residual no exterior-derivative rule for basis form 'S'"
    assert {label: nel[label] for label in rest} == dict.fromkeys(rest, ("fail", missing))
    assert suites["sol"][0]["detail"] == f"unmatched first-order rows: {', '.join(rest)}"


def test_the_product_model_fails_only_the_curvature_table_in_structure(tmp_path):
    """S^2(lambda) x H^2(-lambda), written in the shipped format, has F and G
    inert: their role slots are zero.  Its grid keeps the pattern and
    absorbs every coframe rule, so every structure check passes but
    curvature-table, whose table holds the proper system's sigma."""
    text = (Path(__file__).parent / "data" / "product-s2xh2.eds").read_text()
    assert S.parse_eds(text).roles == (None, None, "L", "S")
    code, suites = run_all(text, tmp_path)
    assert code == 1
    assert [(c["id"], c["status"]) for c in suites["structure"]] == [
        ("connection-pattern", "pass"), ("torsion-1", "pass"), ("torsion-2", "pass"),
        ("torsion-3", "pass"), ("torsion-4", "pass"), ("curvature-table", "fail"),
        ("covariant-derivatives", "pass"), ("d2-A", "pass"), ("d2-B", "pass"), ("d2-C", "pass"),
        ("d2-D", "pass"), ("kahler-closed", "pass"),
    ]


def renamed(text: str, names: dict) -> str:
    """The EDS text with each word that `names` holds renamed."""
    return re.sub(r"[A-Za-z][A-Za-z0-9_]*", lambda m: names.get(m.group(), m.group()), text)


def seed0_report(text: str, tmp: Path) -> tuple[int, bytes]:
    """`all --seed 0` on the EDS text: the exit code and the JSON report bytes."""
    eds, out = tmp / "system.eds", tmp / "all.json"
    eds.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["all", "--seed", "0", "--eds", str(eds), "--json", str(out)])
    return code, out.read_bytes()


@pytest.fixture(scope="module")
def shipped_seed0(tmp_path_factory):
    code, report = seed0_report(SHIPPED, tmp_path_factory.mktemp("shipped"))
    assert code == 0
    return code, report


@pytest.mark.parametrize("names", [
    {"F": "P"}, {"S": "T"}, {"F": "Phi", "G": "Gam", "L": "Lo", "S": "Tr"},
])
def test_renaming_the_auxiliary_forms_keeps_the_report(names, shipped_seed0, tmp_path):
    """The connection and the roles are read off the rules, so the names of
    the auxiliary 1-forms do not reach the report."""
    assert seed0_report(renamed(SHIPPED, names), tmp_path) == shipped_seed0


#: a 1-form name the parser accepts that the shipped file does not use
fresh_names = st.builds(
    str.__add__, st.sampled_from("PQTUVWXYZabcdefghijk"), st.text("EHMNabcxyz0123_", max_size=4))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.dictionaries(st.sampled_from("FGLS"), fresh_names, min_size=1, max_size=4)
       .filter(lambda names: len(set(names.values())) == len(names)))
def test_any_fresh_names_keep_the_report(shipped_seed0, names):
    with tempfile.TemporaryDirectory() as tmp:
        assert seed0_report(renamed(SHIPPED, names), Path(tmp)) == shipped_seed0


def test_derivation_runs_once_per_run(monkeypatch):
    """One `all` derives the nel rows, the solve and the 36 rows once each;
    `numeric` derives nothing, and a second run derives again."""
    calls = []
    for name in ("derive_nel", "solve_sol", "derive_36"):
        def counted(*args, _name=name, _fn=getattr(D, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(D, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["numeric", "--points", "1"]) == 0
        assert calls == []
        for _ in range(2):
            assert main(["all", "--points", "1"]) == 0
    assert calls == ["derive_nel", "solve_sol", "derive_36"] * 2


def test_each_derived_input_is_built_once(monkeypatch):
    """One `all --seed 0` expands each d-rule in the solved components once
    and reads one connection grid off the system's coframe rules
    (`StructureSystem.connection`)."""
    derivations, expanded, grids = [], Counter(), []

    class Recorded(D.Derivation):
        def __init__(self, sys_):
            super().__init__(sys_)
            derivations.append(self)

    def substitute(form, mapping):
        for d in derivations:
            if mapping is d.__dict__.get("components"):
                expanded.update(n for n, rule in d.sys.d_rules.items() if rule is form)
        return real_substitute(form, mapping)

    def read_off(system):
        grids.append(system)
        return real_read_off(system)

    real_substitute, real_read_off = S.substitute_one_forms, S.StructureSystem.connection.func
    monkeypatch.setattr(D, "Derivation", Recorded)
    for module in (S, D):
        monkeypatch.setattr(module, "substitute_one_forms", substitute)
    connection = cached_property(read_off)
    connection.__set_name__(S.StructureSystem, "connection")
    monkeypatch.setattr(S.StructureSystem, "connection", connection)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all", "--seed", "0"]) == 0
    (derived,) = derivations
    assert expanded == Counter(dict.fromkeys(derived.sys.d_rules, 1))
    assert grids == [derived.sys]


def test_the_printed_determinant_is_the_determinant_of_the_solved_system(derived, tmp_path):
    """The determinant in the solve's failure detail is that of the matrix
    `solve_sol` builds (rows in sorted-label order, columns in NEL_UNKNOWNS
    order), computed here independently by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    def parse(text):
        return parse_expr(text, transformations=standard_transformations + (convert_xor,))

    matrix, _ = D.nel_system(derived.nel[0])
    assert all(not entry.den for row in matrix for entry in row)
    det = sympy.Matrix([[parse(str(entry.num)) for entry in row] for row in matrix]).det()
    _, suites = run_all(SHIPPED.replace(NONZERO_LINE, "nonzero lambda\n"), tmp_path)
    printed = suites["sol"][0]["detail"].split()[1]
    assert sympy.expand(det - parse(printed)) == 0
    assert printed == "65536*lam^4*sig^8"


def test_the_solved_system_splits_into_four_three_by_three_blocks(derived):
    from edsverify.algebra import _blocks, _clear_rows

    matrix, rhs = D.nel_system(derived.nel[0])
    blocks = _blocks(_clear_rows(matrix, rhs)[0])
    assert [(len(rows), len(cols)) for rows, cols in blocks] == [(3, 3)] * 4
    assert sorted(i for rows, _ in blocks for i in rows) == list(range(12))
    assert sorted(j for _, cols in blocks for j in cols) == list(range(12))
