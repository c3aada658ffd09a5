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
    the first-order rows and the component solve as they are.  Each
    `blocked` record names a check that failed upstream, with its detail.
    In symmetry only `closure` reads the rows, so `blocked` takes its place
    and `system-invariance` still reports: it fails on all but the two
    mutants of the F^L term of d L, naming the generator and rule, or the
    role slot that is no basis 1-form."""
    assert len(MUTANTS) == 54
    passes = {name: [] for name in RUNNERS if name != "numeric"}
    blocked_by, invariance = Counter(), Counter()
    for label in MUTANTS:
        code, suites = run_all(mutant_text(label), tmp_path)
        assert code == 1, label
        failed = {c["id"]: c for checks in suites.values() for c in checks
                  if c["status"] == "fail" and c["id"] != "blocked"}
        for name, checks in suites.items():
            assert all(c["id"] != "suite-error" for c in checks), (label, name)
            if all(c["status"] == "pass" for c in checks):
                passes[name].append(label)
            for blocked in (c for c in checks if c["id"] == "blocked"):
                assert blocked["detail"] == failed[blocked["label"]]["detail"], (label, name)
        symmetry = {c["id"]: c for c in suites["symmetry"]}
        assert list(symmetry) == ["order", "conjugation", "composition", "blocked",
                                  "system-invariance", "rotation"], label
        assert all(symmetry[c]["status"] == "pass" for c in ("order", "conjugation", "composition",
                                                              "rotation")), label
        blocked_by[symmetry["blocked"]["label"]] += 1
        detail = symmetry["system-invariance"]["detail"]
        if symmetry["system-invariance"]["status"] == "pass":
            invariance[label] += 1
        elif detail.startswith("role "):
            invariance["role slot"] += 1
        else:
            assert "rule d" in detail, (label, detail)
            invariance["generator and rule"] += 1
    unaffected = ["G.3.double", "G.3.flip"]
    assert passes == {
        "structure": [], "nel": unaffected, "sol": unaffected, "equations36": [],
        "combos": [], "symmetry": [], "case-const-lambda": unaffected,
        "case-ii": [], "case-iii": [],
    }
    assert blocked_by == {"solve": 52, "eq-c1": 2}
    assert invariance == {"generator and rule": 40, "role slot": 12, "L.3.double": 1, "L.3.flip": 1}


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
    blocked = {"id": "blocked", "label": "solve", "status": "fail", "detail": solve["detail"]}
    for name in ("equations36", "combos", "case-const-lambda", "case-ii", "case-iii"):
        assert suites[name] == [blocked], name
    assert [c if c["id"] == "blocked" else (c["id"], c["status"]) for c in suites["symmetry"]] == [
        ("order", "pass"), ("conjugation", "pass"), ("composition", "pass"), blocked,
        ("system-invariance", "pass"), ("rotation", "pass")]


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


def without_rule(name: str) -> str:
    """The shipped file without its rule `d name`."""
    return "".join(l for l in SHIPPED.splitlines(True) if not l.startswith(f"d {name} "))


def test_a_file_without_d_S_fails_only_the_nel_rows_that_read_it(tmp_path):
    """d F gives nel-i..iv without d S, so they still match; d(dS-dL) and
    d(dS+dL) cannot be formed, and their eight rows fail with the missing
    rule as the residual.  The solve fails on exactly those rows."""
    code, suites = run_all(without_rule("S"), tmp_path)
    assert code == 1
    first = [f"nel-{row}" for row in ("i", "ii", "iii", "iv")]
    rest = [f"nel-{row}" for row in ("v", "vi", "vii", "viii", "ix", "x", "xi", "xii")]
    nel = {c["id"]: (c["status"], c["detail"]) for c in suites["nel"]}
    assert sorted(nel) == sorted(first + rest)
    assert all(nel[label][0] == "pass" for label in first)
    missing = "residual no exterior-derivative rule for basis form 'S'"
    assert {label: nel[label] for label in rest} == dict.fromkeys(rest, ("fail", missing))
    assert suites["sol"][0]["detail"] == f"unmatched first-order rows: {', '.join(rest)}"


STRUCTURE_CHECKS = ("connection-pattern", "torsion-1", "torsion-2", "torsion-3", "torsion-4",
                    "curvature-table", "covariant-derivatives", "d2-A", "d2-B", "d2-C", "d2-D",
                    "kahler-closed")


def symmetry_statuses(checks: list) -> list:
    """The symmetry suite's checks as (id, status), with the detail of a
    failed one."""
    return [(c["id"], c["status"]) + ((c["detail"],) if c["status"] == "fail" else ())
            for c in checks]


@pytest.mark.parametrize("name", "ABCD")
def test_a_file_without_a_coframe_rule_fails_each_check_that_reads_it(name, tmp_path):
    """The connection is read off all four coframe rules, and every
    structure check reads it or d of a coframe form: without one rule all
    twelve fail, each naming it.  In symmetry the solve blocks `closure`
    and `system-invariance` names the rule; no suite is a suite-error."""
    code, suites = run_all(without_rule(name), tmp_path)
    assert code == 1
    missing = f"no exterior-derivative rule for basis form {name!r}"
    assert [(c["id"], c["status"], c["detail"]) for c in suites["structure"]] == [
        (check_id, "fail", missing) for check_id in STRUCTURE_CHECKS]
    solve = suites["sol"][0]["detail"]
    assert solve.startswith("unmatched first-order rows: nel-i, ")
    assert symmetry_statuses(suites["symmetry"]) == [
        ("order", "pass"), ("conjugation", "pass"), ("composition", "pass"),
        ("blocked", "fail", solve), ("system-invariance", "fail", missing), ("rotation", "pass")]
    assert all(c["id"] != "suite-error" for checks in suites.values() for c in checks)


@pytest.mark.parametrize("name", "FGLS")
def test_a_file_without_an_aux_rule_fails_system_invariance_naming_it(name, tmp_path):
    code, suites = run_all(without_rule(name), tmp_path)
    assert code == 1
    invariance = {c["id"]: c for c in suites["symmetry"]}["system-invariance"]
    assert (invariance["status"], invariance["detail"]) == (
        "fail", f"no exterior-derivative rule for basis form {name!r}")
    assert all(c["id"] != "suite-error" for checks in suites.values() for c in checks)


def test_a_zeroed_coefficient_fails_system_invariance_at_the_role_slot(tmp_path):
    """With its B^L term zeroed, d A leaves the L role's slot half of L:
    `system-invariance` names the slot, as `covariant-derivatives` does."""
    code, suites = run_all(rewrite_rule(SHIPPED, "A", "1/2 B^L", "0 B^L"), tmp_path)
    assert code == 1
    slot = "role L = Gamma_2^1 - Gamma_4^3 is (1/2) L: neither a basis 1-form nor zero"
    checks = {c["id"]: c for checks in suites.values() for c in checks}
    assert checks["system-invariance"]["detail"] == checks["covariant-derivatives"]["detail"] == slot
    assert symmetry_statuses(suites["symmetry"])[3:5] == [
        ("blocked", "fail", suites["sol"][0]["detail"]), ("system-invariance", "fail", slot)]
    assert "suite-error" not in checks


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


def rewrite_rule(text: str, name: str, old: str, new: str) -> str:
    """The EDS text with `old` replaced by `new` in the rule `d name`."""
    head = f"d {name} = "
    line = next(l for l in text.splitlines(True) if l.startswith(head))
    assert old in line, (line, old)
    return text.replace(line, line.replace(old, new))


def with_macros(text: str) -> str:
    """E = (S + L)/2 and H = (S - L)/2 declared, and used in d B and d C."""
    oneforms = next(l for l in text.splitlines(True) if l.startswith("oneforms "))
    text = text.replace(oneforms, oneforms + "macro E = 1/2 S + 1/2 L\nmacro H = 1/2 S - 1/2 L\n")
    text = rewrite_rule(text, "B", "-1/2 A^L - 1/2 A^S", "-A^E")
    return rewrite_rule(text, "C", "- 1/2 D^L + 1/2 D^S", "+ D^H")


def spaced_and_commented(text: str) -> str:
    """Comment lines and trailing comments, and runs of spaces between tokens."""
    text = rewrite_rule(text, "G", "-sigma A^D + sigma B^C", "-sigma   A^D  +\tsigma B^C")
    text = rewrite_rule(text, "G", "F^L\n", "F^L   # a trailing comment\n")
    return "# the shipped system, presented otherwise\n\n" + text.replace("frame A", "frame   A")


#: the rewrites of the file's presentation that keep its system, each on
#: its own part of the file, so that any subset composes
PRESENTATION = {
    "rules reversed": lambda t: "".join(
        [l for l in t.splitlines(True) if not l.startswith("d ")]
        + [l for l in t.splitlines(True) if l.startswith("d ")][::-1]),
    "wedge flipped with its sign": lambda t: rewrite_rule(t, "A", "+ C^F", "- F^C"),
    "coefficient split": lambda t: rewrite_rule(t, "L", "- 4 F^G", "- 3 F^G - F^G"),
    "unreduced fraction": lambda t: rewrite_rule(t, "D", "+ 1/2 C^L", "+ 2/4 C^L"),
    "zero term": lambda t: rewrite_rule(t, "S", "+ lambda C^D", "+ lambda C^D + 0 B^C"),
    "macros": with_macros,
    "comments and spaces": spaced_and_commented,
}


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(st.sets(st.sampled_from(sorted(PRESENTATION))), st.permutations("FGLS"),
       st.permutations(("lambda", "sigma", "mu+", "mu-", "lambda3")))
def test_any_presentation_keeps_the_report(shipped_seed0, rewrites, oneforms, nonzero):
    """Rule order, `oneforms` and `nonzero` order, a flipped wedge, a split
    coefficient, an unreduced fraction, a zero term, macros, comments and
    whitespace, in any combination, give the shipped report."""
    text = SHIPPED.replace("oneforms F G L S\n", f"oneforms {' '.join(oneforms)}\n")
    text = text.replace(NONZERO_LINE, f"nonzero {' '.join(nonzero)}\n")
    for name in sorted(rewrites):
        text = PRESENTATION[name](text)
    with tempfile.TemporaryDirectory() as tmp:
        assert seed0_report(text, Path(tmp)) == shipped_seed0


SHIPPED_LINES = SHIPPED.splitlines(True)
#: the words a renaming corrupts, and the names it may put in their place
RENAMED_WORDS = re.compile(r"\b(?:[ABCDFGLS]|lambda|sigma)\b")
RENAMED_TO = ("A", "B", "C", "D", "F", "G", "L", "S", "lambda", "sigma", "Q")


@st.composite
def corrupted(draw):
    """The shipped file with one line dropped, duplicated or truncated, one
    term of a rule dropped or given the coefficient 0, or one word renamed."""
    kind = draw(st.sampled_from(("drop", "duplicate", "truncate", "drop term", "zero", "rename")))
    lines = list(SHIPPED_LINES)
    if kind == "rename":
        spot = draw(st.sampled_from(list(RENAMED_WORDS.finditer(SHIPPED))))
        return SHIPPED[:spot.start()] + draw(st.sampled_from(RENAMED_TO)) + SHIPPED[spot.end():]
    if kind in ("drop", "duplicate", "truncate"):
        i = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[i]) - 2))
        lines[i:i + 1] = {"drop": [], "duplicate": [lines[i]] * 2,
                          "truncate": [lines[i][:cut] + "\n"]}[kind]
        return "".join(lines)
    i = draw(st.sampled_from([i for i, l in enumerate(lines) if l.startswith("d ")]))
    head, rhs = lines[i].rstrip("\n").split(" = ")
    terms = re.split(r" (?=[+-] )", rhs)
    j = draw(st.integers(0, len(terms) - 1))
    # a term is [sign] [coefficient] wedge
    terms[j:j + 1] = [] if kind == "drop term" else [
        re.match(r"[+-]? ?", terms[j]).group() + "0 " + terms[j].split()[-1]]
    lines[i] = f"{head} = {' '.join(terms)}\n"
    return "".join(lines)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(corrupted())
def test_any_corruption_fails_cleanly(shipped_seed0, text):
    """`all --seed 0` on a corrupted file exits 1 or 3, or 0 with the shipped
    report; no suite is a `suite-error`, stderr holds no traceback, and a
    parse error names its line and column."""
    with tempfile.TemporaryDirectory() as tmp:
        eds, out, err = Path(tmp) / "system.eds", Path(tmp) / "all.json", io.StringIO()
        eds.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["all", "--seed", "0", "--eds", str(eds), "--json", str(out)])
        report = out.read_bytes() if code != 3 else None
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert re.search(r"line \d+, column \d+", err.getvalue()), err.getvalue()
        return
    assert code == 1 or (code, report) == shipped_seed0
    assert [(s["suite"], c["detail"]) for s in json.loads(report)["suites"]
            for c in s["checks"] if c["id"] == "suite-error"] == []


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
