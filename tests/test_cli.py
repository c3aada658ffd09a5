import json
import os
import subprocess
import sys

from pathlib import Path

import pytest

from edsverify.cli import RUNNERS, main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "edsverify.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_suite_passes_in_process(tmp_path):
    out = tmp_path / "r.json"
    assert main(["combos", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "combos"
    assert data["overall"] == "pass"
    assert all(c["status"] == "pass" for c in data["checks"])


def test_json_round_trips(tmp_path):
    out = tmp_path / "r.json"
    main(["nel", "--json", str(out)])
    data = json.loads(out.read_text())
    assert json.loads(json.dumps(data)) == data


def test_unknown_suite_exits_2():
    result = run_cli("no-such-suite")
    assert result.returncode == 2


def test_unknown_flag_exits_2():
    result = run_cli("combos", "--frobnicate")
    assert result.returncode == 2


def test_points_below_one_is_a_usage_error(capsys):
    for argv in (["numeric", "--points", "0"], ["numeric", "--points", "-5"],
                 ["all", "--points", "0"], ["numeric", "--points", "two"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err


def test_tolerance_must_be_finite_and_positive(capsys):
    for tol in ("inf", "nan", "0", "-1"):
        for suite in ("numeric", "all"):
            with pytest.raises(SystemExit) as exc:
                main([suite, "--points", "5", "--tol", tol])
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err


def test_parse_failure_exits_3(tmp_path):
    bad = tmp_path / "bad.eds"
    bad.write_text("frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^\n")
    result = run_cli("combos", "--eds", str(bad))
    assert result.returncode == 3
    assert "line 4" in result.stderr


def test_non_utf8_eds_is_a_parse_error_at_the_bad_byte(tmp_path):
    bad = tmp_path / "latin1.eds"
    bad.write_bytes(b"frame A B C D\nscalars lambda sigma\n# caf\xe9\n")
    result = run_cli("combos", "--eds", str(bad))
    assert result.returncode == 3
    assert "line 3, column 6" in result.stderr
    assert "Traceback" not in result.stderr


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "r.json"
    assert main(["combos", "--json", str(target)]) == 2
    assert f"cannot write {target}: " in capsys.readouterr().err
    assert not target.exists()


def test_seeded_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["numeric", "--seed", "7", "--points", "25", "--json", str(a)]) == 0
    assert main(["numeric", "--seed", "7", "--points", "25", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_numeric_flags(tmp_path):
    out = tmp_path / "n.json"
    assert main(["numeric", "--seed", "3", "--points", "10", "--tol", "1e-10", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    ids = {c["id"] for c in data["checks"]}
    assert "sweep-weakly_einstein" in ids and "orbit-group" in ids


def test_case_ii_report_mentions_certificate(tmp_path, capsys):
    assert main(["case-ii"]) == 0
    captured = capsys.readouterr()
    assert "case-ii" in captured.out
    assert "5/2*sig^2" in captured.out  # the certificate is printed


def test_modified_system_fails_cleanly(tmp_path):
    # flip a sign in the dS rule: suites must fail, not crash
    from importlib import resources

    text = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
    broken = text.replace("d S = -lambda A^B + lambda C^D", "d S = lambda A^B + lambda C^D")
    path = tmp_path / "broken.eds"
    path.write_text(broken)
    out = tmp_path / "broken.json"
    code = main(["structure", "--eds", str(path), "--json", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["overall"] == "fail"


def test_a_missing_auxiliary_rule_fails_only_the_structure_checks_that_read_it(tmp_path):
    """Without its `d S` line a file has no curvature and no d^2 of the
    coframe, since both reach d S; each of those checks fails naming the
    missing rule, and the checks that read only the coframe rules and the
    connection grid still report."""
    from importlib import resources

    shipped = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
    line = "d S = -lambda A^B + lambda C^D\n"
    assert line in shipped
    eds = tmp_path / "no-dS.eds"
    eds.write_text(shipped.replace(line, ""))
    out = tmp_path / "r.json"
    assert main(["structure", "--eds", str(eds), "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    missing = "no exterior-derivative rule for basis form 'S'"
    failed = ["curvature-table", "d2-A", "d2-B", "d2-C", "d2-D"]
    assert [c["id"] for c in checks] == [
        "connection-pattern", "torsion-1", "torsion-2", "torsion-3", "torsion-4",
        "curvature-table", "covariant-derivatives", *failed[1:], "kahler-closed"]
    for c in checks:
        if c["id"] in failed:
            assert (c["status"], c["detail"]) == ("fail", missing), c
        else:
            assert c["status"] == "pass", c


#: the six single-term mutants of the shipped `d G` rule: each term doubled
#: or sign-flipped in turn
G_MUTANTS = (
    "-2 sigma A^D + sigma B^C + F^L",
    "sigma A^D + sigma B^C + F^L",
    "-sigma A^D + 2 sigma B^C + F^L",
    "-sigma A^D - sigma B^C + F^L",
    "-sigma A^D + sigma B^C + 2 F^L",
    "-sigma A^D + sigma B^C - F^L",
)


@pytest.mark.parametrize("rule", G_MUTANTS)
def test_equations36_fails_on_a_changed_dG_rule(rule, tmp_path):
    """A changed sigma term of d G changes the first-order rows, so the solve
    fails and blocks the suite.  A changed F^L term leaves them, and the
    components, as they are: it enters the 36 equations only through the
    cross-check of the six symmetry-generated ones, so that check must decide
    their status."""
    from importlib import resources

    shipped = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
    line = "d G = -sigma A^D + sigma B^C + F^L\n"
    assert line in shipped
    eds = tmp_path / "mutant.eds"
    eds.write_text(shipped.replace(line, f"d G = {rule}\n"))
    out = tmp_path / "r.json"
    assert main(["equations36", "--eds", str(eds), "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    if rule.startswith("-sigma A^D + sigma B^C "):  # only the F^L term changed
        generated = {"eq-c1", "eq-c5", "eq-d1", "eq-d2", "eq-e1", "eq-e2"}
        failed = [c for c in checks if c["status"] == "fail"]
        assert {c["id"] for c in failed} == generated
        assert all(c["trace"]["matched"] and not c["trace"]["dG_cross_check"] for c in failed)
    else:
        assert [(c["id"], c["label"], c["status"]) for c in checks] == [("blocked", "solve", "fail")]
        assert "unmatched first-order rows: nel-" in checks[0]["detail"]


#: the single-term mutants of the shipped `d F`, `d L` and `d S` rules: each
#: term doubled or sign-flipped in turn
FLS_MUTANTS = (
    ("F", "2 sigma A^C + sigma B^D - G^L"),
    ("F", "-sigma A^C + sigma B^D - G^L"),
    ("F", "sigma A^C + 2 sigma B^D - G^L"),
    ("F", "sigma A^C - sigma B^D - G^L"),
    ("F", "sigma A^C + sigma B^D - 2 G^L"),
    ("F", "sigma A^C + sigma B^D + G^L"),
    ("L", "-2 lambda A^B - lambda C^D - 4 F^G"),
    ("L", "lambda A^B - lambda C^D - 4 F^G"),
    ("L", "-lambda A^B - 2 lambda C^D - 4 F^G"),
    ("L", "-lambda A^B + lambda C^D - 4 F^G"),
    ("L", "-lambda A^B - lambda C^D - 8 F^G"),
    ("L", "-lambda A^B - lambda C^D + 4 F^G"),
    ("S", "-2 lambda A^B + lambda C^D"),
    ("S", "lambda A^B + lambda C^D"),
    ("S", "-lambda A^B + 2 lambda C^D"),
    ("S", "-lambda A^B - lambda C^D"),
)


@pytest.mark.parametrize("name,rule", FLS_MUTANTS)
def test_unmatched_rows_are_failed_checks_with_residuals(name, rule, tmp_path):
    """A changed d F, d L or d S rule leaves derived rows unmatched.  Each
    one is its own failed check carrying its residual, no suite collapses
    into a suite-error, sol refuses to solve, naming exactly the nel rows
    that failed, and equations36, which reads the solved components, reports
    itself blocked by that solve."""
    import re
    from importlib import resources

    shipped = resources.files("edsverify").joinpath("data", "weakly-einstein.eds").read_text()
    line = next(l for l in shipped.splitlines(keepends=True) if l.startswith(f"d {name} = "))
    eds = tmp_path / "mutant.eds"
    eds.write_text(shipped.replace(line, f"d {name} = {rule}\n"))
    checks = {}
    for suite in ("nel", "sol", "equations36"):
        out = tmp_path / f"{suite}.json"
        assert main([suite, "--eds", str(eds), "--json", str(out)]) == 1
        checks[suite] = json.loads(out.read_text())["checks"]
        assert all(c["id"] != "suite-error" for c in checks[suite]), suite
    failed = [c for c in checks["nel"] if c["status"] == "fail"]
    failed_nel = {c["id"] for c in failed}
    assert failed_nel
    for c in failed:
        residual = re.search(r"residual (.+)$", c["detail"])
        assert residual and residual.group(1) != "0", c
    solve = checks["sol"][0]
    assert solve["id"] == "solve" and solve["status"] == "fail"
    assert set(re.findall(r"nel-[ivx]+", solve["detail"])) == failed_nel
    assert checks["equations36"] == [{"id": "blocked", "label": "solve", "status": "fail",
                                      "detail": solve["detail"]}]


TASKS = "/proc/self/task"
#: run in a fresh interpreter: run the numeric suite through the CLI, which
#: imports numpy, then print the BLAS thread setting, the number of threads
#: the process holds (-1 without TASKS) and whether numpy was loaded
_THREAD_PROBE = (
    "import contextlib, io, os, sys, edsverify.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    edsverify.cli.main(['numeric', '--points', '1'])\n"
    f"tasks = len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else -1\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], tasks, 'numpy' in sys.modules)\n"
)


def _probe_threads(**env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=base | env,
                          capture_output=True, text=True, check=True)
    setting, threads, numpy_loaded = done.stdout.split()
    assert numpy_loaded == "True"
    return setting, int(threads)


@pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"needs {TASKS}")
def test_cli_import_starts_no_blas_threads():
    assert _probe_threads() == ("1", 1)


def test_cli_keeps_a_user_blas_thread_setting():
    setting, _ = _probe_threads(OPENBLAS_NUM_THREADS="2")
    assert setting == "2"


#: run in a fresh interpreter: the CLI on the given arguments, then its exit
#: code, every module in the order it was first loaded, and whether numpy was
#: loaded when the EDS parser was first called
_IMPORT_PROBE = """
import contextlib, io, json, sys
seen = {}
def probe(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "parse_eds":
        seen["numpy_at_parse"] = "numpy" in sys.modules
        sys.setprofile(None)
sys.setprofile(probe)
from edsverify.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": list(sys.modules), **seen}))
"""


def test_all_loads_transcriptions_then_numpy_then_parses():
    """The load order of `all` sets its peak RSS: the transcriptions before
    numpy, and numpy before the EDS is parsed."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "all", "--points", "1"],
                          capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["exit"] == 0
    modules = probe["modules"]
    assert modules.index("edsverify.equations") < modules.index("numpy")
    assert probe["numpy_at_parse"] is True


#: run in a fresh interpreter: `all --seed 0` twice under cProfile, then the
#: number of `Poly.__mul__` calls of each run
_MUL_PROBE = """
import contextlib, cProfile, io, json
from edsverify.algebra import Poly
from edsverify.cli import main
code = Poly.__mul__.__code__
counts = []
for _ in range(2):
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        assert profile.runcall(main, ["all", "--seed", "0"]) == 0
    profile.create_stats()
    counts.append(profile.stats[(code.co_filename, code.co_firstlineno, code.co_name)][1])
print(json.dumps(counts))
"""


def test_a_second_run_in_one_process_multiplies_as_often_as_the_first():
    """No cache outlives a run: the first `all` of a process and the second
    make the same polynomial products, so a warm run hides no work."""
    done = subprocess.run([sys.executable, "-c", _MUL_PROBE], capture_output=True, text=True, check=True)
    first, second = json.loads(done.stdout.splitlines()[-1])
    assert first == second > 0


GOLDEN = Path(__file__).parent / "data" / "all-seed0.symbolic.json"
MUTANT = Path(__file__).parent / "data" / "mutant-F.1.double.eds"


def run_process(*argv, unbuffered=False, **kwargs):
    """`python -m edsverify.cli` with stdout block-buffered unless
    `unbuffered`, so the output must survive the process's flush and exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env |= {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "edsverify.cli", *argv],
                          stderr=subprocess.PIPE, text=True, env=env, **kwargs)


def test_all_process_flushes_its_output_before_exiting(tmp_path):
    out = tmp_path / "all.json"
    done = run_process("all", "--seed", "0", "--json", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    suites = [line.split(":")[0] for line in lines if line.startswith("[")]
    assert suites == [f"[PASS] {name}" for name in RUNNERS]
    assert lines[-1].startswith("[PASS] numeric: ") and done.stdout.endswith("\n")
    report = json.loads(out.read_text(encoding="utf-8"))
    report["suites"] = [s for s in report["suites"] if s["suite"] != "numeric"]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_a_mutant_process_exits_1(tmp_path):
    out = tmp_path / "mutant.json"
    done = run_process("all", "--eds", str(MUTANT), "--seed", "0", "--json", str(out))
    assert (done.returncode, done.stderr) == (1, "")
    assert "FAIL" in done.stdout
    assert json.loads(out.read_text(encoding="utf-8"))["overall"] == "fail"


def test_usage_and_parse_errors_reach_stderr_with_their_exit_codes(tmp_path):
    bad = tmp_path / "bad.eds"
    bad.write_text("frame A B C D\nscalars lambda sigma\noneforms F G L S\nd A = B^\n")
    unwritable = tmp_path / "no-such-dir" / "r.json"
    for argv, code, message in (
        (("combos", "--frobnicate"), 2, "unrecognized arguments"),
        (("combos", "--json", str(unwritable)), 2, f"cannot write {unwritable}: "),
        (("combos", "--eds", str(bad)), 3, "line 4"),
    ):
        done = run_process(*argv)
        assert done.returncode == code, argv
        assert message in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("unbuffered, code, message", [
    (True, 1, "BrokenPipeError"),  # the first print raises inside main
    (False, 120, "Exception ignored"),  # the exit's own flush fails
])
def test_a_closed_stdout_pipe_fails_as_an_ordinary_exit_would(unbuffered, code, message):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = run_process("all", "--points", "1", unbuffered=unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert message in done.stderr and "BrokenPipeError" in done.stderr
