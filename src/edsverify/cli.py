"""Batch front-end: run verification suites, emit human-readable and JSON
reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (or a file
that cannot be read or written), 3 EDS parse failure.  JSON output is
deterministic for a fixed seed (timings appear only on stdout).

`main()` returns the exit code, for in-process callers.  The command line
(`python -m edsverify.cli` and the `edsverify` script) goes through `run()`,
which flushes stdout and stderr and then ends the process with `os._exit`,
skipping interpreter teardown: the report is written and closed by then,
and nothing registers an `atexit` hook or starts a thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# The only LAPACK call is eigvalsh on 4x4 matrices, which a BLAS worker pool
# does not speed up; without this, importing numpy starts one worker per extra
# core.  Set before numpy's first import; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cases, derive, numeric, structure
from .structure import EdsParseError, check, load_system


def run_structure(derived, args) -> list:
    checks = []
    structure.verify_parallel_g_J(derived.sys, checks)
    structure.verify_torsion(derived.sys, checks)
    structure.verify_curvature(derived.sys, checks)
    structure.verify_covariant_derivatives(derived.sys, checks)
    structure.verify_closed(derived.sys, checks)
    return checks


def run_nel(derived, args) -> list:
    return list(derived.nel[1])


def run_sol(derived, args) -> list:
    assignment, solved = derived.solve
    checks = [solved]
    if assignment is not None:
        derive.verify_components(assignment, checks)
        derive.verify_inp(assignment, checks)
    return checks


def run_equations36(derived, args) -> list:
    rows, checks = derived.eq36
    checks = list(checks)
    derive.verify_multipliers(rows, checks)
    derive.verify_symmetry_variants(derived.equations, checks)
    derive.integrability_criterion(derived.rules, checks)
    return checks


def run_combos(derived, args) -> list:
    checks = []
    derive.verify_dependence_relations(derived.equations, checks)
    return checks


def run_symmetry(derived, args) -> list:
    """Only `closure` reads the derived rows, so a failed read blocks it alone."""
    checks = []
    derive.verify_group(checks)
    try:
        derive.verify_group_closure(derived.equations, checks)
    except derive.Blocked as exc:
        _blocked(checks, exc)
    derive.verify_system_invariance(derived.sys, checks)
    derive.rotation_invariance(checks)
    return checks


def run_case_const_lambda(derived, args) -> list:
    return cases.run_const_lambda(derived.sys, derived.components)


def run_case_ii(derived, args) -> list:
    return cases.run_case_ii(derived.sys, derived.equations)


def run_case_iii(derived, args) -> list:
    return cases.run_case_iii(derived.sys, derived.equations)


def run_numeric(derived, args) -> list:
    checks = []
    numeric.verify_residuals(args.points, args.seed, checks)
    return checks


def _blocked(checks: list, exc: derive.Blocked):
    """Record `blocked`, naming the failed check a read met, with its detail."""
    check(checks, "blocked", exc.check["id"], False, exc.check["detail"])


RUNNERS = {
    "structure": run_structure,
    "nel": run_nel,
    "sol": run_sol,
    "equations36": run_equations36,
    "combos": run_combos,
    "symmetry": run_symmetry,
    "case-const-lambda": run_case_const_lambda,
    "case-ii": run_case_ii,
    "case-iii": run_case_iii,
    "numeric": run_numeric,
}

SUITES = (*RUNNERS, "all")


def _point_count(text: str) -> int:
    """--points, an argparse type: a sweep over no points checks nothing."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsverify",
        description="Exact verification suites for the weakly-Einstein exterior system",
    )
    parser.add_argument("suite", choices=SUITES, help="verification suite to run")
    parser.add_argument("--eds", default=None, help="EDS file (default: shipped system)")
    parser.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    parser.add_argument("--points", type=_point_count, default=100,
                        help="numeric sweep size, at least 1")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys_ = load_system(args.eds)
    except EdsParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read {args.eds}: {exc}", file=sys.stderr)
        return 2
    names = list(RUNNERS) if args.suite == "all" else [args.suite]
    derived = derive.Derivation(sys_)  # each part is built on its first read
    suites = []
    overall_ok = True
    for name in names:
        t0 = time.perf_counter()
        try:
            checks = RUNNERS[name](derived, args)
        except derive.Blocked as exc:  # a derived input this suite reads failed
            checks = []
            _blocked(checks, exc)
        except Exception as exc:  # a non-shipped --eds system may break a suite
            checks = []
            check(checks, "suite-error", name, False, f"{type(exc).__name__}: {exc}")
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        ok = all(c["status"] == "pass" for c in checks)
        overall_ok = overall_ok and ok
        suites.append({"suite": name, "checks": checks, "overall": "pass" if ok else "fail"})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {len(checks)} checks, {elapsed_ms:.0f} ms")
        for c in checks:
            if c["status"] != "pass":
                print(f"    FAIL {c['id']} ({c['label']}): {c['detail']}")
            elif c["id"] in ("conclusion", "sos") and c["detail"]:
                print(f"    {c['id']}: {c['label']} -- {c['detail']}")
    report = suites[0] if len(suites) == 1 else {
        "suite": "all",
        "suites": suites,
        "overall": "pass" if overall_ok else "fail",
    }
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 2
    return 0 if overall_ok else 1


def run():
    """The command line: `main()`, then exit without interpreter teardown.

    When a flush fails, as on a closed pipe, `run` exits through `SystemExit`
    instead, and the interpreter reports the failure as it would without `run`.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
