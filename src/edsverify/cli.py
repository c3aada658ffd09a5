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
import math
import os
import sys
import time

# The only LAPACK call is eigvalsh on 4x4 matrices, which a BLAS worker pool
# does not speed up; without this, importing numpy starts one worker per extra
# core.  Set before numpy's first import; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cases, derive, numeric
from .equations import SOL
from .forms import COFRAME, FormError, ext_d, wedge
from .structure import (
    EdsParseError,
    check,
    expected_curvature,
    load_system,
    torsion_equations,
    verify_covariant_derivatives,
    verify_parallel_g_J,
)


def run_structure(derived, args) -> list:
    sys_ = derived.sys
    try:  # a file without the d-rule of an auxiliary 1-form has no curvature
        R, X = derived.curvature, expected_curvature(sys_)
        bad = [(k + 1, l + 1) for k in range(4) for l in range(4) if not (R[k][l] - X[k][l]).is_zero()]
        curvature = (not bad, f"mismatches: {bad}" if bad else "0")
    except FormError as exc:
        curvature = (False, str(exc))
    checks = []
    verify_parallel_g_J(sys_.connection, checks)
    for k, resid in enumerate(torsion_equations(sys_), start=1):
        check(checks, f"torsion-{k}", f"de^{k}", resid.is_zero(),
              "0" if resid.is_zero() else str(resid))
    check(checks, "curvature-table", "R_k^l", *curvature)
    verify_covariant_derivatives(sys_, checks)
    for name in COFRAME:
        try:
            ok, detail = ext_d(sys_.d_rule(name), sys_).is_zero(), ""
        except FormError as exc:
            ok, detail = False, str(exc)
        check(checks, f"d2-{name}", f"d^2 {name}", ok, detail)
    A, B, C, D = (sys_.one_form(n) for n in COFRAME)
    omega = wedge(A, B) + wedge(C, D)
    check(checks, "kahler-closed", "d omega", ext_d(omega, sys_).is_zero())
    return checks


def run_nel(derived, args) -> list:
    checks = []
    _, report = derived.nel
    for label in sorted(report):
        entry = report[label]
        check(checks, label, label, entry["matched"],
              entry["multiplier"] if entry["matched"] else f"residual {entry['residual']}")
    return checks


def run_sol(derived, args) -> list:
    assignment, solved = derived.solve
    checks = [solved]
    if assignment is None:
        return checks
    for name in sorted(SOL):
        ok = (assignment[name] - SOL[name]).is_zero()
        check(checks, f"component-{name}", name, ok, str(assignment[name]))
    derive.verify_inp(assignment, checks)
    return checks


def run_equations36(derived, args) -> list:
    rows, by_label = derived.eq36
    checks = list(by_label.values())
    derive.verify_multipliers(rows, checks)
    derive.verify_symmetry_variants(derived.equations, checks)
    derive.integrability_criterion(derived.rules, checks)
    return checks


def run_combos(derived, args) -> list:
    checks = []
    derive.verify_dependence_relations(derived.equations, checks)
    return checks


def run_symmetry(derived, args) -> list:
    checks = []
    derive.verify_group(checks)
    derive.verify_group_closure(derived.equations, checks)
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
    sw = numeric.sweep(points=args.points, seed=args.seed, tol=args.tol)
    for name, value in sorted(sw["worst"].items()):
        check(checks, f"sweep-{name}", name, value < args.tol, f"{value:.3e}")
    pt = numeric.build_curvature(1.25, -0.75)
    orbit = numeric.symmetry_orbit_check(pt, seed=args.seed)
    check(checks, "orbit-group", "32 elements",
          orbit["group_residual"] < args.tol, f"{orbit['group_residual']:.3e}")
    check(checks, "orbit-rotations", "16 angles",
          orbit["rotation_residual"] < args.tol, f"{orbit['rotation_residual']:.3e}")
    return checks


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


def _checked(convert, valid, need: str):
    """An argparse type: the text converted, and refused unless valid."""
    def parse(text: str):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
    return parse


#: --points: a sweep over no points checks nothing
_point_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
#: --tol: an infinite or NaN tolerance passes every residual
_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsverify",
        description="Exact verification suites for the weakly-Einstein exterior system",
    )
    parser.add_argument("suite", choices=SUITES, help="verification suite to run")
    parser.add_argument("--eds", default=None, help="EDS file (default: shipped system)")
    parser.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
    parser.add_argument("--tol", type=_tolerance, default=1e-12, help="numeric tolerance, finite and > 0")
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
            check(checks, "blocked", exc.check["id"], False, exc.check["detail"])
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
