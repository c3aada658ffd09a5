"""Tests of the benchmark's own machinery: mutants, known answers, tracer.

    python3 -m pytest perfbench -q

The tracer tests run the shipped ``edsverify all`` several times in child
processes and take about a minute.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import mutants  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SHIPPED_TEXT = run.SHIPPED_EDS.read_text(encoding="utf-8")


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}")
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_mutant_set_is_every_single_term_double_and_flip():
    found = mutants.checked_mutants(SHIPPED_TEXT)
    terms = sum(len(mutants._split_terms(line.split("=", 1)[1]))
                for line in SHIPPED_TEXT.splitlines() if line.startswith("d "))
    assert len(found) == 2 * terms == 54
    labels = [label for label, _ in found]
    assert len(set(labels)) == len(labels)
    assert len({text for _, text in found} | {SHIPPED_TEXT}) == len(found) + 1


def test_mutant_rewrites_only_its_term():
    found = dict(mutants.checked_mutants(SHIPPED_TEXT))
    assert "d A = B^L + 1/2 B^S + C^F + D^G" in found["A.1.double"]
    assert "d L = -lambda A^B - lambda C^D + 4 F^G" in found["L.3.flip"]
    assert "d F = 2 sigma A^C + sigma B^D - G^L" in found["F.1.double"]


def test_summary_percentile_needs_ten_samples_beyond_it():
    assert run.summarize([1.0] * 19)["percentile"] is None
    assert run.summarize(list(range(20)))["percentile"][0] == 50.0
    assert run.summarize(list(range(100)))["percentile"] == (90.0, 89)
    assert run.summarize([3.0, 1.0, 2.0])["median"] == 2.0


def test_a_mutant_that_verifies_is_a_miss(tmp_path):
    plan = run.Plan("eds-mutants", 0, tmp_path)
    report = json.dumps({"suite": "all", "suites": [], "overall": "fail"}).encode()
    assert run.verdict_error(plan, 1, b"", report) is None
    assert run.verdict_error(plan, 0, b"", report) == "exit 0, expected 1"
    assert run.verdict_error(plan, 2, b"", report) is not None
    assert run.verdict_error(plan, 1, b"Traceback (most recent call last):", report) is not None
    passing = json.dumps({"suite": "all", "suites": [], "overall": "pass"}).encode()
    assert run.verdict_error(plan, 1, b"", passing) is not None


def test_a_failed_check_is_a_miss_on_a_passing_workload(tmp_path):
    plan = run.Plan("shipped-all", 0, tmp_path)
    suite = {"suite": "nel", "overall": "pass",
             "checks": [{"id": "x", "label": "x", "status": "fail", "detail": ""}]}
    report = json.dumps({"suite": "all", "suites": [suite], "overall": "pass"}).encode()
    assert "nel/x" in run.verdict_error(plan, 0, b"", report)


def test_a_hung_invocation_is_killed_and_missed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "INVOCATION_TIMEOUT_S", 0.2)
    plan = run.Plan("shipped-all", 0, tmp_path)
    sample = run.invoke(plan.cli_args(0), tmp_path, "hung")
    assert sample["exit"] == -9
    assert run.verdict_error(plan, sample["exit"], sample["stderr"], sample["report"]) is not None


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_rebinds_every_alias():
    done = _python(
        "import tracer\n"
        "from edsverify import algebra, cases, cli, derive, forms, numeric, structure\n"
        "names = lambda: (forms.ext_d, algebra.Poly.__mul__, derive.symmetry_group, cli.run_structure)\n"
        "originals = [id(f) for f in names()]  # ids: a held reference would block install\n"
        "tracer.install(tracer.SpanRecorder())\n"
        "assert forms.ext_d is structure.ext_d is derive.ext_d is cases.ext_d\n"
        "assert algebra.Poly.__rmul__ is algebra.Poly.__mul__\n"
        "assert algebra.Poly.__radd__ is algebra.Poly.__add__\n"
        "assert algebra.LocFrac.__rmul__ is algebra.LocFrac.__mul__\n"
        "assert algebra.LocFrac.__radd__ is algebra.LocFrac.__add__\n"
        "assert numeric.symmetry_group is derive.symmetry_group\n"
        "assert cli.RUNNERS['structure'] is cli.run_structure\n"
        "assert all(a != id(b) for a, b in zip(originals, names()))\n"
        "print('ok')\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_tracer_rebinds_tuples_closures_and_defaults():
    done = _python(
        "import tracer\n"
        "from edsverify import forms\n"
        "def make(f):\n"
        "    def held():\n"
        "        return f\n"
        "    return held\n"
        "forms._held = make(forms.ext_d)\n"
        "forms._default = lambda f=forms.ext_d: f\n"
        "forms._pairs = (('wedge', forms.wedge),)\n"
        "tracer.install(tracer.SpanRecorder())\n"
        "assert forms._held() is forms._default() is forms.ext_d\n"
        "assert forms._pairs[0][1] is forms.wedge\n"
        "print('ok')\n"
    )
    assert done.stdout.strip() == "ok", done.stderr


def test_tracer_refuses_a_binding_it_cannot_rebind():
    done = _python(
        "import tracer\n"
        "from edsverify import forms\n"
        "forms.KEEP = {forms.wedge}\n"
        "try:\n"
        "    tracer.install(tracer.SpanRecorder())\n"
        "except RuntimeError as exc:\n"
        "    print('refused', 'forms.wedge' in str(exc))\n"
    )
    assert done.stdout.strip() == "refused True", done.stderr


@pytest.fixture(scope="module")
def traced_shipped_all(tmp_path_factory):
    """The benchmark's traced run of shipped-all: one untraced and two traced
    in-process invocations of ``all --seed 0``."""
    run_dir = tmp_path_factory.mktemp("traced")
    plan = run.Plan("shipped-all", 0, run_dir)
    metrics, attempted, problems = run.run_traced(plan, run_dir)
    return metrics, attempted, problems


def test_traced_runs_repeat_counts_and_report_bytes(traced_shipped_all):
    # run_traced compares both traced runs' call counts at every entry
    # point, and all three report files byte for byte.
    metrics, attempted, problems = traced_shipped_all
    assert attempted == 3
    assert problems == []


def test_traced_run_reports_every_layer_metric(traced_shipped_all):
    metrics, _, _ = traced_shipped_all
    for _, names, _, _ in tracer.LAYER_METRICS:
        for name in names:
            assert name in metrics
    assert metrics["derive.symmetry_group.calls"]["value"] >= 1
    assert metrics["cli.suite.symmetry.s"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0


def test_poly_mul_count_equals_cprofile(traced_shipped_all, tmp_path):
    metrics, _, _ = traced_shipped_all
    from edsverify import algebra, cli

    code = algebra.Poly.__mul__.__code__
    profile = cProfile.Profile()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        profile.runcall(cli.main, ["all", "--seed", "0", "--json", str(tmp_path / "r.json")])
    profile.create_stats()
    calls = profile.stats[(code.co_filename, code.co_firstlineno, code.co_name)][1]
    assert metrics["algebra.Poly.mul.calls"]["value"] == calls
