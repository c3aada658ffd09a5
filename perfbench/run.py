"""edsverify benchmark: time to verdict, run as fresh CLI processes.

    python3 perfbench/run.py --workload shipped-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.

Workloads (the seed generates the inputs; the CLI sees only those):

* ``shipped-all``: ``edsverify all --seed <seed>`` on the shipped EDS, the
  product verdict.  The symbolic layers do nearly all the work.
* ``eds-mutants``: ``edsverify all --eds <mutant>``, where the mutants are the
  single-term "double" and "sign flip" mutants of the shipped EDS (see
  ``mutants.py``), drawn in a seeded order without repeats.  Every mutant
  must be rejected: exit 1, overall ``fail``.
* ``numeric-dense``: ``edsverify numeric --seed <seed> --points 2000``,
  where the numpy sweep dominates and the symbolic layers do almost nothing.

With ``--trace 0`` the invocations run one at a time (a closed loop with one
client) until ``--seconds`` have passed, each as a fresh interpreter timed
from spawn to exit, with CPU time and peak RSS taken from ``os.wait4`` for
that child alone.  ``setup_s`` is the median of several probe processes
that only import ``edsverify.cli`` and load the workload's EDS.  Every
verdict is checked against its known answer; reports of one run must be
byte-identical where the workload passes.

With ``--trace 1`` the workload's first argv runs in process three times
(``tracer.py``): once untraced and twice with every module's entry points
wrapped.  It reports the per-layer metrics of ``tracer.LAYER_METRICS`` from
the first traced run, requires both traced runs to make identical call
counts and all three to write identical report bytes, and reports the
tracing overhead against the untraced run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every verdict matched,
1 when one did not, and 2 when the checkout holds no edsverify sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_EDS = SRC / "edsverify" / "data" / "weakly-einstein.eds"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import mutants  # noqa: E402
import tracer  # noqa: E402

NUMERIC_POINTS = 2000
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 120.0

# Prints CLOCK_MONOTONIC in ns once the CLI module is imported and the EDS is
# loaded; the parent subtracts the instant it spawned the probe.
_SETUP_PROBE = (
    "import sys, time\n"
    "import edsverify.cli\n"
    "from edsverify.structure import load_system\n"
    "load_system(sys.argv[1] or None)\n"
    "print(time.monotonic_ns())\n"
)

WORKLOADS = ("shipped-all", "eds-mutants", "numeric-dense")


class Plan:
    """The inputs of one run: the CLI arguments of invocation ``i`` and the
    known answer every invocation must give."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.info = {}
        self._eds = []
        if workload == "shipped-all":
            self._args = ["all", "--seed", str(seed)]
        elif workload == "numeric-dense":
            self._args = ["numeric", "--seed", str(seed), "--points", str(NUMERIC_POINTS)]
        elif workload == "eds-mutants":
            self._args = ["all"]
            found = mutants.checked_mutants(SHIPPED_EDS.read_text(encoding="utf-8"))
            order = random.Random(seed).sample(range(len(found)), len(found))
            for rank, k in enumerate(order):
                label, text = found[k]
                path = run_dir / f"mutant-{rank:02d}-{label}.eds"
                path.write_text(text, encoding="utf-8")
                self._eds.append(path)
            self.info = {"mutant_set_size": len(found), "first_mutants": [p.name for p in self._eds[:3]]}
        else:
            raise ValueError(workload)
        # Known answer: the shipped system verifies and every mutant is
        # rejected.  A passing workload repeats one argv, so its reports must
        # also be byte-identical.
        self.passes = workload != "eds-mutants"

    def eds(self, i: int):
        return self._eds[i % len(self._eds)] if self._eds else None

    def cli_args(self, i: int) -> list:
        eds = self.eds(i)
        return self._args + (["--eds", str(eds)] if eds else [])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc: subprocess.Popen):
    """``os.wait4`` on one child: its exit code and its own rusage.  The
    child is killed if it outlives ``INVOCATION_TIMEOUT_S``."""
    timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(cli_args: list, run_dir: Path, tag: str) -> dict:
    """One fresh ``edsverify`` process, timed from spawn to exit."""
    report = run_dir / f"report-{tag}.json"
    err_path = run_dir / f"stderr-{tag}.txt"
    cmd = [sys.executable, "-m", "edsverify.cli", *cli_args, "--json", str(report)]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc)
        wall = time.perf_counter() - t0
    sample = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": code,
        "stderr": err_path.read_bytes(),
        "report": report.read_bytes() if report.exists() else None,
    }
    err_path.unlink()
    if report.exists():
        report.unlink()
    return sample


def setup_probe(eds) -> float:
    t0 = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(eds or "")], cwd=ROOT,
                          env=_child_env(), capture_output=True, timeout=INVOCATION_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.decode(errors='replace').strip()}")
    return (int(done.stdout.split()[-1]) - t0) / 1e9


def _failed_checks(report) -> list:
    out = []
    for suite in report.get("suites", [report]):
        out += [f"{suite['suite']}/{c['id']}" for c in suite["checks"] if c["status"] != "pass"]
    return out


def verdict_error(plan: Plan, exit_code: int, stderr: bytes, report_bytes) -> str | None:
    """Why an invocation misses its known answer, or None when it does not."""
    expect_exit, expect_overall = (0, "pass") if plan.passes else (1, "fail")
    if exit_code != expect_exit:
        return f"exit {exit_code}, expected {expect_exit}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if report_bytes is None:
        return "no JSON report written"
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return "JSON report does not parse"
    if report.get("overall") != expect_overall:
        return f"overall {report.get('overall')!r}, expected {expect_overall!r}"
    if plan.passes and _failed_checks(report):
        return f"failed checks {_failed_checks(report)[:5]}"
    return None


def summarize(values: list) -> dict:
    """Median, sample count, and the highest of the usual percentiles that
    has at least ten samples beyond it (None when the run has too few)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out["percentile"] = (p, values[max(0, math.ceil(p / 100.0 * n) - 1)])
            break
    return out


def environment(workload: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "edsverify").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_untraced(plan: Plan, seconds: int, run_dir: Path):
    problems = []
    eds0 = plan.eds(0)
    setup_probe(eds0)  # warm-up: byte-compile caches, page cache
    setup = [setup_probe(eds0) for _ in range(SETUP_PROBES)]

    samples, reference = [], None
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        i = len(samples)
        s = invoke(plan.cli_args(i), run_dir, str(i))
        error = verdict_error(plan, s["exit"], s["stderr"], s["report"])
        if error is None and plan.passes:
            reference = reference or s["report"]
            if s["report"] != reference:
                error = "report bytes differ from the first invocation of this seed"
        if error:
            problems.append(f"invocation {i} ({' '.join(plan.cli_args(i))}): {error}")
        samples.append(s)
    measured = time.monotonic() - start

    stats = {
        "setup_s": ("s", summarize(setup)),
        "verdict_s": ("s", summarize([s["wall_s"] for s in samples])),
        "verdict_cpu_s": ("s", summarize([s["cpu_s"] for s in samples])),
        "peak_rss_mb": ("MiB", summarize([s["rss_mb"] for s in samples])),
    }
    print(f"# {plan.workload}: {len(samples)} invocations in {measured:.1f} s, "
          f"closed loop, 1 client; {SETUP_PROBES} setup probes")
    for name, (unit, st) in stats.items():
        tail = "no percentile has 10 samples beyond it"
        if st["percentile"]:
            tail = f"p{st['percentile'][0]:g} {st['percentile'][1]:.6g} {unit}"
        print(f"{name}: median {st['median']:.6g} {unit} (n={st['n']}); {tail}")
    print(f"failed_ratio: {len(problems)}/{len(samples)} = {len(problems) / len(samples):.6g} (ratio)")
    metrics = {name: {"value": st["median"], "unit": unit} for name, (unit, st) in stats.items()}
    return metrics, len(samples), problems


def _in_process(cli_args: list, run_dir: Path, tag: str, spans=None) -> dict:
    report = run_dir / f"report-{tag}.json"
    cmd = [sys.executable, str(HERE / "tracer.py")]
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--", *cli_args, "--json", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process run failed: {proc.stderr.decode(errors='replace').strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["stderr"] = proc.stderr
    result["report"] = report.read_bytes() if report.exists() else None
    return result


def run_traced(plan: Plan, run_dir: Path):
    cli_args = plan.cli_args(0)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{plan.workload}.npz"
    repeat_path = run_dir / "spans-repeat.npz"
    runs = [
        _in_process(cli_args, run_dir, "untraced"),
        _in_process(cli_args, run_dir, "traced", spans_path),
        _in_process(cli_args, run_dir, "traced-repeat", repeat_path),
    ]
    spans = tracer.load_spans(str(spans_path))
    every_call = [f"{n}.calls" for n in spans["names"]]
    counts = tracer.span_metrics(spans, every_call)
    repeat_counts = tracer.span_metrics(tracer.load_spans(str(repeat_path)), every_call)

    problems = []  # at most one entry per run
    for tag, r in zip(("untraced", "traced", "traced-repeat"), runs):
        error = verdict_error(plan, r["exit"], r["stderr"], r["report"])
        if error is None and r["report"] != runs[0]["report"]:
            error = "report bytes differ from the untraced run"
        if error is None and tag == "traced-repeat" and repeat_counts != counts:
            error = "call counts differ from the first traced run"
        if error:
            problems.append(f"{tag} run ({' '.join(cli_args)}): {error}")

    wanted = [m for _, names, _, _ in tracer.LAYER_METRICS for m in names]
    values = tracer.span_metrics(spans, [m for m in wanted if m != "cli.import_s"])
    values["cli.import_s"] = statistics.median(r["import_s"] for r in runs)
    values["trace.overhead_s"] = runs[1]["wall_s"] - runs[0]["wall_s"]
    values["trace.spans"] = runs[1]["spans"]
    print(f"# {plan.workload}: traced {' '.join(cli_args)}; untraced in-process wall "
          f"{runs[0]['wall_s']:.4f} s, traced {runs[1]['wall_s']:.4f} s, "
          f"{runs[1]['spans']} spans written to {spans_path.relative_to(ROOT)}")
    for layer, names, moves, where in tracer.LAYER_METRICS:
        print(f"# layer {layer}: should move {moves}; on {where}")
    traced_names = {str(n) for n in spans["names"]}
    for name in wanted:
        stem = name.rpartition(".")[0]
        if name.endswith((".calls", ".s")) and stem not in traced_names:
            print(f"# {name}: entry point {stem} not found in the program; reported as 0")
    metrics = {}
    for name in wanted + ["trace.overhead_s", "trace.spans"]:
        unit = "count" if name.endswith(".calls") or name == "trace.spans" else "s"
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name}: {values[name]} {unit}")
    return metrics, len(runs), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edsverify time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edsverify" / "cli.py").is_file():
        print(f"perfbench: no edsverify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        plan = Plan(args.workload, args.seed, run_dir)
        env = environment(args.workload, args.seed) | plan.info
        print("# environment " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, attempted, problems = run_traced(plan, run_dir)
        else:
            metrics, attempted, problems = run_untraced(plan, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: KNOWN ANSWER MISSED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
