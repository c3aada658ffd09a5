"""Span tracer for the edsverify modules, installed from outside the program.

Every layer of the benchmark is one module of ``src/edsverify``.  The tracer
wraps that module's entry points (see ``entry_points``) and records one span
per call: (name, start, end, parent span).  Spans are kept in memory in
compact arrays and written to an ``.npz`` file when the run ends.

A function can be reachable under several names: ``from .forms import
ext_d`` copies the reference into ``structure``, ``derive`` and ``cases``;
``Poly.__rmul__`` is the same function object as ``Poly.__mul__``; and
``cli.RUNNERS`` holds its own references to the suite runners.  The tracer
therefore replaces every reference it can find to a wrapped function (see
``install``) and then asks the garbage collector whether anything else still
refers to an original; if so it refuses to trace rather than undercount.

Run as a script, it executes one ``edsverify`` CLI invocation in process:

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.npz -- all --seed 0 --json r.json

and prints one JSON line with the import time, the wall time of
``cli.main`` and its exit code.  Without ``--spans`` nothing is wrapped,
which gives the untraced in-process wall that the tracing overhead is
measured against.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from array import array

# Methods traced besides each module's public module-level functions: the
# arithmetic that crosses layers, and the entry points the metrics name.
METHODS = {
    "algebra": {
        "Poly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "div_exact"),
        "LocFrac": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse"),
    },
    "jets": {"JetContext": ("derive", "substitute")},
    "forms": {"DForm": ("__add__", "__sub__", "__neg__", "scale")},
    "derive": {"SymmetryElement": ("apply", "compose")},
    "cases": {"FactStore": ("add", "reduce")},
}

# Public module-level functions left unwrapped: monomial helpers called only
# from inside algebra's own arithmetic (about 490k calls per ``all``).
# Wrapping them would add overhead without moving time between layers.
UNTRACED = {"algebra": ("mono_mul", "mono_div", "mono_degree")}

# ``LocFrac.__init__`` is reported as ``LocFrac.new``: one call per
# constructed (and normalised) fraction.
_DUNDER_NAMES = {"__init__": "new"}
_METHOD_TYPES = (staticmethod, classmethod)


def _span_name(layer: str, qualname: str) -> str:
    parts = qualname.split(".")
    last = parts[-1]
    if last.startswith("__") and last.endswith("__"):
        parts[-1] = _DUNDER_NAMES.get(last, last.strip("_"))
    return layer + "." + ".".join(parts)


def package_modules() -> list:
    """The public modules of ``edsverify``; each one is a layer."""
    import edsverify

    return sorted(m.name for m in pkgutil.iter_modules(edsverify.__path__) if not m.name.startswith("_"))


def entry_points() -> dict:
    """Map each callable to trace to its span name.

    Imports ``edsverify`` (the caller must have ``src`` on the path).  A
    decorated function (``functools.cache`` and the like) is wrapped on the
    outside, so calls answered by the decorator count too."""
    out = {}
    for layer in package_modules():
        mod = importlib.import_module("edsverify." + layer)
        skip = UNTRACED.get(layer, ())
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in skip or inspect.isclass(obj) or not callable(obj):
                continue
            inner = inspect.unwrap(obj)
            if getattr(inner, "__module__", None) == mod.__name__ and hasattr(inner, "__qualname__"):
                out[obj] = _span_name(layer, inner.__qualname__)
        for cls_name, methods in METHODS.get(layer, {}).items():
            attrs = vars(getattr(mod, cls_name, object))
            for meth in methods:
                fn = attrs.get(meth)
                if fn is not None:
                    fn = fn.__func__ if isinstance(fn, _METHOD_TYPES) else fn
                    out[fn] = _span_name(layer, f"{cls_name}.{meth}")
    cli = importlib.import_module("edsverify.cli")
    for suite, fn in getattr(cli, "RUNNERS", {}).items():
        out[fn] = f"cli.suite.{suite}"
    return out


class SpanRecorder:
    """Spans in four parallel arrays; a span's index is its id, assigned when
    it opens, so a parent always has a smaller id than its children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def wrap(self, fn, name: str):
        self.names.append(name)
        nid = len(self.names) - 1
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point and rebind every reference to it.

    References are rebound in module globals and class attributes, in the
    dicts, lists and tuples they hold (two levels deep), and in the closure
    cells and default arguments of the package's functions.  Raises
    ``RuntimeError`` when a reference to an original survives anyway."""
    wrappers = {fn: recorder.wrap(fn, name) for fn, name in entry_points().items()}
    _Rebinder({id(fn): w for fn, w in wrappers.items()}).run()
    _check_no_stray_references(wrappers)


class _Rebinder:
    def __init__(self, by_id: dict):
        self.by_id = by_id
        self.functions = {}  # id -> every function met, for closures and defaults

    def swap(self, value, depth: int = 2):
        """``value`` with originals replaced by wrappers; dicts and lists are
        changed in place, a tuple is rebuilt when one of its items changes."""
        if isinstance(value, _METHOD_TYPES):
            w = self.by_id.get(id(value.__func__))
            return value if w is None else type(value)(w)
        if callable(value) and not inspect.isclass(value):
            if inspect.isfunction(value):
                self.functions[id(value)] = value
            return self.by_id.get(id(value), value)
        if depth and isinstance(value, dict):
            for key, item in list(value.items()):
                new = self.swap(item, depth - 1)
                if new is not item:
                    value[key] = new
        elif depth and isinstance(value, list):
            value[:] = [self.swap(item, depth - 1) for item in value]
        elif depth and isinstance(value, tuple) and not hasattr(value, "_fields"):
            new = tuple(self.swap(item, depth - 1) for item in value)
            if any(a is not b for a, b in zip(new, value)):
                return new
        return value

    def run(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "edsverify" and not modname.startswith("edsverify."):
                continue
            spaces = [mod] + [v for v in vars(mod).values()
                              if inspect.isclass(v) and v.__module__ == modname]
            for ns in spaces:
                for key, value in list(vars(ns).items()):
                    new = self.swap(value)
                    if new is not value:
                        setattr(ns, key, new)
        wrappers = {id(w) for w in self.by_id.values()}
        for fn in list(self.functions.values()):
            if id(fn) in wrappers:
                continue
            for cell in fn.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # cell not filled yet
                    continue
                new = self.swap(contents)
                if new is not contents:
                    cell.cell_contents = new
            if fn.__defaults__:
                fn.__defaults__ = self.swap(fn.__defaults__)
            if fn.__kwdefaults__:
                self.swap(fn.__kwdefaults__)


def _check_no_stray_references(wrappers: dict) -> None:
    own = {id(wrappers)}
    for w in wrappers.values():
        own.update(id(cell) for cell in w.__closure__ or ())
    gc.collect()
    for fn in wrappers:
        for ref in gc.get_referrers(fn):
            if id(ref) in own or inspect.isframe(ref):
                continue
            raise RuntimeError(
                f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', fn)} is still "
                f"referenced by a {type(ref).__name__} the tracer cannot rebind"
            )


# Per-layer metrics: (layer, metric names, end-to-end metrics they should
# move, workloads they move on).  ``<layer>.self_s`` is the time of the
# layer's spans minus the time covered by their child spans; ``<span>.calls``
# counts calls at a wrapped entry point and ``<span>.s`` is its total time,
# nested calls of the same entry point counted once.
# The suite names are spelled out, not read from ``cli``, because
# BENCHMARK.json declares one metric per suite.
SUITES = ("structure", "nel", "sol", "equations36", "combos", "symmetry",
          "case-const-lambda", "case-ii", "case-iii", "numeric")
LAYER_METRICS = (
    ("algebra",
     ("algebra.self_s", "algebra.Poly.mul.calls", "algebra.Poly.add.calls",
      "algebra.Poly.div_exact.calls", "algebra.LocFrac.new.calls", "algebra.LocFrac.mul.calls",
      "algebra.LocFrac.add.calls", "algebra.linear_solve.s"),
     "verdict_s, verdict_cpu_s, peak_rss_mb", "shipped-all, eds-mutants; no change on numeric-dense"),
    ("jets",
     ("jets.self_s", "jets.JetContext.substitute.calls", "jets.JetContext.substitute.s",
      "jets.JetContext.derive.calls"),
     "verdict_s", "shipped-all (closure substitution), eds-mutants"),
    ("forms", ("forms.self_s", "forms.ext_d.calls", "forms.wedge.calls"),
     "verdict_s (about 1% share)", "shipped-all, eds-mutants"),
    ("structure", ("structure.self_s", "structure.parse_eds.s", "structure.curvature_forms.calls"),
     "setup_s, verdict_s", "all three"),
    ("equations", ("equations.self_s",),
     "setup_s (its tables are built at import, outside any span)", "all three"),
    ("derive",
     ("derive.self_s", "derive.verify_group_closure.s", "derive.SymmetryElement.apply.calls",
      "derive.derive_36.s", "derive.rank_probe.s", "derive.solve_sol.s",
      "derive.verify_system_invariance.s", "derive.derive_nel.calls", "derive.symmetry_group.calls"),
     "verdict_s", "shipped-all; less on eds-mutants, where derive_* raise early"),
    ("cases",
     ("cases.self_s", "cases.run_const_lambda.s", "cases.run_case_ii.s", "cases.run_case_iii.s",
      "cases.sos_certificate.calls"),
     "verdict_s", "shipped-all"),
    ("numeric", ("numeric.self_s", "numeric.sweep.s", "numeric.symmetry_orbit_check.s"),
     "verdict_s, verdict_cpu_s", "numeric-dense; about 4% of shipped-all"),
    ("cli", ("cli.import_s", "cli.self_s") + tuple(f"cli.suite.{s}.s" for s in SUITES),
     "setup_s; each suite's share of verdict_s", "all three"),
)


def load_spans(path: str) -> dict:
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def span_metrics(spans: dict, wanted) -> dict:
    """Evaluate ``self_s``, ``.calls`` and ``.s`` metrics over loaded spans.

    A metric whose layer or entry point made no span reads 0."""
    import numpy as np

    names = [str(n) for n in spans["names"]]
    name_ids, parents = spans["name_ids"].astype(np.int64), spans["parents"].astype(np.int64)
    dur = spans["ends"] - spans["starts"]
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    layers = sorted({n.split(".", 1)[0] for n in names})
    layer_of = np.array([layers.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    self_s = np.bincount(layer_of[name_ids], weights=dur - child, minlength=len(layers))
    calls = np.bincount(name_ids, minlength=len(names))
    by_name = {n: k for k, n in enumerate(names)}

    def outermost_seconds(k: int) -> float:
        total = 0.0
        for i in np.flatnonzero(name_ids == k):
            p = parents[i]
            while p >= 0 and name_ids[p] != k:
                p = parents[p]
            if p < 0:
                total += float(dur[i])
        return total

    out = {}
    for metric in wanted:
        stem, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = float(self_s[layers.index(stem)]) if stem in layers else 0.0
        elif kind == "calls":
            out[metric] = int(calls[by_name[stem]]) if stem in by_name else 0
        elif kind == "s":
            out[metric] = outermost_seconds(by_name[stem]) if stem in by_name else 0.0
        else:
            raise ValueError(f"not a span metric: {metric}")
    return out


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", default=None, help="trace and write spans here (.npz)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    from edsverify import cli

    import_s = time.perf_counter() - t0
    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        install(recorder)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        wall_s = time.perf_counter() - t0
    result = {"import_s": import_s, "wall_s": wall_s, "exit": code}
    if recorder is not None:
        recorder.save(args.spans)
        result["spans"] = len(recorder.starts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
