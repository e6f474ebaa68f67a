"""Span tracing of the ridgeshift layers from outside the package.

:meth:`Tracer.install` wraps every public function of the layer modules,
plus the ``RidgeFactorization`` constructor, and rebinds each wrapper at
every module attribute of the package that holds the original, which is
where other modules look it up (``ridgeshift.risk.solve_mu``,
``ridgeshift.fixed_point.mu_zero``, the package namespace, ...). Each call
records a span: its name, start, end and parent. Spans stay in memory until
:meth:`Tracer.summary` folds them into additive per-function statistics.

Spans are kept on one stack, so every span lies inside its parent and the
children of a span do not overlap: the benchmark runs every workload on a
single thread (``mc_experiment`` with one pool thread takes its serial
path). Only the traced run of the benchmark installs a tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import defaultdict

PACKAGE = "ridgeshift"
LAYERS = ("model", "fixed_point", "risk", "conditions", "simulate", "cli")
CONSTRUCTORS = (("simulate", "RidgeFactorization"),)
#: Spans of these functions remember the dimension p of their first argument.
TAGGED = frozenset({"risk.risk_at_mu"})
#: (function, enclosing function) pairs whose nesting is counted.
NESTED = (
    ("fixed_point.solve_mu", "risk.optimal_lambda"),
    ("fixed_point.mu_zero", "fixed_point.solve_mu"),
)
TRACED_MARK = "__bench_traced__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "raised")

    def __init__(self, name, start, end, parent=None, tag=None, raised=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag
        self.raised = raised


def summarize(spans, near_singular: int = 0) -> dict:
    """Additive statistics of a list of spans.

    A span's self time is its duration minus the durations of its child
    spans, so nested and re-entrant calls are never counted twice.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.end - s.start
    functions: dict[str, dict] = {}
    tagged: dict[str, dict] = {}
    for s in spans:
        dur = s.end - s.start
        f = functions.setdefault(s.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0})
        f["calls"] += 1
        f["self_s"] += dur - covered[id(s)]
        f["incl_s"] += dur
        f["raised"] += s.raised
        if s.tag is not None:
            t = tagged.setdefault(s.name, {}).setdefault(str(s.tag), [0, 0.0])
            t[0] += 1
            t[1] += dur
    nested = {}
    for inner, outer in NESTED:
        count = 0
        for s in spans:
            if s.name != inner:
                continue
            anc = s.parent
            while anc is not None and anc.name != outer:
                anc = anc.parent
            count += anc is not None
        nested[f"{inner}|{outer}"] = count
    return {"functions": functions, "tagged": tagged, "nested": nested,
            "near_singular": near_singular}


def merge_summaries(a: dict, b: dict) -> dict:
    """Sum of two summaries (e.g. of two CLI processes)."""
    out = {"functions": {}, "tagged": {}, "nested": dict(a["nested"]),
           "near_singular": a["near_singular"] + b["near_singular"]}
    for src in (a, b):
        for name, f in src["functions"].items():
            g = out["functions"].setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                                   "raised": 0})
            for key in g:
                g[key] += f[key]
        for name, tags in src["tagged"].items():
            dst = out["tagged"].setdefault(name, {})
            for tag, (count, incl) in tags.items():
                cur = dst.setdefault(tag, [0, 0.0])
                cur[0] += count
                cur[1] += incl
    for key, count in b["nested"].items():
        out["nested"][key] = out["nested"].get(key, 0) + count
    return out


def root_coverage(spans, windows) -> list[float]:
    """For each (start, end) window, the time covered by root spans."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return [sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in roots) for t0, t1 in windows]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.near_singular = 0
        self._clock = clock
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._saved_warnings = None

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def wrap(self, name: str, fn):
        clock = self._clock
        spans = self.spans
        stack = self._stack
        tagged = name in TAGGED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, 0.0, parent,
                        getattr(args[0], "p", None) if tagged and args else None)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        setattr(traced, TRACED_MARK, True)
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module and rebind the
        wrappers wherever the package holds the originals."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(mods[layer], cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(f"{layer}.{cls_name}", cls.__init__)
        self._count_near_singular(mods["simulate"].NearSingularRidgeWarning)

    def _count_near_singular(self, category) -> None:
        # the default filter shows a warning once per code location, which
        # would collapse the count; "always" routes every one through here
        self._saved_warnings = (warnings.filters[:], warnings.showwarning)
        show = warnings.showwarning

        def counting_show(message, cat, *args, **kwargs):
            if issubclass(cat, category):
                self.near_singular += 1
            else:
                show(message, cat, *args, **kwargs)

        warnings.filterwarnings("always", category=category)
        warnings.showwarning = counting_show

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._saved_warnings is not None:
            warnings.filters[:], warnings.showwarning = self._saved_warnings
            self._saved_warnings = None

    def summary(self) -> dict:
        return summarize(self.spans, self.near_singular)


def installed_wrappers() -> list[str]:
    """Names of package attributes that currently hold a tracing wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, TRACED_MARK, False):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(obj) and getattr(obj.__init__, TRACED_MARK, False):
                found.append(f"{modname}.{attr}.__init__")
    return found
