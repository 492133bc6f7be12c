"""Spans around the calls into each layer's public functions, recorded from
outside the `beireg` package.

`Tracer.install()` replaces each function in `LAYERS` with a wrapper under
every name a `beireg` module binds it to: `graphs` and `verification` look
their functions up as module globals, while `regularity` imports
`lex_groebner`, `initial_ideal` and `hochster_regularity` by name, so those
are wrapped as `regularity.<name>`.  Spans stay in memory, one row per call
(name, start, end, parent span, operation id), until `write()` is called
at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = {
    "graphs": ("canonical_form", "longest_induced_path", "maximal_cliques",
               "induced_subgraph", "components", "enumerate_graphs"),
    "regularity": ("structural_reg", "bounds", "oracle_reg",
                   "initial_ideals_of"),
    "groebner": ("lex_groebner", "initial_ideal"),
    "hochster": ("hochster_regularity",),
    "recognition": ("recognize_cl", "recognize_wl", "recognize_sig",
                    "validate_cl_certificate", "validate_wl_decomposition"),
    "witnesses": ("gen_lrc", "gen_lrw"),
    "verification": ("check_one",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# ratios and totals measured from the wrapped calls' arguments and results:
# name -> (unit, better)
DERIVED = {
    "graphs.canonical_form.distinct_frac": ("fraction", "higher"),
    "regularity.structural_reg.exact_frac": ("fraction", "higher"),
    "groebner.lex_groebner.basis_len": ("count", "lower"),
    "hochster.hochster_regularity.gens": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# the span name of one workload operation, parent of its layer spans
OP = "op"


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return out


class Tracer:
    """Spans timed on `clock`, a function returning seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [OP] + list(FUNCTIONS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op_id = -1
        self._open = []
        self._installed = []
        self.canonical_keys = set()
        self.exact_reports = 0
        self.basis_len = 0
        self.gens = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op_of.append(self.op_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def _exit(self, i):
        self.end[i] = self.clock()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        i = self._enter(self.name_ids[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(i)

    def _observe(self, name, args, kwargs, result):
        if name == "graphs.canonical_form":
            self.canonical_keys.add(result)
        elif name == "regularity.structural_reg":
            self.exact_reports += result.lo == result.hi
        elif name == "groebner.lex_groebner":
            self.basis_len += len(result)
        elif name == "hochster.hochster_regularity":
            ideal = args[0] if args else kwargs["ideal"]
            self.gens += len(ideal.gens)

    def _wrap(self, name, fn):
        name_id = self.name_ids[name]

        def traced(*args, **kwargs):
            i = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            self._observe(name, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS under each name a beireg module
        binds it to."""
        for module in LAYERS:
            importlib.import_module(f"beireg.{module}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "beireg" or k.startswith("beireg.")]
        for name in FUNCTIONS:
            module, fn_name = name.split(".")
            original = getattr(sys.modules[f"beireg.{module}"], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """calls and self time per function, plus the derived counts.
        Self time is a span's duration minus that of its direct child spans."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for fn in FUNCTIONS:
            k = self.name_ids[fn]
            out[f"{fn}.calls"] = calls[k]
            out[f"{fn}.self_s"] = self_s[k]
        canon = calls[self.name_ids["graphs.canonical_form"]]
        sreg = calls[self.name_ids["regularity.structural_reg"]]
        out["graphs.canonical_form.distinct_frac"] = (
            len(self.canonical_keys) / canon if canon else 0.0)
        out["regularity.structural_reg.exact_frac"] = (
            self.exact_reports / sreg if sreg else 0.0)
        out["groebner.lex_groebner.basis_len"] = self.basis_len
        out["hochster.hochster_regularity.gens"] = self.gens
        return out

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i],
                                     self.end[i], self.parent[i],
                                     self.op_of[i]]) + "\n")
