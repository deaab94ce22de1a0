"""Tracing for the per-layer metrics, from outside the package.

`Tracer.install` rebinds each traced polybox function, in every module
that binds it by name, to a wrapper that records a span: name, start,
end, parent span and item id. Spans are kept in flat arrays in memory
and written out by `Tracer.save` when the run ends. A span's self time
is its duration minus the time covered by its child spans (children of
one span never overlap: the run is single-threaded).

Per function the tracer reports `<key>.calls`, `.s` (inclusive seconds,
counting only the outermost span when the function nests in itself) and
`.self_s`. `linalg` and `serialize` are reported per module: every
function defined there is traced under the module's key. LP solves are
`LpBuilder.minimize`/`maximize`; rows and variables are counted from the
builder's `add_eq`/`add_le`/`add_ge`/`var` calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array

import numpy as np

from polybox import (bell, channels, cli, linalg, lp, measurements, qubit, serialize,
                     spaces, steering, witnesses)

# (module, attribute, metric key, field read off the returned report)
FUNCTIONS = (
    (measurements, "is_compatible", "measurements.is_compatible", None),
    (measurements, "id_degree", "measurements.id_degree", "evaluations"),
    (witnesses, "q_value", "witnesses.q_value", None),
    (witnesses, "is_witness", "witnesses.is_witness", None),
    (witnesses, "retraction_check", "witnesses.retraction_check", None),
    (witnesses, "maximal_incompatibility_certificate",
     "witnesses.maximal_incompatibility_certificate", None),
    (steering, "steering_degree_at", "steering.steering_degree_at", None),
    (steering, "is_separable", "steering.is_separable", None),
    (steering, "steering_degree", "steering.steering_degree", "evaluations"),
    (bell, "is_local", "bell.is_local", None),
    (bell, "bell_id_bound_check", "bell.bell_id_bound_check", None),
    (channels, "box_to_causal_channel", "channels.box_to_causal_channel", None),
    (qubit, "qubit_id", "qubit.qubit_id", "iterations"),
    (qubit, "joint_povm_feasible", "qubit.joint_povm_feasible", None),
    (qubit, "witness_q", "qubit.witness_q", None),
    (cli, "main", "cli.main", None),
)
METHODS = ((spaces.StateSpace, "canonical_functional", "spaces.canonical_functional"),)
MODULES = ((linalg, "linalg"), (serialize, "serialize"))


def _module_functions(module):
    """Functions defined in `module` itself; for linalg only the public ones."""
    public_only = module is linalg
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not (public_only and name.startswith("_"))]


TRACE_METRICS = (("trace.items", "count", "higher"), ("trace.wall_s", "s", "lower"),
                 ("trace.self_s_sum", "s", "lower"), ("trace.items_per_s", "1/s", "higher"),
                 ("trace.overhead_pct", "%", "lower"))


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = [("lp.solves", "count", "lower"), ("lp.solve_s", "s", "lower"),
           ("lp.rows_mean", "rows", "lower"), ("lp.vars_mean", "vars", "lower"),
           ("lp.free_vars_mean", "vars", "lower"), ("lp.infeasible", "count", "lower"),
           ("lp.result_bits_max", "bits", "lower")]

    def timed(key):
        return [(f"{key}.calls", "count", "lower"), (f"{key}.s", "s", "lower"),
                (f"{key}.self_s", "s", "lower")]
    for _mod, _attr, key, field in FUNCTIONS:
        out += timed(key)
        if field:
            out.append((f"{key}.{field}", "count", "lower"))
    for _cls, _attr, key in METHODS:
        out += timed(key)
    for _mod, key in MODULES:
        out += [(f"{key}.calls", "count", "lower"), (f"{key}.s", "s", "lower")]
    return out + list(TRACE_METRICS)


def _bits(x):
    try:
        return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())
    except AttributeError:
        return 0


class Tracer:
    """Wrappers for every traced function, bound in place only between
    `install` and `uninstall`, so that untraced code runs the originals."""

    def __init__(self):
        self.item = -1
        self.names = []                 # span name per name id
        self.group = []                 # metric key per name id
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_item = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack = []                 # [span id, name id, start, child seconds]
        self.depth = {}
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.report = {}
        self.lp = dict(solves=0, solve_s=0.0, rows=0, vars=0, free=0, infeasible=0, bits=0)
        self.lp_sizes = weakref.WeakKeyDictionary()
        self.bindings = []              # (owner, attribute, original, wrapper)
        for mod, attr, key, field in FUNCTIONS:
            self._rebind(getattr(mod, attr), key, key, field)
        for cls, attr, key in METHODS:
            orig = getattr(cls, attr)
            self.bindings.append((cls, attr, orig, self._wrap(orig, key, key)))
        for mod, key in MODULES:
            for attr in _module_functions(mod):
                self._rebind(getattr(mod, attr), f"{key}.{attr}", key)
        B = lp.LpBuilder
        for attr in ("add_eq", "add_le", "add_ge", "var"):
            orig = getattr(B, attr)
            self.bindings.append((B, attr, orig, self._counter(orig, attr == "var")))
        for attr in ("minimize", "maximize"):
            orig = getattr(B, attr)
            self.bindings.append((B, attr, orig, self._solver(orig)))

    def _rebind(self, orig, name, key, field=None):
        """Plan to bind the wrapper wherever a polybox module binds `orig`."""
        new = self._wrap(orig, name, key, field)
        for mname, mod in list(sys.modules.items()):
            if mod is not None and (mname == "polybox" or mname.startswith("polybox.")):
                for attr, value in vars(mod).items():
                    if value is orig:
                        self.bindings.append((mod, attr, orig, new))

    def install(self):
        for owner, attr, _orig, new in self.bindings:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, _new in self.bindings:
            setattr(owner, attr, orig)

    # -- spans --

    def _name_id(self, name, key):
        self.names.append(name)
        self.group.append(key)
        for d in (self.calls, self.incl, self.self_s):
            d.setdefault(key, 0)
        self.depth.setdefault(key, 0)
        return len(self.names) - 1

    def _open(self, nid):
        start = time.perf_counter()
        sid = len(self.sp_start)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1][0] if self.stack else -1)
        self.sp_item.append(self.item)
        self.sp_start.append(start)
        self.sp_end.append(start)
        self.depth[self.group[nid]] += 1
        self.stack.append([sid, nid, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, nid, start, child = self.stack.pop()
        self.sp_end[sid] = end
        dur = end - start
        key = self.group[nid]
        self.calls[key] += 1
        self.self_s[key] += dur - child
        self.depth[key] -= 1
        if self.depth[key] == 0:
            self.incl[key] += dur
        if self.stack:
            self.stack[-1][3] += dur
        return dur

    def _wrap(self, fn, name, key, field=None):
        nid = self._name_id(name, key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if field:
                tracer.report[key] = tracer.report.get(key, 0) + getattr(result, field)
            return result
        return traced

    # -- LP sizes --

    def _counter(self, fn, is_var):
        """Count rows (add_*) or variables (var) per builder."""
        sizes_of = self.lp_sizes

        @functools.wraps(fn)
        def counted(builder, *args, **kwargs):
            sizes = sizes_of.setdefault(builder, [0, 0, 0])
            if is_var:
                sizes[1] += 1
                if not kwargs.get("nonneg", args[0] if args else True):
                    sizes[2] += 1
            else:
                sizes[0] += 1
            return fn(builder, *args, **kwargs)
        return counted

    def _solver(self, fn):
        tracer = self
        nid = self._name_id(f"lp.LpBuilder.{fn.__name__}", "lp.solve")

        @functools.wraps(fn)
        def solve(builder, coeffs):
            tracer._open(nid)
            try:
                res = fn(builder, coeffs)
            finally:
                dur = tracer._close()
            st = tracer.lp
            rows, nvars, free = tracer.lp_sizes.get(builder, (0, 0, 0))
            st["solves"] += 1
            st["solve_s"] += dur
            st["rows"] += rows
            st["vars"] += nvars
            st["free"] += free
            if res.status == lp.INFEASIBLE:
                st["infeasible"] += 1
            values = list(res.x or ()) + ([res.objective] if res.objective is not None else [])
            st["bits"] = max([st["bits"]] + [_bits(v) for v in values])
            return res
        return solve

    # -- results --

    def metrics(self):
        st = self.lp
        n = st["solves"]
        out = {"lp.solves": n, "lp.solve_s": st["solve_s"],
               "lp.rows_mean": st["rows"] / n if n else 0.0,
               "lp.vars_mean": st["vars"] / n if n else 0.0,
               "lp.free_vars_mean": st["free"] / n if n else 0.0,
               "lp.infeasible": st["infeasible"], "lp.result_bits_max": st["bits"]}
        for _mod, _attr, key, field in FUNCTIONS:
            out.update({f"{key}.calls": self.calls[key], f"{key}.s": self.incl[key],
                        f"{key}.self_s": self.self_s[key]})
            if field:
                out[f"{key}.{field}"] = self.report.get(key, 0)
        for _cls, _attr, key in METHODS:
            out.update({f"{key}.calls": self.calls[key], f"{key}.s": self.incl[key],
                        f"{key}.self_s": self.self_s[key]})
        for _mod, key in MODULES:
            out.update({f"{key}.calls": self.calls[key], f"{key}.s": self.incl[key]})
        return out

    def self_time_total(self):
        """Sum of every span's self time: the time covered by top-level spans."""
        return sum(self.self_s.values())

    def save(self, path):
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=np.frombuffer(self.sp_name, np.int32),
                     parent=np.frombuffer(self.sp_parent, np.int32),
                     item=np.frombuffer(self.sp_item, np.int32),
                     start=np.frombuffer(self.sp_start), end=np.frombuffer(self.sp_end))
