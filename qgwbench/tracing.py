"""Per-layer tracing of qgw from the outside, for traced benchmark runs.

``Tracer.install`` replaces the public functions of every qgw module, and
the arithmetic and constructor methods of its classes and
``Presentation.reduce_terms``, with wrappers that time each call.  A layer
is a module.  Calls to public functions become spans (name, start, end,
parent) kept in memory and written out at the end; the far more frequent
method calls are timed the same way but not stored.  Other public methods
(small accessors such as ``RMatrix.entry``) are not wrapped: their time
counts to the layer that calls them.  Scalar arithmetic is kept as counters and summed time.  A
layer's self time is its calls' time minus the time of the calls they make
into other wrapped code.  Untraced runs never import this module.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
import weakref

LAYERS = ("ncalg", "gtensor", "smat", "rmatlab", "hopfcore", "algebras", "frt",
          "reps", "exterior", "report", "cli")

# Arithmetic and constructor methods, timed but too frequent to store as spans.
_HOT_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__neg__", "__eq__")

_SCALAR_BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__")
_SCALAR_OTHER = ("__pow__", "__neg__", "__eq__")

MAX_SPANS = 2_000_000


# Per-layer metrics ahead of the per-check times, with their units.
LAYER_METRICS = [
    ("scalars.ops", "count"), ("scalars.div_ops", "count"), ("scalars.self_s", "s"),
    ("scalars.laurent_ratio", "ratio"),
    ("ncalg.reduce_calls", "count"), ("ncalg.rewrite_steps", "count"), ("ncalg.self_s", "s"),
    ("ncalg.distinct_word_ratio", "ratio"), ("ncalg.compile_s", "s"), ("ncalg.overlap_s", "s"),
    ("gtensor.tensor_mul_calls", "count"), ("gtensor.self_s", "s"),
    ("hopfcore.coproduct_calls", "count"), ("hopfcore.self_s", "s"),
    ("smat.mmul_calls", "count"), ("smat.mmul_s", "s"), ("smat.inv_s", "s"),
    ("smat.self_s", "s"), ("rmatlab.self_s", "s"), ("reps.self_s", "s"),
    ("frt.self_s", "s"), ("exterior.self_s", "s"), ("algebras.self_s", "s"),
]
_UNITS = dict(LAYER_METRICS)


def check_metric_name(check_id: str) -> str:
    return "cli.check_s." + check_id.replace("/", "-")


def metric_names(check_ids) -> list:
    return ([name for name, _ in LAYER_METRICS]
            + [check_metric_name(c) for c in check_ids] + ["trace.overhead_s"])


def unit_of(name: str) -> str:
    return _UNITS.get(name, "s")


class Tracer:
    def __init__(self):
        self.perf = time.perf_counter
        self.stack = [[0.0, 0]]       # frames: [child seconds, span id]
        self.names = []               # span name table
        self.name_ids = {}
        self.spans = []               # (id, name id, start, end, parent id)
        self.next_id = 1
        self.dropped = 0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {}               # qualified name -> call count
        self.inclusive = {}           # qualified name -> seconds, outermost calls only
        self.active = {}              # qualified name -> nesting depth
        self.frames = 0
        self.light_frames = 0
        # scalars: ops, divisions, ops with monomial denominators, other calls
        self.sc = [0, 0, 0, 0]
        self.sc_time = [0.0]
        self.words_in = 0
        self.words_distinct = 0
        self._seen = weakref.WeakKeyDictionary()
        self.compile_depth = 0
        self.overlap_in_compile = 0.0
        self.steps0 = 0
        self._ncalg = None
        self.t_installed = None

    # -- wrappers -----------------------------------------------------------
    def _name_id(self, name):
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, layer, qualname, f, store, extra=None):
        perf, stack, self_s = self.perf, self.stack, self.self_s
        nid = self._name_id(qualname)
        calls, inclusive, active = self.calls, self.inclusive, self.active
        calls.setdefault(qualname, 0)
        inclusive.setdefault(qualname, 0.0)
        active.setdefault(qualname, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if store and len(tracer.spans) < MAX_SPANS:
                sid = tracer.next_id
                tracer.next_id += 1
            else:  # not stored: children hang on the nearest stored span
                sid = -abs(parent[1])
            frame = [0.0, sid]
            stack.append(frame)
            active[qualname] += 1
            if extra is not None:
                extra(args)
            t0 = perf()
            try:
                return f(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[qualname] -= 1
                d = t1 - t0
                parent[0] += d
                self_s[layer] += d - frame[0]
                calls[qualname] += 1
                if not active[qualname]:
                    inclusive[qualname] += d
                if sid > 0:
                    tracer.spans.append((sid, nid, t0, t1, abs(parent[1])))
                    tracer.frames += 1
                else:
                    if store:
                        tracer.dropped += 1
                    tracer.light_frames += 1

        wrapper.__wrapped__ = f
        wrapper.__name__ = getattr(f, "__name__", qualname)
        wrapper.__doc__ = getattr(f, "__doc__", None)
        return wrapper

    def _scalar_wrapper(self, f, binary, div):
        perf, stack, sc, sc_time = self.perf, self.stack, self.sc, self.sc_time

        def wrapper(a, *rest):
            t0 = perf()
            try:
                return f(a, *rest)
            finally:
                d = perf() - t0
                stack[-1][0] += d
                sc_time[0] += d
                if binary:
                    sc[0] += 1
                    if div:
                        sc[1] += 1
                    b = rest[0]
                    if len(a.f.denom) == 1 and (not hasattr(b, "f") or len(b.f.denom) == 1):
                        sc[2] += 1
                else:
                    sc[3] += 1

        wrapper.__wrapped__ = f
        return wrapper

    def _reduce_extra(self, args):
        pres, terms = args[0], args[1]
        seen = self._seen.get(pres)
        if seen is None:
            seen = self._seen[pres] = set()
        for w in terms:
            w = tuple(w)
            self.words_in += 1
            if w not in seen:
                seen.add(w)
                self.words_distinct += 1

    # -- installation ---------------------------------------------------------
    def install(self):
        import qgw
        from qgw import cli, ncalg, scalars

        mods = {layer: importlib.import_module(f"qgw.{layer}") for layer in LAYERS}
        replaced = {}

        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj, True)
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                if issubclass(cls, BaseException):
                    continue
                for mname, meth in list(vars(cls).items()):
                    reduce = cls is ncalg.Presentation and mname == "reduce_terms"
                    if inspect.isfunction(meth) and (mname in _HOT_DUNDERS or reduce):
                        setattr(cls, mname, self._wrap(
                            layer, f"{layer}.{cname}.{mname}", meth, False,
                            self._reduce_extra if reduce else None))

        patched = list(mods.values()) + [scalars, qgw]
        for mod in patched:
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)

        # compile_relations without its overlap check
        orig_compile = ncalg.compile_relations
        orig_overlap = ncalg.overlap_check

        def compile_wrapper(*a, **k):
            self.compile_depth += 1
            try:
                return orig_compile(*a, **k)
            finally:
                self.compile_depth -= 1

        def overlap_wrapper(*a, **k):
            t0 = self.perf()
            try:
                return orig_overlap(*a, **k)
            finally:
                if self.compile_depth:
                    self.overlap_in_compile += self.perf() - t0

        compile_wrapper.__wrapped__ = orig_compile
        overlap_wrapper.__wrapped__ = orig_overlap
        for mod in patched:
            for name, obj in list(vars(mod).items()):
                if obj is orig_compile:
                    setattr(mod, name, compile_wrapper)
                elif obj is orig_overlap:
                    setattr(mod, name, overlap_wrapper)

        # one span per check of the command line suite
        for c in cli.CHECKS:
            c.fn = self._wrap("cli", f"cli.check:{c.id}", c.fn, True)

        S = scalars.Scalar
        for mname in _SCALAR_BINARY:
            setattr(S, mname, self._scalar_wrapper(vars(S)[mname], True,
                                                   "truediv" in mname))
        for mname in _SCALAR_OTHER:
            setattr(S, mname, self._scalar_wrapper(vars(S)[mname], False, False))

        self._ncalg = ncalg
        self.steps0 = ncalg.STATS["steps"]
        self.t_installed = self.perf()

    # -- results --------------------------------------------------------------
    def calibrate(self, n=20000, repeats=5) -> dict:
        """Cost of one call through each kind of wrapper, in seconds: the
        least, over a few repeats, of a wrapped minus a bare call of a
        function that does nothing (with Scalar arguments for the scalar
        wrapper, whose denominator test runs on them)."""
        from qgw.scalars import ONE

        def noop(*a):
            return None

        probe = Tracer()
        kinds = {"span": probe._wrap("ncalg", "probe", noop, True),
                 "frame": probe._wrap("ncalg", "probe", noop, False),
                 "scalar": probe._scalar_wrapper(noop, True, False)}
        out = {}
        for key, w in kinds.items():
            best = float("inf")
            for _ in range(repeats):
                t0 = self.perf()
                for _ in range(n):
                    noop(ONE, ONE)
                t1 = self.perf()
                for _ in range(n):
                    w(ONE, ONE)
                t2 = self.perf()
                best = min(best, ((t2 - t1) - (t1 - t0)) / n)
            out[key] = max(0.0, best)
        return out

    def metrics(self, costs: dict) -> dict:
        """{name: (value, unit)} in the order of ``metric_names``."""
        from qgw import cli

        sc = self.sc
        ops = sc[0]
        values = {
            "scalars.ops": ops,
            "scalars.div_ops": sc[1],
            "scalars.self_s": self.sc_time[0],
            "scalars.laurent_ratio": sc[2] / ops if ops else 0.0,
            "ncalg.reduce_calls": self.calls.get("ncalg.Presentation.reduce_terms", 0),
            "ncalg.rewrite_steps": self._ncalg.STATS["steps"] - self.steps0,
            "ncalg.self_s": self.self_s["ncalg"],
            "ncalg.distinct_word_ratio": (self.words_distinct / self.words_in
                                          if self.words_in else 0.0),
            "ncalg.compile_s": (self.inclusive.get("ncalg.compile_relations", 0.0)
                                - self.overlap_in_compile),
            "ncalg.overlap_s": self.inclusive.get("ncalg.overlap_check", 0.0),
            "gtensor.tensor_mul_calls": self.calls.get("gtensor.tensor_mul", 0),
            "gtensor.self_s": self.self_s["gtensor"],
            "hopfcore.coproduct_calls": self.calls.get("hopfcore.coproduct", 0),
            "hopfcore.self_s": self.self_s["hopfcore"],
            "smat.mmul_calls": self.calls.get("smat.mmul", 0),
            "smat.mmul_s": self.inclusive.get("smat.mmul", 0.0),
            "smat.inv_s": self.inclusive.get("smat.inv", 0.0),
            "smat.self_s": self.self_s["smat"],
        }
        for layer in ("rmatlab", "reps", "frt", "exterior", "algebras"):
            values[f"{layer}.self_s"] = self.self_s[layer]
        ids = [c.id for c in cli.CHECKS]
        for cid in ids:
            values[check_metric_name(cid)] = self.inclusive.get(f"cli.check:{cid}", 0.0)
        values["trace.overhead_s"] = (self.frames * costs["span"]
                                      + self.light_frames * costs["frame"]
                                      + (sc[0] + sc[3]) * costs["scalar"])
        return {name: (values[name], unit_of(name)) for name in metric_names(ids)}

    def write(self, path: str):
        """Spans as JSON lines: id, name, start, end, parent (0 = the run)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "t_installed": self.t_installed}) + "\n")
            for sid, nid, t0, t1, parent in self.spans:
                fh.write(f"[{sid},{nid},{t0:.7f},{t1:.7f},{parent}]\n")
