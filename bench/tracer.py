"""Span tracer that times calls into the library's public functions from outside.

`from .x import f` binds `f` in every module that imports it, so a function
is wrapped under every name that refers to it in any `waldschmidt` module.
`Tracer.install` swaps the wrappers in and `Tracer.restore` puts the original
objects back, so code run outside a traced op is the unmodified library.
"""

import functools
import gzip
import json
import sys
import time

# (defining module, attribute, span name).  Spans are named layer.function.
TARGETS = [
    ("waldschmidt.classify", "classify", "classify.classify"),
    ("waldschmidt.geometry", "incidence_profile", "geometry.incidence_profile"),
    ("waldschmidt.geometry", "conic_through", "geometry.conic_through"),
    ("waldschmidt.geometry", "mult_at", "geometry.mult_at"),
    ("waldschmidt.fatpoints", "alpha", "fatpoints.alpha"),
    ("waldschmidt.fatpoints", "interpolation_matrix", "fatpoints.interpolation_matrix"),
    ("waldschmidt.linalg", "rank_exact", "linalg.rank_exact"),
    ("waldschmidt.linalg", "nullspace", "linalg.nullspace"),
    ("waldschmidt.linalg", "rank_modular", "linalg.rank_modular"),
    ("waldschmidt.bezout", "build_system", "bezout.build_system"),
    ("waldschmidt.bezout", "solve_min_ratio", "bezout.solve_min_ratio"),
    ("waldschmidt.engine", "verify_upper", "engine.verify_upper"),
]
# Methods are patched on their class, which every caller shares.
METHOD_TARGETS = [
    ("waldschmidt.engine", "Engine", "alpha_uniform", "engine.alpha_uniform"),
]
OP = "bench.op"


class Tracer:
    """Records spans [name, start, end, parent, op] in memory.

    `observers[name](counters, args, result)` turns a call's result into
    counters (matrix sizes, degrees tried, LP sizes).  Span times come from a
    clock that stops while an observer runs, so counting adds to no span.
    """

    def __init__(self, observers=None):
        self.spans = []
        self.observers = observers or {}
        self.counters = {}
        self._stack = []
        self._patched = []
        self._op = -1
        self._paused = 0.0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock() - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock() - self._paused
                stack.pop()
            if observe is not None:
                t0 = clock()
                observe(self.counters, args, result)
                self._paused += clock() - t0
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "waldschmidt" or k.startswith("waldschmidt.")]
        for mod_name, attr, name in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def restore(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def run_op(self, op_id, fn, arg):
        """Run one op under an `OP` root span; returns (result, traced seconds)."""
        root = len(self.spans)
        self._op = op_id
        self.install()
        try:
            result = self._wrap(OP, fn)(arg)
        finally:
            self.restore()
            self._op = -1
        _, start, end, _, _ = self.spans[root]
        return result, end - start

    def per_function(self):
        """{span name: (calls, self seconds)}; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - child[i]))
        return out

    def count_without_child(self, name, child_name):
        """Number of `name` spans that have no direct `child_name` child."""
        parents = {s[3] for s in self.spans if s[0] == child_name}
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and i not in parents)

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
