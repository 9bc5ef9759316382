"""Span tracer for tfslab's layer boundaries, installed from outside.

A layer is a tfslab module (``gamma`` is folded into ``mlf``).  The tracer
finds every public function a module defines and wraps it in each module of
*another* layer that bound it by name (``from .mlf import
state_kernel_grid``), so every call that crosses a layer boundary is seen
without a hard-coded function list and without edits inside the package;
renamed or new functions are picked up the same way.  Calls inside one
layer stay unwrapped, which keeps the tracer off the scalar inner loops.
Calls made through a module attribute (``cli.main`` after ``from . import
cli``) are not seen and count toward the caller.

Each span records its call (one benchmark pipeline call), its parent span,
layer, function name, start, end and the size of its result: complex values
for an array or complex scalar, characters for a string.  mlf spans also
record whether their arguments exactly repeat an earlier mlf call within
the same pipeline call.  Spans stay in memory until ``dump``.  The wrappers
keep one stack, so traced code must not call tfslab from several threads
(the benchmark never passes ``workers``).
"""

import gzip
import importlib
import inspect
import json
import pkgutil
import time
from contextlib import contextmanager

import numpy as np

FOLDED = {"gamma": "mlf"}

# span fields
CALL, ID, PARENT, LAYER, NAME, T0, T1, SIZE, REPEAT = range(9)


def layer_of(module_name):
    short = module_name.rsplit(".", 1)[-1]
    return FOLDED.get(short, short)


def _result_size(result):
    if isinstance(result, str):
        return len(result)
    if isinstance(result, complex):
        return 1
    if isinstance(result, np.ndarray) and result.dtype.kind == "c":
        return int(result.size)
    return 0


def _arg_key(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def _call_key(name, args, kwargs):
    key = (name, tuple(_arg_key(a) for a in args),
           tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return None
    return key


class Tracer:
    def __init__(self, package):
        self.modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"  # importing it runs the CLI
        ]
        self.layers = sorted({layer_of(m.__name__) for m in self.modules})
        self.spans = []
        self.call = -1
        self._stack = []
        self._seen = set()
        self._patches = []

    def install(self):
        defined = {}
        for mod in self.modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    defined[obj] = layer_of(mod.__name__)
        for mod in self.modules:
            here = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and defined.get(obj, here) != here:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, self._wrap(obj, defined[obj]))

    def uninstall(self):
        while self._patches:
            mod, name, obj = self._patches.pop()
            setattr(mod, name, obj)

    def _open(self, layer, name):
        span = [self.call, len(self.spans), self._stack[-1] if self._stack else -1,
                layer, name, 0.0, 0.0, 0, False]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _wrap(self, fn, layer):
        name = fn.__name__
        keyed = layer == "mlf"

        def traced(*args, **kwargs):
            span = self._open(layer, name)
            span[T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                self._stack.pop()
            span[SIZE] = _result_size(result)
            if keyed:
                key = _call_key(name, args, kwargs)
                if key is not None:  # an unhashable call never counts as a repeat
                    span[REPEAT] = key in self._seen
                    self._seen.add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, layer, name):
        """Span around one benchmark pipeline call into ``layer``."""
        self.call += 1
        self._seen = set()
        span = self._open(layer, name)
        span[T0] = time.perf_counter()
        try:
            yield
        finally:
            span[T1] = time.perf_counter()
            self._stack.pop()

    def call_metrics(self, call):
        """Per-layer totals of one pipeline call."""
        spans = [s for s in self.spans if s[CALL] == call]
        child_time = {}
        for s in spans:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[T1] - s[T0]
        self_s = dict.fromkeys(self.layers, 0.0)
        calls = dict.fromkeys(self.layers, 0)
        size = dict.fromkeys(self.layers, 0)
        repeated = solves = 0
        for s in spans:
            self_s[s[LAYER]] += s[T1] - s[T0] - child_time.get(s[ID], 0.0)
            calls[s[LAYER]] += 1
            size[s[LAYER]] += s[SIZE]
            if s[REPEAT]:
                repeated += s[SIZE]
            if s[LAYER] == "forward" and s[NAME].startswith("solve"):
                solves += 1
        out = {f"{layer.lstrip('_')}.self_s": self_s[layer] for layer in self.layers}
        values = size.get("mlf", 0)
        out.update({
            "mlf.calls": calls.get("mlf", 0),
            "mlf.values": values,
            "mlf.values_per_s": values / self_s["mlf"] if self_s.get("mlf") else 0.0,
            "mlf.repeat_share": repeated / values if values else 0.0,
            "forward.solves": solves,
            "kernels.calls": calls.get("_kernels", 0),
            "serialize.bytes": size.get("serialize", 0),
        })
        return out

    def function_counts(self, call):
        """Calls per layer.function in one pipeline call."""
        counts = {}
        for s in self.spans:
            if s[CALL] == call and s[PARENT] != -1:
                key = f"{s[LAYER]}.{s[NAME]}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def dump(self, path):
        fields = ("call", "id", "parent", "layer", "name", "t0", "t1", "size", "repeat")
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")
