"""Span tracer for one benchmark request, installed from outside the package.

`install` wraps the public functions of every klbraid module (plus the few
methods listed in `EXTRA_METHODS`) and rebinds every name that refers to
them, in every klbraid module, so calls through ``from .x import f``
bindings and through module objects are both seen.  A wrapped call opens a
span only when it crosses into another layer; calls inside a layer are
counted but not spanned, which keeps the cost near one counter bump.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end) and written out by `Tracer.dump`.  Self time per layer is accumulated
as spans close: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "cli",
    "kl_recursion",
    "polynomial",
    "partitions",
    "stirling",
    "chains",
    "chain_formula",
    "whitney2",
    "lattice_oracle",
)

# Methods whose calls the per-layer metrics need.  Module-level public
# functions are found automatically.
EXTRA_METHODS = {
    "kl_recursion": {"KLTable": ("poly", "_solve")},
    "polynomial": {
        "IntPoly": (
            "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
            "__eq__", "reverse", "shift_down", "coeff", "render", "to_json_obj",
        )
    },
}


class Tracer:
    def __init__(self):
        self.fn_names: list[str] = []
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_spans = [0] * len(LAYERS)
        self.span_fn = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, layer id, start, time covered by children]
        self.stack: list[list] = []
        self.coeff_products = 0
        self.max_coeff_bits = 0
        self.triples = 0
        self.lattice_elements = 0
        self.lattice_sizes: set[int] = set()

    def register(self, qualname: str) -> int:
        self.fn_names.append(qualname)
        self.calls.append(0)
        self.yields.append(0)
        return len(self.fn_names) - 1

    def enter(self, fn_id: int, layer: int) -> list:
        # the clock is read last here and first in leave, so the tracer's
        # own bookkeeping falls outside the span
        stack = self.stack
        idx = len(self.span_start)
        self.span_fn.append(fn_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, layer, 0.0, 0.0]
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        self.span_start[frame[0]] = frame[2]
        self.span_end[frame[0]] = end
        dur = end - frame[2]
        self.layer_self[frame[1]] += dur - frame[3]
        self.layer_spans[frame[1]] += 1
        if self.stack:
            self.stack[-1][3] += dur

    def summary(self) -> dict:
        return {
            "calls": {n: c for n, c in zip(self.fn_names, self.calls) if c},
            "yields": {n: y for n, y in zip(self.fn_names, self.yields) if y},
            "self_s": dict(zip(LAYERS, self.layer_self)),
            "spans": dict(zip(LAYERS, self.layer_spans)),
            "coeff_products": self.coeff_products,
            "max_coeff_bits": self.max_coeff_bits,
            "triples": self.triples,
            "lattice_elements": self.lattice_elements,
            "lattice_distinct_n": len(self.lattice_sizes),
        }

    def dump(self, summary_path: str, spans_path: str) -> None:
        """Write the summary as JSON and the raw spans as one JSON header line
        followed by the four little-endian arrays, in that order."""
        with open(summary_path, "w") as f:
            json.dump(self.summary(), f)
        with open(spans_path, "wb") as f:
            header = {"names": self.fn_names, "count": len(self.span_start),
                      "arrays": ["fn:H", "parent:l", "start:d", "end:d"]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def _wrap_call(tr: Tracer, fn, fn_id: int, layer: int, after=None):
    calls, stack, enter, leave = tr.calls, tr.stack, tr.enter, tr.leave

    def wrapper(*args, **kwargs):
        calls[fn_id] += 1
        if stack and stack[-1][1] == layer:
            out = fn(*args, **kwargs)
        else:
            frame = enter(fn_id, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
        if after is not None:
            out = after(args, out)
        return out

    return wrapper


def _wrap_generator(tr: Tracer, fn, fn_id: int, layer: int):
    # each resumption of the generator is a span of its layer
    calls, yields, stack, enter, leave = tr.calls, tr.yields, tr.stack, tr.enter, tr.leave

    def wrapper(*args, **kwargs):
        calls[fn_id] += 1
        it = fn(*args, **kwargs)
        while True:
            frame = None if stack and stack[-1][1] == layer else enter(fn_id, layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    leave(frame)
            yields[fn_id] += 1
            yield item

    return wrapper


def _after_mul(tr: Tracer, IntPoly):
    def after(args, out):
        a, b = args
        if out is NotImplemented:
            return out
        if isinstance(b, IntPoly):
            tr.coeff_products += len(a.coeffs) * len(b.coeffs)
        cs = out.coeffs
        if cs:
            bits = max(max(cs).bit_length(), (-min(cs)).bit_length())
            if bits > tr.max_coeff_bits:
                tr.max_coeff_bits = bits
        return out

    return after


def _after_enumerate(tr: Tracer):
    def counted(it):
        for item in it:
            tr.triples += 1
            yield item

    return lambda args, out: counted(out)


def _after_build(tr: Tracer):
    def after(args, out):
        tr.lattice_elements += len(out)
        tr.lattice_sizes.add(args[0])
        return out

    return after


def install(tracer: Tracer) -> None:
    """Wrap every traced function of klbraid and rebind it everywhere."""
    for layer in LAYERS:
        importlib.import_module(f"klbraid.{layer}")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "klbraid" or name.startswith("klbraid.")}
    after_mul = _after_mul(tracer, modules["klbraid.polynomial"].IntPoly)
    hooks = {
        "polynomial.IntPoly.__mul__": after_mul,
        "polynomial.IntPoly.__rmul__": after_mul,
        "chains.enumerate_K": _after_enumerate(tracer),
        "lattice_oracle.build_partition_lattice": _after_build(tracer),
    }
    replaced: dict[int, object] = {}
    for layer_id, layer in enumerate(LAYERS):
        mod = modules[f"klbraid.{layer}"]
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            qual = f"{layer}.{name}"
            fn_id = tracer.register(qual)
            if inspect.isgeneratorfunction(obj):
                wrapped = _wrap_generator(tracer, obj, fn_id, layer_id)
            else:
                wrapped = _wrap_call(tracer, obj, fn_id, layer_id, hooks.get(qual))
            replaced[id(obj)] = wrapped
        for cls_name, methods in EXTRA_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                qual = f"{layer}.{cls_name}.{meth}"
                fn_id = tracer.register(qual)
                setattr(cls, meth, _wrap_call(tracer, vars(cls)[meth], fn_id,
                                              layer_id, hooks.get(qual)))
    # rebind every name bound to an original, in every klbraid module; the
    # originals stay alive inside their wrappers, so their ids stay unique
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
