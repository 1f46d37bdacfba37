"""Per-layer spans recorded from outside alglength.

The tracer replaces public functions and methods of alglength with wrappers
that record a span (layer, parent span, start, end) per call, or only count
calls for the scalar layer, whose functions run millions of times.  A
function is rebound in every alglength module namespace that binds it (for
example ``compute_length`` in ``alglength``, ``alglength.length``,
``alglength.oracle`` and ``alglength.cli``), so calls are seen whichever
name the caller uses.  A target that does not exist is skipped and reports
0 calls.  :meth:`Tracer.uninstall` puts every original back.

Self time of a layer is its span durations minus the time covered by their
direct child spans.  A call into the layer that is already the innermost
open span (``from_products`` calling ``Algebra.__init__``, one reporting
helper calling another) is folded into that span.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (layer, module, target, mode).  ``Class.method`` targets are wrapped on the
# class and on each subclass that defines the method; ``*`` is every function
# defined in the module.
TARGETS = (
    ("fields.coerce", "alglength.fields", "Field.coerce", COUNT),
    ("fields.inv", "alglength.fields", "Field.inv", COUNT),
    ("algebra.construct", "alglength.algebra", "Algebra.__init__", SPAN),
    ("algebra.construct", "alglength.algebra", "Algebra.from_products", SPAN),
    ("algebra.multiply", "alglength.algebra", "Algebra.multiply", SPAN),
    ("algebra.validate_unital", "alglength.algebra", "validate_unital", SPAN),
    ("algebra.check_lc_basis", "alglength.algebra", "check_lc_basis", SPAN),
    ("echelon.insert", "alglength.echelon", "EchelonSubspace.insert", SPAN),
    ("echelon.reduce", "alglength.echelon", "EchelonSubspace.reduce", SPAN),
    ("length.compute_length", "alglength.length", "compute_length", SPAN),
    ("oracle.enumerate_words_spans", "alglength.oracle", "enumerate_words_spans", SPAN),
    ("oracle.brute_force_algebra_length", "alglength.oracle", "brute_force_algebra_length", SPAN),
    ("fileformat.parse_algebra", "alglength.fileformat", "parse_algebra", SPAN),
    ("fileformat.serialize_algebra", "alglength.fileformat", "serialize_algebra", SPAN),
    ("fileformat.parse_gens", "alglength.fileformat", "parse_gens", SPAN),
    ("bounds.verify_sequence", "alglength.bounds", "verify_sequence", SPAN),
    ("reporting", "alglength.reporting", "*", SPAN),
    ("cli.main", "alglength.cli", "main", SPAN),
)

# The layer whose calls count as "grew" when they return (space, row) with a row.
GREW_LAYER = "echelon.insert"


def layers() -> list[str]:
    return list(dict.fromkeys(t[0] for t in TARGETS))


def _program_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "alglength" or name.startswith("alglength."))
    ]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self):
        self.layers = layers()
        self._ids = {name: i for i, name in enumerate(self.layers)}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # ----- recording ---------------------------------------------------

    def reset(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = [0] * len(self.layers)
        self.grew = 0
        self._stack: list[tuple[int, int]] = []

    def _span_wrapper(self, fn, layer_id: int):
        tracer = self
        grew = layer_id == self._ids[GREW_LAYER]

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer_id:
                return fn(*args, **kwargs)
            idx = len(tracer.layer)
            tracer.layer.append(layer_id)
            tracer.parent.append(stack[-1][1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append((layer_id, idx))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if grew and isinstance(result, tuple) and len(result) == 2 and result[1] is not None:
                tracer.grew += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, layer_id: int):
        def wrapper(*args, **kwargs):
            self.counts[layer_id] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ----- installing --------------------------------------------------

    def _wrap(self, fn, layer: str, mode: str):
        layer_id = self._ids[layer]
        if mode == COUNT:
            return self._count_wrapper(fn, layer_id)
        return self._span_wrapper(fn, layer_id)

    def _replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the targets found."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        found = []
        modules = _program_modules()
        for layer, module_name, target, mode in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if target == "*":
                fns = [
                    (name, obj) for name, obj in vars(module).items()
                    if inspect.isfunction(obj) and obj.__module__ == module_name
                ]
                for name, fn in fns:
                    self._rebind_function(modules, fn, self._wrap(fn, layer, mode))
                    found.append(f"{module_name}.{name}")
            elif "." in target:
                cls_name, meth = target.split(".", 1)
                cls = getattr(module, cls_name, None)
                if not isinstance(cls, type):
                    continue
                for c in _subclasses(cls):
                    raw = c.__dict__.get(meth)
                    if raw is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, layer, mode))
                    elif inspect.isfunction(raw):
                        new = self._wrap(raw, layer, mode)
                    else:
                        continue
                    self._replace(c, meth, new)
                    found.append(f"{module_name}.{c.__name__}.{meth}")
            else:
                fn = getattr(module, target, None)
                if not inspect.isfunction(fn):
                    continue
                self._rebind_function(modules, fn, self._wrap(fn, layer, mode))
                found.append(f"{module_name}.{target}")
        return found

    def _rebind_function(self, modules, fn, new) -> None:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    self._replace(module, name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ----- summarising -------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per layer for the spans recorded since reset."""
        n_layers = len(self.layers)
        calls = list(self.counts)
        self_s = [0.0] * n_layers
        child = [0.0] * len(self.layer)
        for idx in range(len(self.layer)):
            dur = self.end[idx] - self.start[idx]
            calls[self.layer[idx]] += 1
            self_s[self.layer[idx]] += dur
            par = self.parent[idx]
            if par >= 0:
                child[par] += dur
        for idx in range(len(self.layer)):
            self_s[self.layer[idx]] -= child[idx]
        out: dict[str, float] = {}
        for i, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out[f"{GREW_LAYER}.grew"] = self.grew
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, layer, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tlayer\tstart_s\tend_s\n")
            for idx in range(len(self.layer)):
                fh.write(
                    f"{idx}\t{self.parent[idx]}\t{self.layers[self.layer[idx]]}\t"
                    f"{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n"
                )
