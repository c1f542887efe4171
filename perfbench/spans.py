"""Span recorder for the traced benchmark passes.

``install`` wraps the layer functions listed in layers.json. Each wrapper
is bound in the function's defining module and under every other name that
refers to the same object in an ``earlab`` module, because
``from .complexes import build_complex`` gives ``decompositions``,
``labelings`` and ``cli`` references of their own. If, after patching, any
earlab namespace still refers to an original function, a call path would
escape the trace, and ``install`` raises.

Per-element helpers (``inversion_mask``, ``join_i``, ``face_name``, ...)
are deliberately left unwrapped so the overhead stays small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text(encoding="utf-8"))["layers"]

# "module.function" names that get a span, in the layer map's order
TRACED = tuple(fn for layer in LAYERS for fn in layer["functions"])
MODULES = sorted({fn.split(".")[0] for fn in TRACED})


class Tracer:
    """Inclusive time and calls per function, self time per module, and the
    counters named in the layer map. A recursive call adds to its function's
    calls but not to its inclusive time, which the outermost call holds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._child = []  # time spent in child spans, one slot per open span
        self._shelled = set()  # facet sequences verify_shelling passed this invocation

    def new_invocation(self):
        self._shelled.clear()

    def call(self, key, fn, args, kwargs):
        self.calls[key] += 1
        self._depth[key] += 1
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            args = self._count_args(key, args)
            result = fn(*args, **kwargs)
            self._count_result(key, args, result)
            return result
        finally:
            dt = time.perf_counter() - t0
            self._depth[key] -= 1
            if self._depth[key] == 0:
                self.incl[key] += dt
            self.self_s[key.split(".")[0]] += dt - self._child.pop()
            if self._child:
                self._child[-1] += dt

    def _count_args(self, key, args):
        if key == "complexes.build_complex":
            facets = list(args[0])  # may be a generator: count it once, pass the list
            self.counts["complexes.build_complex.facets_in"] += len(facets)
            return (facets, *args[1:])
        return args

    def _count_result(self, key, args, result):
        if key == "complexes.union_complexes":
            self.counts["complexes.union_complexes.facets_in"] += sum(len(c.facets) for c in args)
            self.counts["complexes.union_complexes.facets_out"] += len(result.facets)
        elif key == "complexes.verify_shelling":
            # facets of accepted orders; a repeat re-checks an order already
            # accepted in this CLI invocation
            seq = tuple(result.facet_sequence())
            self.counts["complexes.verify_shelling.facets"] += len(seq)
            if seq in self._shelled:
                self.counts["complexes.verify_shelling.repeats"] += 1
            self._shelled.add(seq)
        elif key.startswith("decompositions.decompose_"):
            self.counts["decompositions.ears"] += len(result.ears)
            self.counts["decompositions.facets"] += len(result.complex.facets)


def _earlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "earlab" or name.startswith("earlab.")]


def _references(module):
    """(name, value) for the module's globals, the attributes of classes it
    defines, and the items of module-level dicts, lists and tuples."""
    namespaces = [module.__dict__] + [
        v.__dict__
        for v in list(module.__dict__.values())
        if isinstance(v, type) and v.__module__ == module.__name__
    ]
    for ns in namespaces:
        for name, value in list(ns.items()):
            yield name, value
            if isinstance(value, dict):
                yield from ((name, v) for v in value.values())
            elif isinstance(value, (list, tuple)):
                yield from ((name, v) for v in value)


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function under every earlab name bound to it."""
    wrappers = {}  # id(original) -> (original, wrapper)
    for key in TRACED:
        mod_name, fn_name = key.split(".")
        fn = getattr(sys.modules[f"earlab.{mod_name}"], fn_name)

        def wrapper(*args, _fn=fn, _key=key, **kwargs):
            return tracer.call(_key, _fn, args, kwargs)

        wrappers[id(fn)] = (fn, functools.update_wrapper(wrapper, fn))

    def wrapped(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for module in _earlab_modules():
        for name, value in list(module.__dict__.items()):
            w = wrapped(value)
            if w is not None:
                setattr(module, name, w)

    missed = sorted(
        f"{module.__name__}:{name}"
        for module in _earlab_modules()
        for name, value in _references(module)
        if wrapped(value) is not None
    )
    if missed:
        raise RuntimeError("traced functions still reachable unwrapped via " + ", ".join(missed))
