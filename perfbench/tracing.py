"""Span tracing of calls between cstarlab modules, installed from outside.

The library binds names across modules with ``from .linalg import
grow_span``, so a wrapper set only on ``cstarlab.linalg`` would miss every
call made through another module's binding.  :meth:`Tracer.install`
therefore rebinds each wrapper under every name, in every loaded
``cstarlab`` module, that refers to the original function (the defining
module included, so its own internal calls are traced too), and
:meth:`Tracer.uninstall` puts the originals back.  No library source is
touched.

A span is ``(name, start, end, parent, trace_id, nested, extra)``: the
parent is the index of the enclosing span (-1 for none), ``trace_id``
groups the spans of one benchmark instance, ``nested`` marks a span with
an ancestor of the same name (its duration is already inside that
ancestor's), and ``extra`` carries counters recorded at the boundary.
Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import sys
from time import perf_counter

import numpy as np

# <module>.<function> under ``cstarlab``; every one is called across a module
# boundary or is a public entry point.
TRACED = (
    "cli.main",
    "jsonio.decode_fixture",
    "jsonio.dumps_report",
    "linalg.grow_span",
    "linalg.span_rows",
    "linalg.orthonormalize",
    "linalg.hermitian_eig",
    "linalg.support_projection_of_psd",
    "linalg.pseudo_inverse_sqrt",
    "algebra.generate_algebra",
    "algebra.StarAlgebra.from_span",
    "algebra.unit_of",
    "algebra.unitize",
    "algebra.center",
    "ideals.generate_right_ideal",
    "ideals.projection_generator",
    "ideals.support_projection",
    "ideals.is_minimal_projection",
    "ideals.is_maximal_right_ideal",
    "ideals._corner_space",
    "structure.wedderburn_decompose",
    "structure.minimal_projection_below",
    "tro.generate_tro",
    "tro.classify_tro",
    "tro.generate_submodule",
    "tro.is_maximal_submodule",
    "tro.submodule_ideal_roundtrip",
    "tro.finite_generation_certificate",
)

GROW_SPAN_COUNTERS = ("candidate_rows", "kept_rows", "candidate_bytes")

_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


def _grow_span_counts(args, kwargs, result):
    """Rows offered to and kept by ``grow_span(stack, candidates)``, and
    the candidate bytes computed from the array shape (grow_span works in
    complex128 whatever the input dtype)."""
    stack = kwargs["stack"] if "stack" in kwargs else args[0]
    cands = kwargs["candidates"] if "candidates" in kwargs else args[1]
    shape = np.shape(cands)
    rows = shape[0] if len(shape) == 2 else 0
    cols = shape[1] if len(shape) == 2 else 0
    kept = np.shape(result[0])[0] - np.shape(stack)[0]
    return (rows, kept, rows * cols * _COMPLEX_BYTES)


_COUNTERS = {"linalg.grow_span": _grow_span_counts}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cstarlab" or name.startswith("cstarlab."))
    ]


class Tracer:
    """Records spans for the functions in :data:`TRACED` while installed."""

    def __init__(self):
        self.spans = []
        self.trace_id = -1
        self._stack = []
        self._active = {}
        self._undo = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth = active.get(name, 0)
            active[name] = depth + 1
            extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    extra = counter(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                active[name] = depth
                spans[idx] = (name, start, end, parent, self.trace_id, depth > 0, extra)

        return traced

    def install(self):
        modules = _package_modules()
        for name in TRACED:
            mod_name, _, attr = name.partition(".")
            module = sys.modules["cstarlab." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(cls, meth, type(raw)(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._undo.append((mod, binding, original))
        self._check_rebound(modules)

    def _check_rebound(self, modules):
        originals = {id(obj) for _, _, obj in self._undo}
        for mod in modules:
            for binding, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{mod.__name__}.{binding} still refers to an untraced function"
                    )

    @contextlib.contextmanager
    def instance(self, trace_id):
        """Root span ``instance`` around one benchmark instance; every span
        opened inside carries ``trace_id``."""
        self.trace_id = trace_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = ("instance", start, end, -1, trace_id, False, None)

    def uninstall(self):
        for owner, binding, original in reversed(self._undo):
            setattr(owner, binding, original)
        self._undo.clear()


def aggregate(spans, lo=0, hi=None):
    """Per-name ``calls``, ``total_s`` and ``self_s`` plus the grow_span
    counters, over the closed spans ``spans[lo:hi]`` (a whole number of
    instances, so every parent index lies inside the range).  Self time is
    a span's duration minus the time its child spans cover; children of
    one span never overlap, because the calls are synchronous."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _, _, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent - lo] += end - start
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
    counts = dict.fromkeys(GROW_SPAN_COUNTERS, 0)
    for idx, (name, start, end, _, _, nested, extra) in enumerate(spans[lo:hi]):
        row = stats.get(name)
        if row is None:
            continue
        row["calls"] += 1
        if not nested:
            row["total_s"] += end - start
        row["self_s"] += end - start - child[idx]
        if extra is not None:
            for key, value in zip(GROW_SPAN_COUNTERS, extra):
                counts[key] += value
    return stats, counts
