"""Spans and counters around the skewpoly layers, installed from outside the library.

A :class:`Tracer` wraps the public functions of each module listed in
``SPANNED`` and rebinds every name under which any ``skewpoly`` module (or
the benchmark's ``workloads`` module) holds the original, so a function imported into several modules (``rank``
in geometry, interpolation and cli; ``fundamental_table`` in geometry and
interpolation) is traced wherever it is called from.  Ring arithmetic and
frame map application are too fine to span: they are only counted, and
their time stays in the self time of the enclosing span.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out by the caller when the run ends.  The library source is not
modified; :meth:`Tracer.uninstall` restores every rebound name.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions that get a span
SPANNED = {
    "freering": ("mul", "from_terms"),
    "evaluation": (
        "divide", "evaluate", "fundamental", "fundamental_table", "conjugate",
        "check_product_rule",
    ),
    "frames": ("validate_frame",),
    "linalg": ("row_reduce_left", "rank", "left_null_space", "solve_left", "left_apply", "mat_mul"),
    "geometry": (
        "vandermonde", "is_p_independent_from", "find_p_basis", "rank_of", "in_closure",
        "closure_members", "set_is_p_independent", "is_two_sided",
    ),
    "interpolation": (
        "separator", "lagrange_interpolate", "lagrange_via_vandermonde", "dual_p_basis",
        "independent_rows", "reduce_mod_ideal",
    ),
}

# Python frames added per traced recursion level of ``freering._push``.
# Traced runs raise the recursion limit by this factor so that the counting
# wrapper does not make a word fail that fails nowhere else.
RECURSION_FACTOR = 2

_ABSENT = object()


def ring_label(ring):
    """Short stable name of a coefficient ring: gf<q> or quat."""
    q = getattr(ring, "q", None)
    return f"gf{q}" if q is not None else "quat"


# the benchmark's own module that calls into the library is rebound too
BENCH_MODULES = ("workloads",)


def _traced_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "skewpoly" or name.startswith("skewpoly.")
                                  or name in BENCH_MODULES)]


class Tracer:
    """Installs wrappers on the skewpoly modules and collects spans and counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        # (op, ring) -> calls; ring objects are kept so unit costs can be
        # measured on the very rings the workload used
        self.ring_calls = Counter()
        self._patches = []
        self._frames = []

    # -- installation ----------------------------------------------------------

    def rebind(self, original, replacement):
        """Point every traced module name bound to original at replacement."""
        for mod in _traced_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def _patch_attr(self, owner, key, replacement):
        self._patches.append((owner, key, owner.__dict__.get(key, _ABSENT)))
        setattr(owner, key, replacement)

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span called name; before/after feed the counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(out)
            return out

        return wrapper

    def install(self):
        import skewpoly.freering as freering
        import skewpoly.geometry as geometry
        from skewpoly.frames import Frame, LinearMap, QuatMap
        from skewpoly.rings import FieldElement, FiniteField, Quaternion, QuaternionRing

        c = self.counts
        hooks = {
            "freering.mul": dict(
                before=lambda F, G: c.update(("freering.mul_calls",)),
                after=lambda P: c.update({"freering.terms_out": len(P.terms)})),
            "evaluation.evaluate": dict(before=lambda F, a: c.update(("evaluation.evaluate_calls",))),
            "evaluation.divide": dict(before=lambda F, a: c.update(("evaluation.divide_calls",))),
            "evaluation.fundamental_table": dict(
                before=lambda f, a, d: c.update(("evaluation.fundamental_table_calls",))),
            "linalg.row_reduce_left": dict(
                before=lambda A: c.update({"linalg.reduce_calls": 1,
                                           "linalg.reduce_cells": A.nrows * A.ncols,
                                           "linalg.transform_cells": A.nrows * A.nrows}),
                after=lambda red: c.update({"linalg.pivots": len(red.pivots)})),
            "geometry.vandermonde": dict(
                after=lambda V: c.update({"geometry.vandermonde_calls": 1,
                                          "geometry.vandermonde_rows": V.nrows})),
            "geometry.is_p_independent_from": dict(
                before=lambda f, b, base: c.update(("geometry.independence_tests",))),
            "interpolation.separator": dict(
                before=lambda f, base, b: c.update(("interpolation.separator_calls",))),
        }
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"skewpoly.{mod_name}"]
            for fname in names:
                full = f"{mod_name}.{fname}"
                fn = getattr(mod, fname)
                self.rebind(fn, self.span(full, fn, **hooks.get(full, {})))

        # freering._push recurses through the module global, so patching the
        # module attribute counts the recursive calls too
        push = freering._push

        def counted_push(frame, word, a, memo):
            c["freering.push_calls"] += 1
            return push(frame, word, a, memo)

        self._patch_attr(freering, "_push", counted_push)

        points = geometry.all_points

        def counted_points(frame):
            for p in points(frame):
                c["geometry.points_enumerated"] += 1
                yield p

        self.rebind(points, counted_points)

        # rings: construction is spanned, element arithmetic counted per ring
        self._patch_attr(FiniteField, "__init__", self.span("rings.build", FiniteField.__init__))
        self._patch_attr(QuaternionRing, "__init__",
                         self.span("rings.build", lambda ring: None))
        rc = self.ring_calls
        kinds = {"__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
                 "__neg__": "add", "__mul__": "mul", "__rmul__": "mul", "inv": "inv"}
        for cls, ring_attr in ((FieldElement, "field"), (Quaternion, "ring")):
            for key, kind in kinds.items():
                self._patch_attr(cls, key, _counted_element_op(cls.__dict__[key], kind, ring_attr, rc))

        # frames: sigma/delta lookups with memo misses, and every map application
        for key, memo_attr in (("sigma_at", "_sig_cache"), ("delta_at", "_del_cache")):
            self._patch_attr(Frame, key, _counted_lookup(Frame.__dict__[key], key, memo_attr, c))
        for cls in (LinearMap, QuatMap):
            apply = cls.__dict__["apply"]

            def counted_apply(m, a, _apply=apply):
                c["frames.apply_calls"] += 1
                return _apply(m, a)

            self._patch_attr(cls, "apply", counted_apply)

        frame_init = Frame.__dict__["__init__"]
        frames = self._frames

        def tracked_init(f, *args, **kwargs):
            frame_init(f, *args, **kwargs)
            frames.append(f)

        self._patch_attr(Frame, "__init__", tracked_init)
        sys.setrecursionlimit(sys.getrecursionlimit() * RECURSION_FACTOR)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patches.clear()
        sys.setrecursionlimit(sys.getrecursionlimit() // RECURSION_FACTOR)

    # -- results -----------------------------------------------------------------

    def memo_entries(self):
        return sum(len(f._sig_cache) + len(f._del_cache) for f in self._frames)

    def self_times(self, since=None, until=None):
        """Self time and call count per span name, for spans starting in [since, until)."""
        child = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: [0.0, 0])
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            name, start, end, _ = s
            if (since is not None and start < since) or (until is not None and start >= until):
                continue
            acc = out[name]
            acc[0] += end - start - child[sid]
            acc[1] += 1
        return dict(out)

    def ring_calls_by_label(self):
        out = Counter()
        for (kind, ring), n in self.ring_calls.items():
            out[(kind, ring_label(ring))] += n
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                if s is not None:
                    name, start, end, parent = s
                    fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _counted_element_op(fn, kind, ring_attr, calls):
    def wrapper(self, *args):
        calls[(kind, getattr(self, ring_attr))] += 1
        return fn(self, *args)

    return wrapper


def _counted_lookup(fn, key, memo_attr, counts):
    calls, misses = f"frames.{key}_calls", f"frames.{key}_misses"

    def wrapper(frame, a):
        counts[calls] += 1
        if a not in getattr(frame, memo_attr):
            counts[misses] += 1
        return fn(frame, a)

    return wrapper
