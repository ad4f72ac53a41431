"""Per-layer tracing of curvecount, installed from outside the package.

``install()`` replaces the public functions of ``counts``, ``strata``,
``graphs``, ``series`` and ``cli`` with timing wrappers, both as module
attributes and under every name another curvecount module imported them
by, and patches the graph classes in place.  It is meant to run inside a
forked request child, so nothing needs undoing.

Two kinds of record are kept, all in memory:

- a *span* per call of a layer's public entry (``cli.main`` is the root of
  each request), with its parent span, start, end, self time and a few
  attributes;
- for hot leaves (``binomial``, graph construction, canonical keys,
  skeleton automorphisms and the per-row classification helpers), only a
  call count, self time and error count per enclosing span.

Self time is a call's duration minus the time of the traced calls nested
in it.  A traced call nested directly in a call of the same name (say
``deformation_bound`` calling ``dimension``) is folded into the outer one.
"""

from __future__ import annotations

import os
import statistics
import time
from functools import cached_property

SPANS = {
    "counts": ("rational_count", "elliptic_count", "zt_invariant", "divisibility_report", "load_table", "save_table"),
    "strata": ("enumerate_shapes", "classify_survivors"),
    "series": (
        "series_from_json",
        "series_to_json",
        "vanishing_sequence",
        "root_sum_relation",
        "root_sum_criterion",
        "root_sum",
        "translate",
    ),
}
CLASSIFY = ("is_stable", "dimension", "deformation_bound")


class _Frame:
    __slots__ = ("name", "child", "span", "failed")

    def __init__(self, name, span):
        self.name = name
        self.child = 0.0
        self.span = span
        self.failed = False


class Tracer:
    """Span and leaf recorder for one request."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._origin = time.perf_counter()

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result, exc)``
        returns extra attributes for it."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            rec = {
                "id": len(self.spans),
                "parent": parent.span["id"] if parent else None,
                "name": name,
                "leaves": {},
                "attrs": {},
            }
            self.spans.append(rec)
            frame = _Frame(name, rec)
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent.child += t1 - t0
                rec["t0"], rec["t1"] = t0 - self._origin, t1 - self._origin
                rec["self"] = t1 - t0 - frame.child
                if attrs is not None:
                    rec["attrs"].update(attrs(args, result, exc))

        return traced

    def leaf(self, name, fn):
        """Wrap ``fn`` so calls are counted and timed in the enclosing span."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = _Frame(name, parent.span)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                frame.failed = True
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent.child += dt
                stats = parent.span["leaves"].get(name)
                if stats is None:
                    stats = parent.span["leaves"][name] = [0, 0.0, 0]
                stats[0] += 1
                stats[1] += dt - frame.child
                stats[2] += frame.failed

        return traced

    def filled(self, fn):
        """Wrap ``RecursionTable.fill_to`` to add table growth to the open span."""
        stack = self._stack

        def traced(table, d):
            before = table.max_degree
            fn(table, d)
            if stack:
                attrs = stack[-1].span["attrs"]
                attrs["filled"] = attrs.get("filled", 0) + table.max_degree - before

        return traced


def install() -> Tracer:
    """Trace every public layer entry in this process; returns the tracer.

    ``cli.main``, the root of each request, is wrapped by the caller with
    ``tracer.span("cli.main", ...)``.
    """
    import curvecount
    from curvecount import cli, counts, graphs, series, strata

    tracer = Tracer()
    modules = (curvecount, cli, counts, graphs, series, strata)

    def replace(original, wrapper):
        for module in modules:
            for attr in [k for k, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)

    span_attrs = {
        "load_table": lambda args, result, exc: {"entries": result.max_degree if result else 0},
        "save_table": lambda args, result, exc: {"bytes": os.path.getsize(args[1]) if exc is None else 0},
        "enumerate_shapes": lambda args, result, exc: {
            "classes": len(result) if result else 0,
            "refused": isinstance(exc, strata.ResourceGuardError),
        },
    }
    layers = {"counts": counts, "strata": strata, "series": series}
    for layer, names in SPANS.items():
        module = layers[layer]
        for name in names:
            original = getattr(module, name)
            replace(original, tracer.span(f"{layer}.{name}", original, span_attrs.get(name)))
    replace(counts.binomial, tracer.leaf("counts.binomial", counts.binomial))
    for name in CLASSIFY:
        original = getattr(strata, name)
        replace(original, tracer.leaf("strata.classify", original))
    counts.RecursionTable.fill_to = tracer.filled(counts.RecursionTable.fill_to)
    for cls in (graphs.DistinguishedTree, graphs.CircuitGraph):
        cls.__post_init__ = tracer.leaf("graphs.construct", cls.__dict__["__post_init__"])
        cls.skeleton_automorphisms = tracer.leaf(
            "graphs.skeleton_automorphisms", cls.__dict__["skeleton_automorphisms"]
        )
        key = cached_property(tracer.leaf("graphs.canonical_key", cls.__dict__["canonical_key"].func))
        key.__set_name__(cls, "canonical_key")
        cls.canonical_key = key
    return tracer


# Per-layer metrics: name -> unit.  Times are seconds of self time summed
# over one pass; counts are summed over one pass.
LAYER_METRICS = {
    "counts.rational_count.self_s": "s",
    "counts.binomial.calls": "count",
    "counts.binomial.self_s": "s",
    "counts.degrees_filled": "count",
    "counts.load_table.self_s": "s",
    "counts.load_table.entries": "count",
    "counts.save_table.self_s": "s",
    "counts.save_table.bytes": "bytes",
    "strata.enumerate_shapes.self_s": "s",
    "strata.enumerate_shapes.classes": "count",
    "strata.dedup_yield": "ratio",
    "strata.classify.self_s": "s",
    "strata.guard.refusals": "count",
    "strata.guard.self_s": "s",
    "graphs.construct.calls": "count",
    "graphs.construct.rejected": "count",
    "graphs.construct.self_s": "s",
    "graphs.canonical_key.calls": "count",
    "graphs.canonical_key.self_s": "s",
    "graphs.skeleton_automorphisms.calls": "count",
    "graphs.skeleton_automorphisms.self_s": "s",
    "series.series_from_json.self_s": "s",
    "series.vanishing_sequence.calls": "count",
    "series.vanishing_sequence.self_s": "s",
    "series.root_sum_relation.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def pass_metrics(spans: list[dict], stdout_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass, from the spans of all its requests.

    ``counts.binomial.calls`` leaves out the binomials of ``load_table``'s
    re-derivation probe: the probe degree is drawn unseeded inside the
    program, so those calls differ from run to run.
    """
    m = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in LAYER_METRICS.items()}
    m["cli.stdout_bytes"] = stdout_bytes
    constructed = 0
    for s in spans:
        name, attrs, leaves = s["name"], s["attrs"], s["leaves"]
        key = "cli.self_s" if name == "cli.main" else f"{name}.self_s"
        if key in m:
            m[key] += s["self"]
        if name == "series.vanishing_sequence":
            m["series.vanishing_sequence.calls"] += 1
        m["counts.degrees_filled"] += attrs.get("filled", 0)
        m["counts.load_table.entries"] += attrs.get("entries", 0)
        m["counts.save_table.bytes"] += attrs.get("bytes", 0)
        m["strata.enumerate_shapes.classes"] += attrs.get("classes", 0)
        if attrs.get("refused"):
            m["strata.guard.refusals"] += 1
            m["strata.guard.self_s"] += s["self"]
        for leaf, (calls, self_s, errors) in leaves.items():
            m[f"{leaf}.self_s"] += self_s
            if f"{leaf}.calls" in m and not (leaf == "counts.binomial" and name == "counts.load_table"):
                m[f"{leaf}.calls"] += calls
            if leaf == "graphs.construct":
                m["graphs.construct.rejected"] += errors
                if name == "strata.enumerate_shapes":
                    constructed += calls
    if constructed:
        m["strata.dedup_yield"] = m["strata.enumerate_shapes.classes"] / constructed
    return m


def combine(per_pass: list[dict[str, float]], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Median of each time over the traced passes; counts from the first pass."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_frac":
            value = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        elif unit == "s":
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = per_pass[0][name]
        out[name] = {"value": value, "unit": unit}
    return out
