"""Span tracing at the module boundaries of `induced_trees`, from outside
the package.

A `Tracer` replaces each traced function, in every `induced_trees` module
namespace that holds it, by a wrapper that records one span: name, op id,
parent span, start and end.  Spans stay in memory; `write` dumps them as
CSV and `layer_metrics` turns them into per-layer counts and self times.

The recursive finder bodies (`_tf`, `_kr`) are never wrapped: a wrapper
adds a stack frame per recursion level and would change which inputs hit
the interpreter's recursion limit.  Recursion depth is read instead by
walking the frame stack from the `_component_masks` boundary, which every
decomposing level calls exactly once; the walk itself adds no frame to
the recursion.  Wrapped leaf calls still add a frame or two at the bottom
of the stack, so the traced run compares its per-op outcomes with an
untraced pass over the same ops and reports any difference.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from induced_trees import admissible, cli, finders, generators, graph, oracle, ramsey

# (span name, owner, attribute).  Owners are modules, except `from_json`,
# a static method of the instance class.
TARGETS = (
    ("graph.component_masks", graph, "_component_masks"),
    ("finders.attachment_instance", finders, "_attachment_instance"),
    ("finders.find", finders, "find_tree_triangle_free"),
    ("finders.find", finders, "find_tree_kr_free"),
    ("admissible.select_weighted", admissible, "select_weighted"),
    ("admissible.reduce_instance", admissible, "reduce_instance"),
    ("admissible.solve_exact", admissible, "solve_exact"),
    ("admissible.select_uniform", admissible, "select_uniform"),
    ("admissible.from_json", admissible.WeightedBipartiteInstance, "from_json"),
    ("oracle.max_induced_tree_exact", oracle, "max_induced_tree_exact"),
    ("oracle.max_tree_through_vertex_exact", oracle, "max_tree_through_vertex_exact"),
    ("oracle.admissible_naive", oracle, "admissible_naive"),
    ("ramsey.independent_set_of_size", ramsey, "independent_set_of_size"),
    ("graph.induced_subgraph", graph, "induced_subgraph"),
    ("graph.find_clique", graph, "find_clique"),
    ("graph.parse_edge_list", graph, "parse_edge_list"),
    ("graph.format_edge_list", graph, "format_edge_list"),
    ("graph.is_connected", graph, "is_connected"),
    ("graph.find_triangle", graph, "find_triangle"),
    ("graph.is_induced_tree", graph, "is_induced_tree"),
    ("graph.shortest_path", graph, "shortest_path"),
    ("finders.verify_certificate", finders, "verify_certificate"),
    ("finders.certificate_failure", finders, "certificate_failure"),
    ("finders.reroute_through_vertex", finders, "reroute_through_vertex"),
    ("cli.main", cli, "main"),
    ("generators.ms_layered", generators, "ms_layered"),
    ("generators.ms_through_vertex", generators, "ms_through_vertex"),
    ("generators.line_graph_balanced_tree", generators, "line_graph_balanced_tree"),
    ("generators.random_triangle_free", generators, "random_triangle_free"),
    ("generators.random_kr_free", generators, "random_kr_free"),
)

NAME, OP, PARENT, START, END = range(5)


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "induced_trees" or name.startswith("induced_trees."))]


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch and
    restore the traced names."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.max_depth = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append([name, self.op, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        traced.__wrapped__ = fn
        return traced

    def _on_component_masks(self, args):
        self.counts["graph.component_masks.region_bits"] += args[1].bit_count()
        # Frame 0 is this hook, 1 the wrapper, 2 the caller.  A finder that
        # recurses shows as a run of frames running the caller's code.
        caller = sys._getframe(2)
        if caller.f_globals.get("__name__") != finders.__name__:
            return
        code, depth, f = caller.f_code, 0, caller
        while f is not None:
            depth += f.f_code is code
            f = f.f_back
        self.counts["finders.recursion.calls"] += 1
        self.max_depth = max(self.max_depth, depth)

    def _on_attachment_instance(self, args):
        self.counts["finders.attachment_instance.items"] += len(args[2])

    def install(self) -> None:
        hooks = {
            "graph.component_masks": self._on_component_masks,
            "finders.attachment_instance": self._on_attachment_instance,
        }
        modules = _namespaces()
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if not isinstance(raw, staticmethod):
                    self.missing.append(name)
                    continue
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
                continue
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,op,parent,name,start_ns,end_ns\n")
            for idx, s in enumerate(self.spans):
                fh.write(f"{idx},{s[OP]},{s[PARENT]},{s[NAME]},{s[START]},{s[END]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_ms per span name, the boundary work counts, and
        the exact-fallback count (solve_exact entered from select_weighted)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0 and s[END]:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for idx, s in enumerate(spans):
            if not s[END]:
                continue
            name = s[NAME]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            self_ns = s[END] - s[START] - child_ns[idx]
            out[name + ".self_ms"] = out.get(name + ".self_ms", 0.0) + self_ns / 1e6
            if (name == "admissible.solve_exact" and s[PARENT] >= 0
                    and spans[s[PARENT]][NAME] == "admissible.select_weighted"):
                out["admissible.exact_fallback.calls"] = (
                    out.get("admissible.exact_fallback.calls", 0) + 1)
        out.update(self.counts)
        out["finders.recursion.max_depth"] = self.max_depth
        weighted = out.get("admissible.select_weighted.calls", 0)
        fallback = out.get("admissible.exact_fallback.calls", 0)
        out["admissible.exact_fallback.ratio"] = fallback / weighted if weighted else 0.0
        return out
