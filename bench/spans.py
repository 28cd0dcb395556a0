"""Span recorder around the program's layer boundaries, and the
per-layer metrics computed from the spans.

The program is not edited.  ``install`` replaces each function under the
name its caller looks it up by (``triord.cli`` imports most engine entry
points by name; the CDCL solver is patched on its class) and returns a
function that puts the originals back.  A span is
``[name, start, end, parent, question, attrs]``; spans stay in memory
until the run ends.  A layer is a module, named by the part of the span
name before the dot (``sat`` is ``triord._sat``).
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

LAYERS = ("cli", "orderings", "reductions", "gadgets", "solver", "sat",
          "phylo", "extremal")


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.question = None

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs,
        result)`` adds counts after the span has closed."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.question, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def _target_size(args, kwargs, target):
    if hasattr(target, "constraints"):      # ordering instance
        return {"vars": len(target.vars), "items": len(target.constraints)}
    if hasattr(target, "arcs"):             # digraph
        return {"vars": len(target.vertices), "items": len(target.arcs)}
    return {"vars": len({x for t in target for x in t}),  # triplet set
            "items": len(target)}


def _sat_counts(args, kwargs, result):
    s = args[0]
    return {"vars": s.nvars, "clauses": len(s.clauses) - s.n_learnt,
            "learnt": s.n_learnt}


def _caterpillar_flag(args, kwargs, result):
    return {"caterpillar": bool(kwargs.get(
        "caterpillars_only", args[2] if len(args) > 2 else False))}


def install(rec: Recorder):
    """Patch the layer boundaries; return the function that undoes it."""
    import triord._sat as sat
    import triord.cli as cli
    import triord.gadgets as gadgets
    import triord.reductions as reductions

    saved = []

    def patch(obj, attr, name, attrs=None):
        fn = getattr(obj, attr)
        saved.append((obj, attr, fn))
        setattr(obj, attr, rec.wrap(name, fn, attrs))

    patch(cli, "main", "cli.main")
    patch(cli, "parse_instance", "orderings.parse_instance")
    patch(cli, "format_instance", "orderings.format_instance")
    patch(cli, "parse_triplets", "phylo.parse_triplets")
    patch(cli, "format_triplets", "phylo.format_triplets")
    patch(cli, "solve", "solver.solve")
    patch(cli, "enumerate_solutions", "solver.enumerate_solutions",
          lambda a, k, out: {"solutions": len(out)})
    patch(cli, "k_tree_compatible", "phylo.k_tree_compatible",
          _caterpillar_flag)
    patch(cli, "tau_decision", "extremal.tau_decision",
          lambda a, k, out: {"nodes": out.nodes})
    patch(reductions, "gadget_instance", "gadgets.gadget_instance")
    # reductions import these two lazily, from the gadgets module
    patch(gadgets, "derive_caterpillar_triple",
          "gadgets.derive_caterpillar_triple")
    patch(gadgets, "gadget_triplet_union", "gadgets.gadget_triplet_union")
    patch(sat.Solver, "__init__", "sat.init")
    patch(sat.Solver, "solve", "sat.solve", _sat_counts)

    table = cli.REDUCTIONS
    originals = dict(table)
    for key, red in originals.items():
        table[key] = dataclasses.replace(red, transform=rec.wrap(
            "reductions.transform", red.transform, _target_size))

    def uninstall():
        table.update(originals)
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics

#: name -> unit, in report order
PER_LAYER = {f"{layer}.self_ms": "ms" for layer in LAYERS}
PER_LAYER.update({
    "orderings.text_ms": "ms",
    "reductions.transform_ms": "ms",
    "reductions.target_vars": "count",
    "reductions.target_items": "count",
    "solver.encode_ms": "ms",
    "solver.decode_ms": "ms",
    "solver.enumerate_ms": "ms",
    "solver.solutions": "count",
    "sat.solve_ms": "ms",
    "sat.vars": "count",
    "sat.clauses": "count",
    "sat.learnt": "count",
    "sat.learnt_per_s": "1/s",
    "phylo.encode_ms": "ms",
    "phylo.decode_ms": "ms",
    "phylo.text_ms": "ms",
    "phylo.cat_compat_ms": "ms",
    "extremal.tau_ms": "ms",
    "extremal.nodes": "count",
    "trace.overhead_frac": "frac",
})

#: count metrics that must repeat exactly between runs of one seed
COUNTS = tuple(n for n, u in PER_LAYER.items() if u == "count")

_SUM_MS = {
    "orderings.text_ms": ("orderings.parse_instance",
                          "orderings.format_instance"),
    "phylo.text_ms": ("phylo.parse_triplets", "phylo.format_triplets"),
    "reductions.transform_ms": ("reductions.transform",),
    "solver.enumerate_ms": ("solver.enumerate_solutions",),
    "sat.solve_ms": ("sat.solve",),
    "extremal.tau_ms": ("extremal.tau_decision",),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over all spans.  Self time is a span's duration
    minus its children's; encode runs from the solver's construction to
    its first ``solve``, decode from its last ``solve`` to the end of the
    enclosing engine call."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    kids: dict = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            kids.setdefault(parent, []).append(i)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = (end - start) * 1e3
        child = [spans[j] for j in kids.get(i, ())]
        self_ms = dur - sum((c[2] - c[1]) * 1e3 for c in child)
        out[name.split(".")[0] + ".self_ms"] += self_ms
        for metric, names in _SUM_MS.items():
            if name in names:
                out[metric] += dur
        attrs = attrs or {}
        if name == "reductions.transform":
            out["reductions.target_vars"] += attrs["vars"]
            out["reductions.target_items"] += attrs["items"]
        elif name == "sat.solve":
            for key in ("vars", "clauses", "learnt"):
                out["sat." + key] += attrs[key]
        elif name == "solver.enumerate_solutions":
            out["solver.solutions"] += attrs["solutions"]
        elif name == "extremal.tau_decision":
            out["extremal.nodes"] += attrs["nodes"]
        elif name == "phylo.k_tree_compatible" and attrs["caterpillar"]:
            out["phylo.cat_compat_ms"] += dur
        if name in ("solver.solve", "phylo.k_tree_compatible") and \
                not attrs.get("caterpillar"):
            inits = [c for c in child if c[0] == "sat.init"]
            solves = [c for c in child if c[0] == "sat.solve"]
            if inits and solves:
                layer = name.split(".")[0]
                out[layer + ".encode_ms"] += (solves[0][1] - inits[0][1]) * 1e3
                out[layer + ".decode_ms"] += (end - solves[-1][2]) * 1e3
    solve_s = out["sat.solve_ms"] / 1e3
    out["sat.learnt_per_s"] = out["sat.learnt"] / solve_s if solve_s else 0.0
    for name in COUNTS:
        out[name] = int(out[name])
    return out
