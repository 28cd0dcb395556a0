"""Command-line frontend.

Every subcommand prints one JSON report (``"schema": 1``) to stdout, on
one line (pipe it through ``python -m json.tool`` to indent it), and
exits with 0 for a positive mathematical answer (satisfiable / unique /
compatible / decided value), 1 for a negative one, and 2 for unknown
answers and errors.  Timings and search counts (``tau``'s ``conflicts``)
appear in the report but never influence the exit code.  A negative
``--node-limit`` is an error.  So is an internal fault: any exception
that escapes a subcommand gives the one-line error report
(``"internal error: <type>: <message>"``) and exit 2, never a traceback
with exit 1, which would read as a "no".

File formats: ``.csp`` ordering instances, ``.trip`` triplet lists,
Newick trees, DOT digraphs, and DIMACS export of the τ formula.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial

from .extremal import tau, tau_cnf, tau_decision
from .gadgets import (
    NO_SYMMETRY, TREE_GADGET, builtin_gadget, verify_tree_uniqueness,
    verify_uniqueness,
)
from .orderings import format_instance, parse_instance
from .phylo import (
    caterpillar_of, format_triplets, k_tree_compatible, parse_dot,
    parse_triplets, to_dot, to_newick, two_dicolorable,
)
from .reductions import REDUCTIONS
from .solver import BudgetExceeded, SolverConfig, enumerate_solutions, solve

EXIT_YES, EXIT_NO, EXIT_UNKNOWN = 0, 1, 2


class _CliError(Exception):
    pass


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e.strerror}") from None


def _emit(args, payload: dict, t0: float, digest: str) -> None:
    report = {
        "schema": 1,
        "command": args.command,
        "input_sha256": digest,
        "result": payload,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    sys.stdout.write(json.dumps(report) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args, t0) -> int:
    text = _read(args.file)
    try:
        inst = parse_instance(text)
    except ValueError as e:
        raise _CliError(f"{args.file}: {e}") from None
    cfg = SolverConfig(mode=args.mode, node_limit=args.node_limit)
    payload = {
        "pi": inst.pi.index, "k": inst.k,
        "variables": len(inst.vars), "constraints": len(inst.constraints),
    }
    try:
        if args.enumerate:
            sols = enumerate_solutions(inst, cfg)
            payload["satisfiable"] = bool(sols)
            payload["solution_count"] = len(sols)
            payload["solutions"] = [s.to_lists() for s in sols]
            sat = bool(sols)
        else:
            sol = solve(inst, cfg)
            payload["satisfiable"] = sat = sol is not None
            payload["solution"] = sol.to_lists() if sol else None
    except BudgetExceeded:
        payload["satisfiable"] = None
        _emit(args, payload, t0, _digest(text))
        return EXIT_UNKNOWN
    _emit(args, payload, t0, _digest(text))
    return EXIT_YES if sat else EXIT_NO


def _problem_kind(problem) -> str:
    head = problem[0]
    return head if isinstance(head, str) else "ordering"


def _load_problem(kind: str, text: str):
    try:
        if kind == "ordering":
            return parse_instance(text)
        if kind in ("caterpillar", "tree"):
            return parse_triplets(text)
        return parse_dot(text)
    except ValueError as e:
        raise _CliError(str(e)) from None


def _dump_problem(kind: str, obj) -> str:
    if kind == "ordering":
        return format_instance(obj)
    if kind in ("caterpillar", "tree"):
        return format_triplets(obj)
    return to_dot(obj)


def _cmd_reduce(args, t0) -> int:
    name = args.name.replace("-", "_")
    if name not in REDUCTIONS:
        raise _CliError(f"unknown reduction {args.name!r}; choose from "
                        + ", ".join(sorted(REDUCTIONS)))
    red = REDUCTIONS[name]
    text = _read(args.infile)
    src_kind = _problem_kind(red.source_problem)
    tgt_kind = _problem_kind(red.target_problem)
    source = _load_problem(src_kind, text)
    try:
        target = red.transform(source)
    except ValueError as e:
        raise _CliError(f"reduction failed: {e}") from None
    _write(args.outfile, _dump_problem(tgt_kind, target))

    def describe(kind, obj):
        if kind == "ordering":
            return {"kind": kind, "pi": obj.pi.index, "k": obj.k,
                    "variables": len(obj.vars),
                    "constraints": len(obj.constraints)}
        if kind in ("caterpillar", "tree"):
            return {"kind": kind, "triplets": len(obj),
                    "labels": len({x for t in obj for x in t})}
        return {"kind": kind, "vertices": len(obj.vertices),
                "arcs": len(obj.arcs)}

    _emit(args, {
        "reduction": name,
        "source": describe(src_kind, source),
        "target": describe(tgt_kind, target),
        "output": args.outfile,
        "has_lift_forward": red.lift_forward is not None,
        "has_lift_backward": red.lift_backward is not None,
    }, t0, _digest(text))
    return EXIT_YES


def _cmd_gadget_verify(args, t0) -> int:
    if args.name == "tree-triple":
        if args.no_symmetry:
            raise _CliError("--no-symmetry does not apply to tree-triple: "
                            "its uniqueness is not up to a symmetry")
        triple = tuple(map(caterpillar_of, TREE_GADGET))
        sym = NO_SYMMETRY
        verify = partial(verify_tree_uniqueness, triple)
        extra = {"trees": [to_newick(t) for t in triple],
                 "orderings": [list(o.seq) for o in TREE_GADGET]}
    else:
        try:
            gens, fam, k, sym = builtin_gadget(args.name)
        except ValueError as e:
            raise _CliError(str(e)) from None
        if args.no_symmetry:
            sym = NO_SYMMETRY
        verify = partial(verify_uniqueness, list(gens), fam, k, sym)
        extra = {"pi": fam.index, "k": k,
                 "generators": [list(g.seq) for g in gens]}
    try:
        payload = verify(node_limit=args.node_limit).to_dict()
    except BudgetExceeded:
        payload = {"unique": None, "symmetry": sym.kind}
    payload.update(extra)
    _emit(args, payload, t0, _digest(args.name))
    return {True: EXIT_YES, False: EXIT_NO,
            None: EXIT_UNKNOWN}[payload["unique"]]


def _cmd_tau(args, t0) -> int:
    digest = _digest(f"n={args.n} k={args.k} cat={args.caterpillar}")
    if args.export_cnf and args.k is None:
        raise _CliError("--export-cnf needs an explicit --k")
    try:
        if args.export_cnf:
            _write(args.export_cnf,
                   tau_cnf(args.n, args.k, args.caterpillar).dimacs())
        if args.k is not None:
            d = tau_decision(args.n, args.k, args.caterpillar,
                             node_limit=args.node_limit)
            payload = {
                "n": args.n, "k": args.k, "caterpillar": args.caterpillar,
                "decision": d.answer, "conflicts": d.nodes,
                "trees": [to_newick(t) for t in d.trees] if d.trees else None,
            }
            code = {True: EXIT_YES, False: EXIT_NO,
                    None: EXIT_UNKNOWN}[d.answer]
        else:
            b = tau(args.n, args.caterpillar, node_limit=args.node_limit)
            payload = {
                "n": args.n, "caterpillar": args.caterpillar,
                "value": b.value, "lower_bound": b.lower_bound,
                "exact": b.exact, "conflicts": b.nodes,
                "trees": [to_newick(t) for t in b.witnesses]
                if b.witnesses else None,
            }
            code = EXIT_YES if b.exact else EXIT_UNKNOWN
    except ValueError as e:
        raise _CliError(str(e)) from None
    if args.export_cnf:
        payload["cnf_file"] = args.export_cnf
    _emit(args, payload, t0, digest)
    return code


def _cmd_compat(args, t0) -> int:
    text = _read(args.file)
    try:
        trips = parse_triplets(text)
    except ValueError as e:
        raise _CliError(f"{args.file}: {e}") from None
    try:
        trees = k_tree_compatible(trips, args.k,
                                  caterpillars_only=args.caterpillar,
                                  node_limit=args.node_limit)
        compatible = trees is not None
    except ValueError as e:
        raise _CliError(str(e)) from None
    except BudgetExceeded:
        trees = compatible = None
    _emit(args, {
        "k": args.k, "caterpillar": args.caterpillar,
        "triplets": len(trips),
        "compatible": compatible,
        "trees": None if trees is None else [to_newick(t) for t in trees],
    }, t0, _digest(text))
    return {True: EXIT_YES, False: EXIT_NO, None: EXIT_UNKNOWN}[compatible]


def _cmd_dicolor(args, t0) -> int:
    text = _read(args.file)
    try:
        d = parse_dot(text)
    except ValueError as e:
        raise _CliError(f"{args.file}: {e}") from None
    coloring = two_dicolorable(d)
    _emit(args, {
        "vertices": len(d.vertices), "arcs": len(d.arcs),
        "dicolorable": coloring is not None,
        "coloring": {str(v): c for v, c in sorted(
            coloring.items(), key=lambda x: str(x[0]))}
        if coloring is not None else None,
    }, t0, _digest(text))
    return EXIT_YES if coloring is not None else EXIT_NO


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triord",
        description="Exact tools for k-order CSPs and triplet compatibility.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide a k-order instance (.csp)")
    p.add_argument("file")
    p.add_argument("--enumerate", action="store_true",
                   help="list every solution multiset")
    p.add_argument("--mode", choices=("cdcl", "exhaustive"), default="cdcl",
                   help="cdcl: the CDCL solver over the pair-order CNF; "
                   "exhaustive: scan every multiset of k orderings")
    p.add_argument("--node-limit", type=int, default=None,
                   help="give up (exit 2) after this many CDCL conflicts, "
                   "summed over the enumeration with --enumerate; search "
                   "nodes with --mode exhaustive")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="apply a registered reduction")
    p.add_argument("name")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget-verify",
                       help="re-verify a uniqueness gadget by enumeration")
    p.add_argument("name", choices=("pi5", "pi6", "pi9", "tree-triple"))
    p.add_argument("--no-symmetry", action="store_true",
                   help="report raw solutions without quotienting "
                   "(ordering gadgets only)")
    p.add_argument("--node-limit", type=int, default=None,
                   help="give up (exit 2) after this many CDCL conflicts, "
                   "summed over the enumeration")
    p.set_defaults(func=_cmd_gadget_verify)

    p = sub.add_parser("tau", help="exact covering number tau(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="decide tau(n) <= k instead of computing tau(n)")
    p.add_argument("--caterpillar", action="store_true")
    p.add_argument("--node-limit", type=int, default=None,
                   help="give up (exit 2) after this many CDCL conflicts")
    p.add_argument("--export-cnf", metavar="PATH", default=None,
                   help="also write the formula that decides tau(n) <= k, "
                   "in DIMACS CNF")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("compat",
                       help="k-tree compatibility of a triplet set (.trip)")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--caterpillar", action="store_true")
    p.add_argument("--node-limit", type=int, default=None,
                   help="give up (exit 2) after this many CDCL conflicts; "
                   "placements of the partition search with --caterpillar")
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("dicolor",
                       help="2-dicolorability of a digraph (.dot)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dicolor)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.monotonic()
    try:
        if getattr(args, "node_limit", None) is not None \
                and args.node_limit < 0:
            raise _CliError("--node-limit must be >= 0")
        return args.func(args, t0)
    except _CliError as e:
        error = str(e)
    except Exception as e:  # a fault is no answer, so never exit 1
        error = f"internal error: {type(e).__name__}: {e}"
    sys.stdout.write(json.dumps({"schema": 1, "command": args.command,
                                 "error": error}) + "\n")
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
