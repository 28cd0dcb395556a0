"""Command-line frontend.

Every subcommand prints one JSON report to stdout, on one line (pipe it
through ``python -m json.tool`` to indent it).  ``main`` alone assembles
it (``schema`` 1, ``command``, ``input_sha256``, ``result``,
``wall_time_s``) and picks the exit code.  A subcommand only fills
``result`` and returns its answer: True for a positive mathematical
answer (satisfiable / unique / compatible / decided value, exit 0),
False for a negative one (exit 1), None for unknown (exit 2).  When a
``--node-limit`` budget runs out (``BudgetExceeded``, caught in
``main``), ``result`` keeps the keys set before the search, the answer
None: all of them for ``compat`` and ``tau``; the sizes or the gadget
for ``solve`` and ``gadget-verify``, without their witness keys.
Timings and search counts (``tau``'s ``conflicts``) never influence the
exit code.

An error prints ``{"schema": 1, "command", "error"}`` and exits 2: a
negative ``--node-limit``, an unreadable file, a malformed one
(``"<path>: <message>"``), or an internal fault -- an exception that
escapes a subcommand gives ``"internal error: <type>: <message>"``,
never a traceback with exit 1, which would read as a "no".

File formats: ``.csp`` ordering instances, ``.trip`` triplet lists,
Newick trees, DOT digraphs, and DIMACS export of the τ formula.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, NamedTuple, Optional

from .extremal import tau, tau_cnf, tau_decision
from .gadgets import (
    TREE_GADGET, builtin_gadget, gadget_symmetry, verify_tree_uniqueness,
    verify_uniqueness,
)
from .orderings import format_instance, parse_instance
from .phylo import (
    caterpillar_of, format_triplets, k_tree_compatible, parse_dot,
    parse_triplets, to_dot, to_newick, two_dicolorable,
)
from .reductions import REDUCTIONS
from .solver import BudgetExceeded, enumerate_solutions, solve

EXIT = {True: 0, False: 1, None: 2}  # answer -> exit code


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


@contextmanager
def _invalid(prefix: str = ""):
    """A ValueError, the package's sign of a bad input, is an error."""
    try:
        yield
    except ValueError as e:
        raise _CliError(prefix + str(e)) from None


def _parse(report: dict, path: str, parse: Callable):
    """``parse`` of the file's text, whose digest goes into the report; a
    malformed file is an error that names it."""
    text = _read(path)
    report["input_sha256"] = _digest(text)
    with _invalid(f"{path}: "):
        return parse(text)


def _newick(trees) -> Optional[list]:
    return None if trees is None else [to_newick(t) for t in trees]


class _Format(NamedTuple):
    """How a problem kind is read, written and described.  The reader and
    writer are names of this module's attributes, looked up in globals()
    on every call, so that a wrapper set on the attribute sees it."""
    reader: str
    writer: str
    sizes: Callable


#: problem kind (see reductions.Reduction) -> its format
_FORMATS = {
    "ordering": _Format("parse_instance", "format_instance", lambda i: {
        "pi": i.pi.index, "k": i.k, "variables": len(i.vars),
        "constraints": len(i.constraints)}),
    "caterpillar": _Format("parse_triplets", "format_triplets", lambda ts: {
        "triplets": len(ts), "labels": len({x for t in ts for x in t})}),
    "digraph": _Format("parse_dot", "to_dot", lambda d: {
        "vertices": len(d.vertices), "arcs": len(d.arcs)}),
}
_FORMATS["tree"] = _FORMATS["caterpillar"]


# ---------------------------------------------------------------------------
# Subcommands: each sets input_sha256, fills result and returns its answer


def _cmd_solve(args, report) -> Optional[bool]:
    inst = _parse(report, args.file, parse_instance)
    result = report["result"]
    result.update(_FORMATS["ordering"].sizes(inst), satisfiable=None)
    if args.enumerate:
        sols = enumerate_solutions(inst, args.node_limit)
        result.update(satisfiable=bool(sols), solution_count=len(sols),
                      solutions=[s.to_lists() for s in sols])
        return bool(sols)
    sol = solve(inst, args.node_limit)
    result.update(satisfiable=sol is not None,
                  solution=sol.to_lists() if sol else None)
    return sol is not None


def _cmd_reduce(args, report) -> bool:
    name = args.name.replace("-", "_")
    if name not in REDUCTIONS:
        raise _CliError(f"unknown reduction {args.name!r}; choose from "
                        + ", ".join(sorted(REDUCTIONS)))
    red = REDUCTIONS[name]
    src, tgt = _FORMATS[red.source], _FORMATS[red.target]
    source = _parse(report, args.infile, globals()[src.reader])
    with _invalid("reduction failed: "):
        target = red.transform(source)
    _write(args.outfile, globals()[tgt.writer](target))
    report["result"].update(
        reduction=name, source={"kind": red.source, **src.sizes(source)},
        target={"kind": red.target, **tgt.sizes(target)},
        output=args.outfile, has_lift_forward=red.lift_forward is not None,
        has_lift_backward=red.lift_backward is not None)
    return True


def _cmd_gadget_verify(args, report) -> Optional[bool]:
    report["input_sha256"] = _digest(args.name)
    if args.name == "tree-triple":
        triple = tuple(map(caterpillar_of, TREE_GADGET))
        sym, verify = "none", partial(verify_tree_uniqueness, triple)
        gadget = {"trees": _newick(triple),
                  "orderings": [list(o.seq) for o in TREE_GADGET]}
    else:
        gens, fam, k = builtin_gadget(args.name)
        sym = gadget_symmetry(fam)
        verify = partial(verify_uniqueness, list(gens), fam, k)
        gadget = {"pi": fam.index, "k": k,
                  "generators": [list(g.seq) for g in gens]}
    result = report["result"]
    result.update(unique=None, symmetry=sym)
    try:
        result.update(verify(node_limit=args.node_limit).to_dict())
    finally:  # the gadget follows the answer, in the unknown report too
        result.update(gadget)
    return result["unique"]


def _cmd_tau(args, report) -> Optional[bool]:
    report["input_sha256"] = _digest(
        f"n={args.n} k={args.k} cat={args.caterpillar}")
    if args.export_cnf and args.k is None:
        raise _CliError("--export-cnf needs an explicit --k")
    result = report["result"]
    with _invalid():
        if args.k is None:
            b = tau(args.n, args.caterpillar, node_limit=args.node_limit)
            result.update(n=args.n, caterpillar=args.caterpillar,
                          value=b.value, lower_bound=b.lower_bound,
                          exact=b.exact, conflicts=b.nodes,
                          trees=_newick(b.witnesses))
            return b.exact or None
        cnf = None
        if args.export_cnf:  # decide the very formula that was written
            cnf = tau_cnf(args.n, args.k, args.caterpillar)
            _write(args.export_cnf, cnf.dimacs())
        d = tau_decision(args.n, args.k, args.caterpillar,
                         node_limit=args.node_limit, cnf=cnf)
    result.update(n=args.n, k=args.k, caterpillar=args.caterpillar,
                  decision=d.answer, conflicts=d.nodes,
                  trees=_newick(d.trees))
    if args.export_cnf:
        result["cnf_file"] = args.export_cnf
    return d.answer


def _cmd_compat(args, report) -> Optional[bool]:
    trips = _parse(report, args.file, parse_triplets)
    result = report["result"]
    result.update(k=args.k, caterpillar=args.caterpillar,
                  triplets=len(trips), compatible=None, trees=None)
    with _invalid():
        trees = k_tree_compatible(trips, args.k,
                                  caterpillars_only=args.caterpillar,
                                  node_limit=args.node_limit)
    result.update(compatible=trees is not None, trees=_newick(trees))
    return trees is not None


def _cmd_dicolor(args, report) -> bool:
    d = _parse(report, args.file, parse_dot)
    coloring = two_dicolorable(d)
    report["result"].update(
        _FORMATS["digraph"].sizes(d), dicolorable=coloring is not None,
        coloring=None if coloring is None else {
            str(v): coloring[v] for v in sorted(coloring, key=str)})
    return coloring is not None


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triord",
        description="Exact tools for k-order CSPs and triplet compatibility.")
    sub = parser.add_subparsers(dest="command", required=True)

    def node_limit(p, unit):
        p.add_argument("--node-limit", type=int, default=None,
                       help=f"give up (exit 2) after this many {unit}")

    p = sub.add_parser("solve", help="decide a k-order instance (.csp)")
    p.add_argument("file")
    p.add_argument("--enumerate", action="store_true",
                   help="list every solution multiset")
    node_limit(p, "CDCL conflicts, summed over the enumeration with "
               "--enumerate")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="apply a registered reduction")
    for name in ("name", "infile", "outfile"):
        p.add_argument(name)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gadget-verify",
                       help="re-verify a uniqueness gadget by enumeration")
    p.add_argument("name", choices=("pi5", "pi6", "pi9", "tree-triple"))
    node_limit(p, "CDCL conflicts, summed over the enumeration")
    p.set_defaults(func=_cmd_gadget_verify)

    p = sub.add_parser("tau", help="exact covering number tau(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="decide tau(n) <= k instead of computing tau(n)")
    p.add_argument("--caterpillar", action="store_true")
    node_limit(p, "CDCL conflicts")
    p.add_argument("--export-cnf", metavar="PATH", default=None,
                   help="also write the formula that decides tau(n) <= k, "
                   "in DIMACS CNF")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("compat",
                       help="k-tree compatibility of a triplet set (.trip)")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--caterpillar", action="store_true")
    node_limit(p, "CDCL conflicts; placements of the partition search "
               "with --caterpillar")
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
    report = {"schema": 1, "command": args.command, "input_sha256": None,
              "result": {}}
    answer = None
    try:
        if (getattr(args, "node_limit", None) or 0) < 0:
            raise _CliError("--node-limit must be >= 0")
        try:
            answer = args.func(args, report)
        except BudgetExceeded:  # the answer fields still read None
            pass
        report["wall_time_s"] = round(time.monotonic() - t0, 6)
    except _CliError as e:
        report = {"schema": 1, "command": args.command, "error": str(e)}
    except Exception as e:  # a fault is no answer, so never exit 1
        report = {"schema": 1, "command": args.command,
                  "error": f"internal error: {type(e).__name__}: {e}"}
    sys.stdout.write(json.dumps(report) + "\n")
    return EXIT[answer]


if __name__ == "__main__":
    sys.exit(main())
