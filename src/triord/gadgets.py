"""Uniqueness gadgets and their verification by complete enumeration.

An ordering gadget is the instance whose constraints are everything implied
by a fixed tuple of generator orderings; `verify_uniqueness` re-enumerates
the full solution set and compares it against the generators modulo a
declared symmetry (per-order reversal for the reversal-closed families,
or none).

The tree gadget `TREE_GADGET` is a triple of 6-leaf caterpillars, stored
as their deepest-first leaf orders, whose combined displayed triplet set
admits no other covering triple of rooted binary trees on {0..5};
`verify_tree_uniqueness` checks that claim by enumerating the covers of
that set on the CDCL core (`phylo._TreeCoverCnf`, blocking each cover
found).  `derive_caterpillar_triple` re-finds the triple by complete
search: structural facts (root children 5/1/0, cherries {0,1}/{0,5})
narrow the candidate space and are re-checked on the result, and each
candidate that passes a rigidity filter is blocked in its own cover CNF,
which must then be unsatisfiable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, permutations
from math import factorial
from typing import Optional

from .orderings import (
    Instance, LinearOrdering, implied_constraints, pi_family, reversal,
)
from .phylo import (
    RootedTree, _TreeCoverCnf, caterpillar_of, cherries, displayed_triplets,
    enumerate_trees, ordering_of, to_newick,
)
from .solver import Solution, SolverConfig, enumerate_solutions

SYMMETRY_KINDS = ("none", "per_order_reversal")


@dataclass(frozen=True)
class SymmetrySpec:
    kind: str

    def __post_init__(self):
        if self.kind not in SYMMETRY_KINDS:
            raise ValueError(f"unknown symmetry kind {self.kind!r}")

    def canonical_member(self, o: LinearOrdering) -> LinearOrdering:
        if self.kind == "per_order_reversal":
            return min(o, reversal(o), key=LinearOrdering.sort_key)
        return o

    def canonical(self, sol: Solution) -> Solution:
        return Solution(self.canonical_member(o) for o in sol.orderings)


NO_SYMMETRY = SymmetrySpec("none")
# each member ordering is identified with its reversal
PER_ORDER_REVERSAL = SymmetrySpec("per_order_reversal")


@dataclass(frozen=True)
class GadgetReport:
    found: tuple
    unique: bool
    raw_ordered_count: int  # solutions counted as ordered tuples
    symmetry: SymmetrySpec

    def to_dict(self) -> dict:
        return {
            "unique": self.unique,
            "symmetry": self.symmetry.kind,
            "solution_count": len(self.found),
            "raw_ordered_count": self.raw_ordered_count,
            "solutions": [_payload(s) for s in self.found],
        }


def _payload(sol):
    if isinstance(sol, Solution):
        return sol.to_lists()
    return [to_newick(t) for t in sol]


def gadget_instance(generators: list[LinearOrdering], pi, k: int) -> Instance:
    """Instance implied by the generators: C = union of their implied sets."""
    if isinstance(pi, int):
        pi = pi_family(pi)
    if not generators:
        raise ValueError("need at least one generator")
    dom = generators[0].domain()
    if any(g.domain() != dom for g in generators):
        raise ValueError("generators must share one domain")
    cs: set = set()
    for g in generators:
        cs |= implied_constraints(g, pi)
    return Instance(dom, tuple(sorted(cs)), pi, k)


def _ordered_count(members) -> int:
    """Distinct ordered arrangements of a multiset: k! / prod(m_i!)."""
    total = factorial(len(members))
    for m in Counter(members).values():
        total //= factorial(m)
    return total


def verify_uniqueness(generators: list[LinearOrdering], pi, k: int,
                      sym: SymmetrySpec = NO_SYMMETRY,
                      node_limit: Optional[int] = None) -> GadgetReport:
    """Enumerate all solutions of the gadget instance and compare with the
    generator multiset modulo the given symmetry."""
    inst = gadget_instance(generators, pi, k)
    found = enumerate_solutions(inst, SolverConfig(node_limit=node_limit))
    expected = {sym.canonical(Solution(generators))}
    return GadgetReport(
        found=tuple(found),
        unique={sym.canonical(s) for s in found} == expected,
        raw_ordered_count=sum(_ordered_count(s.orderings) for s in found),
        symmetry=sym,
    )


# The three generator pairs used by the hardness constructions.
PI5_GADGET = (LinearOrdering((1, 2, 3, 4, 5)), LinearOrdering((5, 2, 3, 4, 1)))
PI6_GADGET = (LinearOrdering((1, 2, 3, 4)), LinearOrdering((2, 4, 1, 3)))
PI9_GADGET = (LinearOrdering((1, 2, 3, 4, 5, 6, 7)),
              LinearOrdering((2, 5, 7, 3, 1, 6, 4)))
# The caterpillar triple of the tree-compatibility constructions, as
# deepest-first leaf orders (`caterpillar_of` turns each into its tree).
TREE_GADGET = (LinearOrdering((0, 1, 2, 3, 4, 5)),
               LinearOrdering((0, 5, 2, 4, 3, 1)),
               LinearOrdering((1, 5, 3, 4, 2, 0)))


def builtin_gadget(name: str):
    """(generators, family, k, symmetry) for a named ordering gadget."""
    table = {
        "pi5": (PI5_GADGET, pi_family(5), 2, PER_ORDER_REVERSAL),
        "pi6": (PI6_GADGET, pi_family(6), 2, NO_SYMMETRY),
        "pi9": (PI9_GADGET, pi_family(9), 2, PER_ORDER_REVERSAL),
    }
    if name not in table:
        raise ValueError(f"unknown gadget {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# The 6-leaf tree triple

_GADGET_LEAVES = tuple(range(6))


def _cat_topdown(seq) -> RootedTree:
    """Caterpillar from its top-down spine listing."""
    return caterpillar_of(tuple(reversed(seq)))


def verify_tree_uniqueness(triple: tuple[RootedTree, RootedTree, RootedTree],
                           node_limit: Optional[int] = None) -> GadgetReport:
    """Enumerate the tree triples on {0..5} that cover the triple's
    displayed-triplet union (on the CDCL core, stopping after five);
    unique iff only slot-permutations of the input cover it.  For triples
    of three distinct trees, also checks that no covering triple contains
    a tree with two or more cherries (for degenerate inputs the union is
    too small for that to hold).  ``node_limit`` caps the CDCL conflicts
    summed over the enumeration; past it BudgetExceeded is raised."""
    if any(t.leaves != frozenset(_GADGET_LEAVES) for t in triple):
        raise ValueError("gadget trees must have leaves {0..5}")
    cnf = _TreeCoverCnf(sorted(gadget_triplet_union(triple)), 3)
    covers = {tuple(sorted(trees, key=RootedTree.sort_key))
              for trees in islice(cnf.answers(node_limit), 5)}
    if len(set(triple)) == 3 and any(len(cherries(t)) != 1
                                     for c in covers for t in c):
        raise RuntimeError("covering triple contains a multi-cherry tree")
    return GadgetReport(
        found=tuple(sorted(covers, key=lambda c: [t.sort_key() for t in c])),
        unique=covers == {tuple(sorted(triple, key=RootedTree.sort_key))},
        raw_ordered_count=sum(_ordered_count(c) for c in covers),
        symmetry=NO_SYMMETRY,
    )


def derive_caterpillar_triple() -> tuple[tuple[RootedTree, RootedTree, RootedTree],
                                         tuple[LinearOrdering, ...]]:
    """Find the caterpillar triple (C1, C2, C3) on {0..5} whose displayed
    triplet union has no other covering tree triple.

    The candidate space is cut down by necessary structural facts (each is
    re-checked on the result): the root child of C1 is leaf 5, of C2 leaf 1,
    of C3 leaf 0; {0,1} is a cherry of C1 and {0,5} of C2.  A cheap
    rigidity filter (each member must be the only tree covering its private
    triplets) precedes the complete check: block the candidate in its
    cover CNF and ask the CDCL core for any other cover.  Returns the
    lexicographically first qualifying triple and the three corresponding
    orderings.
    """
    shown = {t: displayed_triplets(t) for t in enumerate_trees(_GADGET_LEAVES)}
    bit = {r: 1 << i for i, r in enumerate(set().union(*shown.values()))}
    tmasks = {t: sum(bit[r] for r in rs) for t, rs in shown.items()}

    c1s = [_cat_topdown((5,) + p + (0, 1)) for p in permutations((2, 3, 4))]
    c2s = [_cat_topdown((1,) + p + (0, 5)) for p in permutations((2, 3, 4))]
    c3s = list(dict.fromkeys(_cat_topdown((0,) + p)
                             for p in permutations((1, 2, 3, 4, 5))))

    def sole_coverer(private: int, self_mask: int) -> bool:
        return all(m & private != private
                   for m in tmasks.values() if m != self_mask)

    candidates = sorted(
        ((t1, t2, t3) for t1 in c1s for t2 in c2s for t3 in c3s),
        key=lambda tr: tuple(t.sort_key() for t in tr))
    for triple in candidates:
        m1, m2, m3 = (tmasks[t] for t in triple)
        cover = m1 | m2 | m3
        if not (sole_coverer(cover & ~(m2 | m3), m1)
                and sole_coverer(cover & ~(m1 | m3), m2)
                and sole_coverer(cover & ~(m1 | m2), m3)):
            continue
        cnf = _TreeCoverCnf(sorted(gadget_triplet_union(triple)), 3)
        cnf.block(triple)
        if cnf.next(None) is None:
            t1, t2, _ = triple
            if [_root_leaf_child(t) for t in triple] != [5, 1, 0] \
                    or frozenset({0, 1}) not in cherries(t1) \
                    or frozenset({0, 5}) not in cherries(t2):
                raise RuntimeError("caterpillar triple lost its structure")
            return triple, tuple(ordering_of(t) for t in triple)
    raise RuntimeError("no qualifying caterpillar triple exists")


def _root_leaf_child(t: RootedTree):
    for child in t.shape:
        if not isinstance(child, tuple):
            return child
    return None


def gadget_triplet_union(triple) -> frozenset:
    out: set = set()
    for t in triple:
        out |= displayed_triplets(t)
    return frozenset(out)
