"""Uniqueness gadgets and their verification by complete enumeration.

An ordering gadget is the instance whose constraints are everything implied
by a fixed tuple of generator orderings; `verify_uniqueness` re-enumerates
the full solution set and compares it against the generators modulo a
declared symmetry (per-order reversal for the reversal-closed families,
first-two swap for the cherry symmetry, or none).

The tree gadget `TREE_GADGET` is a triple of 6-leaf caterpillars, stored
as their deepest-first leaf orders, whose combined displayed triplet set
admits no other covering triple among all 945^3 triples of rooted binary
trees on {0..5}; `verify_tree_uniqueness` checks that claim.
`derive_caterpillar_triple` re-finds the triple by complete search;
structural facts (root children 5/1/0, cherries {0,1}/{0,5}) narrow the
candidate space and are re-checked on the result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial
from typing import Optional

from .orderings import (
    Instance, LinearOrdering, implied_constraints, pi_family, reversal,
)
from .phylo import (
    RootedTree, caterpillar_of, cherries, displayed_triplets,
    enumerate_trees, ordering_of, triplet,
)
from .solver import Solution, SolverConfig, enumerate_solutions

SYMMETRY_KINDS = ("none", "per_order_reversal", "swap_first_two")


@dataclass(frozen=True)
class SymmetrySpec:
    kind: str
    description: str = ""

    def __post_init__(self):
        if self.kind not in SYMMETRY_KINDS:
            raise ValueError(f"unknown symmetry kind {self.kind!r}")

    def canonical_member(self, o: LinearOrdering) -> LinearOrdering:
        if self.kind == "per_order_reversal":
            return min(o, reversal(o), key=LinearOrdering.sort_key)
        if self.kind == "swap_first_two" and len(o) >= 2:
            swapped = LinearOrdering((o.seq[1], o.seq[0]) + o.seq[2:])
            return min(o, swapped, key=LinearOrdering.sort_key)
        return o

    def canonical(self, sol: Solution) -> Solution:
        return Solution(self.canonical_member(o) for o in sol.orderings)


NO_SYMMETRY = SymmetrySpec("none", "no symmetry")
PER_ORDER_REVERSAL = SymmetrySpec(
    "per_order_reversal",
    "each member ordering is identified with its reversal")
SWAP_FIRST_TWO = SymmetrySpec(
    "swap_first_two",
    "the two deepest elements of each member are interchangeable")


@dataclass(frozen=True)
class GadgetReport:
    instance: Optional[Instance]
    expected: tuple
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
    return [str(x) for x in sol]


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
    cfg = SolverConfig(mode="branch_and_bound", node_limit=node_limit)
    found = enumerate_solutions(inst, cfg)
    expected = (Solution(generators),)
    found_q = {sym.canonical(s) for s in found}
    expected_q = {sym.canonical(s) for s in expected}
    return GadgetReport(
        instance=inst,
        expected=expected,
        found=tuple(found),
        unique=found_q == expected_q,
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


def _tree_masks():
    """All rooted binary trees on {0..5}, the bitmask of each one's
    displayed triplets, and each tree's index in that list."""
    idx = {}
    for a, b, c in combinations(_GADGET_LEAVES, 3):
        for r in (triplet(a, b, c), triplet(a, c, b), triplet(b, c, a)):
            idx[r] = len(idx)
    trees = enumerate_trees(_GADGET_LEAVES)
    tmasks = [sum(1 << idx[r] for r in displayed_triplets(t)) for t in trees]
    return trees, tmasks, {t: i for i, t in enumerate(trees)}


def _cat_topdown(seq) -> RootedTree:
    """Caterpillar from its top-down spine listing."""
    return caterpillar_of(tuple(reversed(seq)))


def _covering_triples(tmasks: list[int], cover: int,
                      limit: Optional[int] = None) -> set[tuple[int, int, int]]:
    """All multisets {i, j, l} of tree indices whose displayed sets jointly
    contain ``cover``; stops early once more than ``limit`` are found.

    Complete despite the popcount prune: every tree displays exactly
    C(6,3) = 20 triplets, so in any covering triple the pair complementing
    the third tree covers at least popcount(cover) - 20 bits.
    """
    pc = cover.bit_count()
    masks = [m & cover for m in tmasks]
    n = len(masks)
    out: set = set()
    for i in range(n):
        mi = masks[i]
        for j in range(i, n):
            u = mi | masks[j]
            if u.bit_count() < pc - 20:
                continue
            rem = cover & ~u
            for l in range(j, n):
                if masks[l] & rem == rem:
                    out.add((i, j, l))
                    if limit is not None and len(out) > limit:
                        return out
    return out


def verify_tree_uniqueness(triple: tuple[RootedTree, RootedTree, RootedTree]
                           ) -> GadgetReport:
    """Scan all triples of rooted binary trees on {0..5} for covers of the
    triple's displayed-triplet union; unique iff only slot-permutations of
    the input cover it.  For triples of three distinct trees, also checks
    that no covering triple contains a tree with two or more cherries (for
    degenerate inputs the union is too small for that to hold)."""
    if any(t.leaves != frozenset(_GADGET_LEAVES) for t in triple):
        raise ValueError("gadget trees must have leaves {0..5}")
    trees, tmasks, tree_index = _tree_masks()
    cover = 0
    for t in triple:
        cover |= tmasks[tree_index[t]]
    covers = _covering_triples(tmasks, cover, limit=4)
    self_t = tuple(sorted(tree_index[t] for t in triple))
    unique = covers == {self_t}
    if len(set(triple)) == 3 and any(len(cherries(trees[i])) != 1
                                     for c in covers for i in c):
        raise RuntimeError("covering triple contains a multi-cherry tree")
    found = tuple(tuple(trees[i] for i in c) for c in sorted(covers))
    return GadgetReport(
        instance=None,
        expected=(tuple(triple),),
        found=found,
        unique=unique,
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
    triplets) precedes the complete covering scan.  Returns the
    lexicographically first qualifying triple and the three corresponding
    orderings.
    """
    trees, tmasks, tree_index = _tree_masks()

    c1s = [_cat_topdown((5,) + p + (0, 1)) for p in permutations((2, 3, 4))]
    c2s = [_cat_topdown((1,) + p + (0, 5)) for p in permutations((2, 3, 4))]
    seen: set = set()
    c3s = []
    for p in permutations((1, 2, 3, 4, 5)):
        t = _cat_topdown((0,) + p)
        if t not in seen:
            seen.add(t)
            c3s.append(t)

    def sole_coverer(private: int, self_i: int) -> bool:
        return all(m & private != private
                   for i, m in enumerate(tmasks) if i != self_i)

    candidates = sorted(
        ((t1, t2, t3) for t1 in c1s for t2 in c2s for t3 in c3s),
        key=lambda tr: tuple(t.sort_key() for t in tr))
    for t1, t2, t3 in candidates:
        i1, i2, i3 = (tree_index[t] for t in (t1, t2, t3))
        m1, m2, m3 = tmasks[i1], tmasks[i2], tmasks[i3]
        cover = m1 | m2 | m3
        if not (sole_coverer(cover & ~(m2 | m3), i1)
                and sole_coverer(cover & ~(m1 | m3), i2)
                and sole_coverer(cover & ~(m1 | m2), i3)):
            continue
        if _covering_triples(tmasks, cover, limit=1) == \
                {tuple(sorted((i1, i2, i3)))}:
            triple = (t1, t2, t3)
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
