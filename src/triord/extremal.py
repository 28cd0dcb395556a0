"""How many trees does it take to display every triplet over n leaves?

``tau(n)`` is the minimum number of rooted binary trees on leaves {1..n}
whose displayed triplets jointly cover the full set T_n of all 3*C(n,3)
triplets; ``tau_c`` restricts the trees to caterpillars.  Deciding
tau(n) <= k is the k-tree cover question for T_n, so ``tau_decision``
hands it to the same CDCL model that decides k-tree compatibility
(``phylo._TreeCoverCnf``): one variable per tree slot, leaf triple and
orientation, constrained by

  (1) covering: every orientation appears in some slot,
  (2) trichotomy: exactly one orientation per slot and triple,
  (3)+(4) four-leaf closure: ab|c and bc|d force ab|d and ac|d, which
      characterizes the displayed sets of trees.

The CDCL model also breaks slot symmetry without loss of generality: the
three orientations of the first leaf triple go to slots 0, 1 and 2 (the
first min(k, 3); see ``_TreeCoverCnf``), so k <= 2 is refuted at the root.

A caterpillar displays ab|c exactly when c is its top leaf of the three,
so tau_c(n) <= k is the k-order Pi1 instance (Pi1 = {123, 132}) with one
constraint (c, a, b) per leaf c and pair {a, b} not holding c; its least
k is the order dimension of K_n (Dushnik, Proc. AMS 1950; Hosten &
Morris, Discrete Math. 1999).  Caterpillar mode solves it on
``solver._PairOrderCnf`` with slot 0 pinned to 1 < 2 < ... < n, which
loses no cover: relabelling maps the instance onto itself, so any
solution can be relabelled to hold the identity, in slot 0.  Listed leaf
first, constraint 0 is (1, 2, 3), so this agrees with ``_PairOrderCnf``'s
own pin (constraint 0 holds in slot 0).  ``tau_cnf`` builds either
formula; its ``dimacs`` text is what an outside solver or checker reads.

The module also carries the surrounding machinery: the logarithmic upper
bound on tau_c with its constructive greedy caterpillar cover (each round
displays at least a third of the remaining triplets), unrooted trees with
their rootings, and the certificate that rootings of one unrooted tree miss
a triplet exactly when some leaf edge carries no root (so always when there
are fewer rootings than leaves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, count
from typing import Iterable, Optional

from .orderings import make_instance, ordering, var_key
from .phylo import (
    RootedTree, Triplet, _TreeCoverCnf, _subtrees, caterpillar_of,
    displayed_triplets, displays, join, triplet, triplet_labels,
)
from .solver import BudgetExceeded, _PairOrderCnf, _SlotCnf

__all__ = [
    "full_triplet_set", "tau_cnf", "TauDecision", "tau_decision",
    "TauBound", "tau", "log_upper_bound", "greedy_caterpillar_cover",
    "UnrootedTree", "Rooting", "unroot", "rootings_of", "root_location",
    "find_missing_triplet",
]


def full_triplet_set(n: int) -> frozenset:
    """All 3*C(n,3) triplets over the leaves {1, ..., n}."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    out = []
    for a, b, c in combinations(range(1, n + 1), 3):
        out += [triplet(a, b, c), triplet(a, c, b), triplet(b, c, a)]
    return frozenset(out)


# ---------------------------------------------------------------------------
# Exact tau as a k-tree cover of T_n


@dataclass(frozen=True)
class TauDecision:
    """Outcome of deciding whether k trees can display all of T_n.

    ``answer`` is True/False when decided, None when the CDCL conflict
    budget ran out; ``trees`` carries a witness on yes, and ``nodes`` is
    the number of CDCL conflicts spent."""

    n: int
    k: int
    caterpillar_mode: bool
    answer: Optional[bool]
    trees: Optional[tuple] = None
    nodes: int = 0


def tau_cnf(n: int, k: int, caterpillar_mode: bool = False) -> _SlotCnf:
    """The k-tree cover formula of T_n, or the pinned k-order Pi1 formula
    in caterpillar mode (see the module docstring), before any solve."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    if k < 1:
        raise ValueError(f"need at least one tree slot, got {k}")
    if not caterpillar_mode:
        return _TreeCoverCnf(sorted(full_triplet_set(n)), k)
    labels = range(1, n + 1)
    cnf = _PairOrderCnf(make_instance(1, k, labels, [
        (c, a, b) for c in labels for a, b in combinations(labels, 2)
        if c not in (a, b)]))
    for lit in cnf._shown(ordering(*labels)):  # slot 0 is 1 < 2 < ... < n
        cnf.sat.add_clause([lit])
    return cnf


def tau_decision(n: int, k: int, caterpillar_mode: bool = False,
                 node_limit: Optional[int] = None,
                 cnf: Optional[_SlotCnf] = None) -> TauDecision:
    """Decide whether k trees (caterpillars) suffice to display T_n;
    ``node_limit`` caps the CDCL conflicts.  ``cnf`` is the formula to
    solve: ``tau_cnf(n, k, caterpillar_mode)``, built here unless it is
    given (one built before, say to export it, and not yet solved)."""
    if cnf is None:
        cnf = tau_cnf(n, k, caterpillar_mode)
    try:
        found = cnf.next(node_limit)
    except BudgetExceeded:
        return TauDecision(n, k, caterpillar_mode, None,
                           nodes=cnf.sat.conflicts)
    if found is not None and caterpillar_mode:  # each order top leaf first
        found = [caterpillar_of(o.seq[::-1]) for o in found]
        if frozenset().union(*map(displayed_triplets, found)) != \
                full_triplet_set(n):
            raise RuntimeError("the caterpillars do not display T_n")
    return TauDecision(n, k, caterpillar_mode, found is not None,
                       tuple(found) if found else None, cnf.sat.conflicts)


@dataclass(frozen=True)
class TauBound:
    """tau(n) when ``exact``; otherwise ``value is None`` and the
    decisions made certify tau(n) >= lower_bound."""

    n: int
    caterpillar_mode: bool
    value: Optional[int]
    lower_bound: int
    witnesses: Optional[tuple] = None
    nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.value is not None


def tau(n: int, caterpillar_mode: bool = False,
        node_limit: Optional[int] = None) -> TauBound:
    """Smallest k with tau_decision true, searched upward from 1;
    ``node_limit`` caps the CDCL conflicts summed over every decision."""
    nodes = 0
    for k in count(1):
        d = tau_decision(n, k, caterpillar_mode,
                         None if node_limit is None else node_limit - nodes)
        nodes += d.nodes
        if d.answer is True:
            return TauBound(n, caterpillar_mode, k, k, d.trees, nodes)
        if d.answer is None:
            return TauBound(n, caterpillar_mode, None, k, None, nodes)


# ---------------------------------------------------------------------------
# Logarithmic upper bound and the greedy caterpillar cover


def log_upper_bound(n: int) -> int:
    """ceil((log n(n-1)(n-2) - log 2) / log(3/2)): enough caterpillars to
    cover T_n when each displays a third of what remains."""
    if n < 3:
        raise ValueError(f"need at least 3 leaves, got {n}")
    return math.ceil((math.log(n * (n - 1) * (n - 2)) - math.log(2))
                     / math.log(1.5))


def _greedy_caterpillar(remaining: set, labels: list) -> RootedTree:
    # Build the spine top-down by conditional expectation.  With the top
    # part fixed and the rest uniformly random, a still-active triplet
    # (all three leaves unplaced) is displayed with probability 1/3, a
    # triplet whose witness was just placed with probability 1, and one
    # with a cherry leaf placed with probability 0 -- so placing v is
    # worth 2*W(v) - C(v) thirds, where W counts active triplets
    # witnessed by v and C those with v in the cherry.
    active = set(remaining)
    unplaced = set(labels)
    top_down: list = []
    while unplaced:
        best, best_score = None, None
        for v in sorted(unplaced, key=var_key):
            w = sum(1 for t in active if t[2] == v)
            ch = sum(1 for t in active if v in t[:2])
            score = 2 * w - ch
            if best is None or score > best_score:
                best, best_score = v, score
        top_down.append(best)
        unplaced.discard(best)
        active = {t for t in active if best not in t}
    return caterpillar_of(ordering(*reversed(top_down)))


def greedy_caterpillar_cover(r: Iterable[Triplet]) -> list:
    """Caterpillars over the triplet labels whose union displays r; each
    round's tree displays at least a third of the remaining triplets."""
    remaining = {triplet(*t) for t in r}
    labels = sorted(triplet_labels(remaining), key=var_key)
    cover = []
    while remaining:
        cat = _greedy_caterpillar(remaining, labels)
        shown = {t for t in remaining if displays(cat, t)}
        if 3 * len(shown) < len(remaining):
            raise RuntimeError("greedy caterpillar shows under a third")
        remaining -= shown
        cover.append(cat)
    return cover


# ---------------------------------------------------------------------------
# Unrooted trees, rootings, and the missing-triplet certificate


class UnrootedTree:
    """Immutable unrooted binary tree: leaves have degree 1, internal
    vertices degree 3.  Built from an iterable of undirected edges; the
    degree-1 endpoints are the leaf labels."""

    __slots__ = ("adj", "leaves", "_edges")

    def __init__(self, edges: Iterable):
        adj: dict = {}
        edge_set = set()
        for u, v in edges:
            e = frozenset((u, v))
            if len(e) != 2 or e in edge_set:
                raise ValueError(f"bad or repeated edge {u!r}-{v!r}")
            edge_set.add(e)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        if not edge_set:
            raise ValueError("empty tree")
        if len(edge_set) != len(adj) - 1:
            raise ValueError("not a tree (wrong edge count)")
        seen = set()
        stack = [next(iter(adj))]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
        if seen != set(adj):
            raise ValueError("not connected")
        for u, nb in adj.items():
            if len(nb) not in (1, 3):
                raise ValueError(f"vertex {u!r} has degree {len(nb)}")
        object.__setattr__(self, "adj",
                           {u: frozenset(nb) for u, nb in adj.items()})
        object.__setattr__(self, "leaves", frozenset(
            u for u, nb in adj.items() if len(nb) == 1))
        object.__setattr__(self, "_edges", frozenset(edge_set))

    def __setattr__(self, name, value):
        raise AttributeError("UnrootedTree is immutable")

    def edges(self) -> frozenset:
        return self._edges

    @property
    def order(self) -> int:
        return len(self.leaves)

    def __eq__(self, other):
        return isinstance(other, UnrootedTree) and self._edges == other._edges

    def __hash__(self):
        return hash(self._edges)

    def __repr__(self):
        return f"UnrootedTree(order={self.order})"


@dataclass(frozen=True)
class Rooting:
    """A rooted reading of ``base``: the root subdivides ``edge``."""

    base: UnrootedTree
    edge: frozenset
    tree: RootedTree


def unroot(t: RootedTree) -> UnrootedTree:
    """Forget the root: suppress it and undirect the edges.  Internal
    vertices are named ("internal", i)."""
    if len(t.leaves) < 3:
        raise ValueError("need at least 3 leaves to unroot")
    # the root is suppressed (its two edges merge into one) and the other
    # internal vertices are numbered in preorder, left child first: the
    # reverse of _subtrees' order, so the numbers count down
    names = count(len(t.leaves) - 3, -1)
    edges, ends = [], []  # ends: per finished subtree, its top vertex
    for s in _subtrees(t.shape)[:-1]:
        if isinstance(s, tuple):
            v = ("internal", next(names))
            edges += ((v, ends.pop()), (v, ends.pop()))
            ends.append(v)
        else:
            ends.append(s)
    right, left = ends
    edges.append((left, right))
    return UnrootedTree(edges)


def _side(t: UnrootedTree, v, parent) -> list:
    """The vertices on v's side of edge parent-v as (vertex, its parent)
    pairs, each after its parent, listed on an explicit stack."""
    order, stack = [], [(v, parent)]
    while stack:
        u, p = stack.pop()
        order.append((u, p))
        stack += ((w, u) for w in t.adj[u] - {p})
    return order


def _subtree_shape(t: UnrootedTree, v, parent):
    """The shape of the side of edge parent-v that holds v, built bottom
    up from ``_side``."""
    shape = {}
    for u, p in reversed(_side(t, v, parent)):
        kids = t.adj[u] - {p}
        shape[u] = tuple(shape[w] for w in kids) if kids else u
    return shape[v]


def _rooting_at(t: UnrootedTree, e: frozenset) -> RootedTree:
    u, v = e
    return join(RootedTree(_subtree_shape(t, u, v)),
                RootedTree(_subtree_shape(t, v, u)))


def rootings_of(t: UnrootedTree) -> list:
    """One rooted tree per edge: 2n-3 rootings for order n."""
    return [Rooting(t, e, _rooting_at(t, e))
            for e in sorted(t.edges(), key=lambda e: sorted(map(repr, e)))]


def root_location(t: UnrootedTree, rooted: RootedTree) -> frozenset:
    """The edge of t that the root of ``rooted`` subdivides."""
    if rooted.leaves != t.leaves:
        raise ValueError("leaf sets differ")
    for e in t.edges():
        if _rooting_at(t, e) == rooted:
            return e
    raise ValueError("not a rooting of this tree")


def _as_rooting(t: UnrootedTree, r) -> Rooting:
    if isinstance(r, Rooting):
        if r.base != t:
            raise ValueError("rooting of a different tree")
        return r
    return Rooting(t, root_location(t, r), r)


def find_missing_triplet(t: UnrootedTree,
                         rootings: list) -> Optional[Triplet]:
    """A triplet displayed by none of the rootings, or None when every
    leaf edge carries a root.

    Take the first leaf b (in var_key order) whose leaf edge v-b carries
    no root, and the smallest leaves a and c on v's two other sides:
    - the paths between a, b and c meet at v;
    - so a rooting displays ac|b exactly when its root subdivides v-b (a
      root on a's side gives bc|a, one on c's side gives ab|c);
    - so a triplet is missing exactly when some leaf edge is free (the
      rooting on z's leaf edge displays every xy|z), which holds whenever
      k < n for k rootings, and so whenever n > k^2 - 6."""
    used = {_as_rooting(t, r).edge for r in rootings}
    if len(t.leaves) < 3:
        return None
    for b in sorted(t.leaves, key=var_key):
        (v,) = t.adj[b]
        if frozenset((v, b)) not in used:
            a, c = (min((u for u, _ in _side(t, x, v) if u in t.leaves),
                        key=var_key)
                    for x in t.adj[v] - {b})
            return triplet(a, c, b)
    return None
