"""Rooted binary phylogenetic trees, rooted triplets and their algorithms.

Trees are immutable and canonical: the underlying shape is a nested tuple
(a leaf is its label, an internal node a pair of child shapes) with children
ordered by their smallest leaf label.  Equality, hashing and serialization
all go through this canonical form, which is equivalent to comparing the
sorted cluster sets.  A caterpillar's shape is as deep as its leaf count,
so every walk over a shape, tree equality and order included, goes through
``_subtrees``, an explicit-stack listing of its subtrees, or reads
``RootedTree.clusters``; only ``_insertions`` (at most 8 labels) recurses.

A rooted triplet ``ab|c`` is the 3-leaf tree with cherry {a, b} below the
witness c; it is stored canonically as ``(a, b, c)`` with a < b.  Tree ``T``
displays ``ab|c`` iff some cluster of ``T`` contains a and b but not c
(equivalently lca(a,c) = lca(b,c) is a strict ancestor of lca(a,b)).

A caterpillar (exactly one cherry) corresponds to a linear ordering of its
leaves; ``ordering_of`` lists the leaves deepest first, breaking the
cherry tie towards the smaller label, and ``caterpillar_of`` inverts it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, count, permutations
from operator import itemgetter
from typing import Iterable, Optional

from ._sat import Record, Solver, Templates, record
from .orderings import LinearOrdering, _parse_name, var_key
from .solver import BudgetExceeded, _SlotCnf

Label = object
Triplet = tuple  # canonical (a, b, c): a < b by var_key, witness c


def triplet(a, b, c) -> Triplet:
    """Canonical form of the triplet ab|c."""
    if len({a, b, c}) != 3:
        raise ValueError(f"triplet labels must be distinct: {(a, b, c)}")
    if var_key(b) < var_key(a):
        a, b = b, a
    return (a, b, c)


def triplet_labels(triplets: Iterable[Triplet]) -> frozenset:
    return frozenset(x for t in triplets for x in t)


# ---------------------------------------------------------------------------
# Trees


def _subtrees(shape) -> list:
    """Every subtree of ``shape`` once, each after its children, found on
    an explicit stack, so no depth is too deep.  A right child's subtrees
    come before its left sibling's: the reversed list is the preorder,
    left child first.  Every walk over a shape goes through this list."""
    order, stack = [], [shape]
    while stack:
        s = stack.pop()
        order.append(s)
        if isinstance(s, tuple):
            stack += (s[1], s[0])
    return order[::-1]


class RootedTree:
    """Immutable leaf-labeled rooted binary tree."""

    __slots__ = ("shape", "leaves", "clusters", "_hash")

    def __init__(self, shape):
        # per finished subtree, left child on top: its canonical shape,
        # its leaves and the key of its smallest leaf
        done, clusters = [], []
        for s in _subtrees(shape):
            if isinstance(s, tuple):
                a, b = done.pop(), done.pop()
                if b[2] < a[2]:
                    a, b = b, a
                done.append(((a[0], b[0]), a[1] | b[1], a[2]))
            else:
                done.append((s, frozenset((s,)), var_key(s)))
            clusters.append(done[-1][1])
        ((shape, leaves, _),) = done
        if len(clusters) != 2 * len(leaves) - 1:  # a binary tree's nodes
            raise ValueError("duplicate leaf label")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "clusters", frozenset(clusters))
        object.__setattr__(self, "_hash", hash(shape))

    def __setattr__(self, name, value):
        raise AttributeError("RootedTree is immutable")

    def __eq__(self, other):
        # == on nested shapes recurses, so compare postorder listings, in
        # which () marks an internal node (labels are never tuples)
        if not isinstance(other, RootedTree) or self._hash != other._hash:
            return False
        a, b = ([() if isinstance(s, tuple) else s for s in _subtrees(t.shape)]
                for t in (self, other))
        return a == b

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RootedTree({to_newick(self)})"

    def sort_key(self):
        # preorder, left child first: (1,) per inner node, (0, key) per
        # leaf; prefix-free, so it orders as the nested (1, left, right) key
        return tuple((1,) if isinstance(s, tuple) else (0, var_key(s))
                     for s in reversed(_subtrees(self.shape)))


def leaf(label) -> RootedTree:
    return RootedTree(label)


def join(left: RootedTree, right: RootedTree) -> RootedTree:
    if left.leaves & right.leaves:
        raise ValueError("joined subtrees must have disjoint leaves")
    return RootedTree((left.shape, right.shape))


def lca(t: RootedTree, u, v) -> frozenset:
    """The cluster of the lowest common ancestor of leaves u and v."""
    for x in (u, v):
        if x not in t.leaves:
            raise ValueError(f"unknown leaf label: {x!r}")
    return min((c for c in t.clusters if u in c and v in c), key=len)


def displays(t: RootedTree, r: Triplet) -> bool:
    a, b, c = r
    if not {a, b, c} <= t.leaves:
        raise ValueError(f"triplet labels not in tree: {r}")
    return c not in lca(t, a, b)


def displayed_triplets(t: RootedTree) -> frozenset:
    """All C(n,3) triplets displayed by ``t`` (one per leaf triple)."""
    out = set()
    for x, y, z in combinations(sorted(t.leaves, key=var_key), 3):
        top = lca(t, x, y)
        if z not in top:
            out.add(triplet(x, y, z))
        elif y not in lca(t, x, z):
            out.add(triplet(x, z, y))
        else:
            out.add(triplet(y, z, x))
    return frozenset(out)


def restrict_tree(t: RootedTree, y: Iterable) -> RootedTree:
    y = frozenset(y)
    if len(y) < 2:
        raise ValueError("restriction needs at least 2 labels")
    if not y <= t.leaves:
        raise ValueError("labels not in tree")

    kept = []  # per finished subtree, left child on top: its restriction
    for s in _subtrees(t.shape):
        if isinstance(s, tuple):
            a, b = kept.pop(), kept.pop()
            kept.append(b if a is None else a if b is None else (a, b))
        else:
            kept.append(s if s in y else None)
    return RootedTree(kept[0])


def cherries(t: RootedTree) -> list[frozenset]:
    """Leaf pairs forming a cherry (the two-leaf clusters), sorted for
    determinism."""
    return sorted((c for c in t.clusters if len(c) == 2),
                  key=lambda c: sorted(map(var_key, c)))


def is_caterpillar(t: RootedTree) -> bool:
    return len(t.leaves) >= 2 and len(cherries(t)) == 1


def ordering_of(cat: RootedTree) -> LinearOrdering:
    """Leaves of a caterpillar deepest first, cherry tie to smaller label."""
    if not is_caterpillar(cat):
        raise ValueError("not a caterpillar")
    # the clusters above the cherry are nested, each one leaf larger
    seq, below = [], frozenset()
    for c in sorted((c for c in cat.clusters if len(c) > 1), key=len):
        seq += sorted(c - below, key=var_key)
        below = c
    return LinearOrdering(seq)


def caterpillar_of(alpha) -> RootedTree:
    """Caterpillar whose deepest-first leaf order is ``alpha``; accepts a
    LinearOrdering or a plain sequence (deepest leaf first)."""
    seq = list(alpha.seq if isinstance(alpha, LinearOrdering) else alpha)
    if len(seq) < 2:
        raise ValueError("caterpillar needs at least 2 leaves")
    shape = (seq[0], seq[1])
    for x in seq[2:]:
        shape = (shape, x)
    return RootedTree(shape)


def enumerate_trees(labels: Iterable) -> list[RootedTree]:
    """All rooted binary trees on the labels; count is (2n-3)!!."""
    labels = sorted(set(labels), key=var_key)
    if not labels:
        raise ValueError("need at least one label")
    if len(labels) > 8:
        raise ValueError("enumeration capped at 8 labels")

    shapes = [labels[0]]
    for x in labels[1:]:
        nxt = []
        for s in shapes:
            nxt.extend(_insertions(s, x))
        shapes = nxt
    return sorted((RootedTree(s) for s in shapes), key=RootedTree.sort_key)


def _insertions(shape, x):
    # recursive, but enumerate_trees caps the shapes at 8 labels
    # attach x on the edge above `shape` ...
    yield (shape, x)
    # ... or inside either child
    if isinstance(shape, tuple):
        a, b = shape
        for s in _insertions(a, x):
            yield (s, b)
        for s in _insertions(b, x):
            yield (a, s)


def enumerate_caterpillars(labels: Iterable) -> list[RootedTree]:
    """All caterpillars on the labels (n!/2 of them for n >= 2)."""
    labels = sorted(set(labels), key=var_key)
    # the cherry pair's order is immaterial, so each caterpillar comes once
    return sorted((caterpillar_of(p) for p in permutations(labels)
                   if var_key(p[0]) < var_key(p[1])), key=RootedTree.sort_key)


# ---------------------------------------------------------------------------
# Compatibility


def aho_build(triplets: Iterable[Triplet],
              labels: Optional[Iterable] = None) -> Optional[RootedTree]:
    """BUILD: a binary tree displaying every triplet, or None if the set is
    incompatible.  Multifurcations are resolved into caterpillars over the
    children sorted by smallest descendant label, which cannot remove any
    displayed triplet.

    ``_build`` splits label sets on an explicit stack, so components
    nested as deep as the label count (the chain ``x1 x2|x3``,
    ``x2 x3|x4``, ...) need no recursion."""
    triplets = frozenset(triplets)
    labels = frozenset(labels) if labels is not None else triplet_labels(triplets)
    if not triplet_labels(triplets) <= labels:
        raise ValueError("triplet labels outside label universe")
    if not labels:
        raise ValueError("need at least one label")
    return _build(triplets, labels)


def _build(triplets, labels) -> Optional[RootedTree]:
    """Depth first over the label sets BUILD splits: a task is either a
    (triplets, labels) set to split or the number of finished children to
    join, and ``done`` holds the shapes of finished sets, the last one on
    top."""
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    key = {x: var_key(x) for x in labels}
    done: list = []
    tasks: list = [(triplets, labels)]
    while tasks:
        task = tasks.pop()
        if isinstance(task, int):  # join the last `task` shapes in order
            shape = done[-task]
            for sub in done[len(done) - task + 1:]:
                shape = (shape, sub)
            del done[-task:]
            done.append(shape)
            continue
        triplets, labels = task
        if len(labels) <= 2:
            done.append(tuple(labels) if len(labels) == 2 else next(iter(labels)))
            continue
        # components of the cherry graph {a-b : ab|c}; every triplet of
        # a task lies inside its labels
        parent = {x: x for x in labels}
        for a, b, _ in triplets:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps: dict = {}
        for x in labels:
            comps.setdefault(find(x), set()).add(x)
        if len(comps) == 1:
            return None  # incompatible at this level
        inside: dict = {root: [] for root in comps}
        for t in triplets:  # a and b share a component; in it iff c is
            root = find(t[0])
            if find(t[2]) == root:
                inside[root].append(t)
        order = sorted(comps, key=lambda r: min(map(key.__getitem__, comps[r])))
        tasks.append(len(order))
        tasks += [(inside[r], frozenset(comps[r])) for r in reversed(order)]
    return RootedTree(done[0])


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset
    arcs: frozenset  # of ordered pairs

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "arcs", frozenset(map(tuple, self.arcs)))
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"arc endpoint outside vertex set: {(u, v)}")


def triplet_digraph(triplets: Iterable[Triplet]) -> Digraph:
    """Vertex per label; arcs from each witness to its cherry pair."""
    triplets = frozenset(triplets)
    arcs = {(c, x) for a, b, c in triplets for x in (a, b)}
    return Digraph(triplet_labels(triplets), arcs)


def is_acyclic(d: Digraph) -> bool:
    return _topological_order(d) is not None


def _topological_order(d: Digraph) -> Optional[list]:
    # Kahn's order, smallest ready var_key first; the counter breaks ties
    indeg = dict.fromkeys(d.vertices, 0)
    succ: dict = {v: [] for v in d.vertices}
    for u, v in d.arcs:
        indeg[v] += 1
        succ[u].append(v)
    tick = count()
    ready = [(var_key(v), next(tick), v) for v in d.vertices if not indeg[v]]
    heapify(ready)
    order = []
    while ready:
        u = heappop(ready)[2]
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                heappush(ready, (var_key(v), next(tick), v))
    return order if len(order) == len(d.vertices) else None


def caterpillar_compatible(triplets: Iterable[Triplet],
                           labels: Optional[Iterable] = None
                           ) -> Optional[RootedTree]:
    """A caterpillar displaying all triplets, or None.

    Exists iff the triplet digraph is acyclic; a topological order read
    top-down gives the caterpillar (each witness ends up strictly above its
    cherry pair)."""
    triplets = frozenset(triplets)
    labels = frozenset(labels) if labels is not None else triplet_labels(triplets)
    if not triplet_labels(triplets) <= labels:
        raise ValueError("triplet labels outside label universe")
    if len(labels) < 2:
        raise ValueError("need at least 2 labels")
    order = _topological_order(
        Digraph(labels, {(c, x) for a, b, c in triplets for x in (a, b)}))
    if order is None:
        return None
    cat = caterpillar_of(order[::-1])
    if not all(displays(cat, t) for t in triplets):
        raise RuntimeError("caterpillar does not display every triplet")
    return cat


class _PartitionSearch:
    """Complete search over triplet -> caterpillar-block partitions.

    Branches on the most constrained unplaced triplet (fewest feasible
    blocks), cascading forced placements.  Per block it maintains the
    transitive closure of the block's triplet digraph, so a placement is
    infeasible exactly when it would close a cycle.  Identical empty
    blocks are interchangeable, so a triplet may only open the first of
    them.  The used blocks are therefore always a prefix of ``blocks``: a
    block is opened only as the first empty one, and placements are
    undone last first, so a block empties only after every later block
    has.  ``nodes`` counts the placements; past ``node_limit`` the search
    raises BudgetExceeded.
    """

    def __init__(self, triplets: list, k: int,
                 node_limit: Optional[int] = None):
        self.trips = triplets
        self.nodes, self.node_limit = 0, node_limit
        labels = sorted(triplet_labels(triplets), key=var_key)
        lidx = {x: i for i, x in enumerate(labels)}
        self.itrips = [tuple(lidx[x] for x in t) for t in triplets]
        # scan triplets in decreasing label-connectivity order so ties in
        # the candidate counts break toward the densest part of the input
        freq = Counter(x for t in self.itrips for x in t)
        self.order = sorted(range(len(triplets)), key=lambda i: -sum(
            freq[x] for x in self.itrips[i]))
        self.blocks: list[list[int]] = [[] for _ in range(k)]
        # reach[b][u] = bitmask of vertices reachable from u
        self.reach = [[0] * len(labels) for _ in range(k)]

    def _place(self, i: int, b: int, pending: set) -> tuple:
        """Put triplet i, a feasible candidate, in block b and close the
        block's reach over its arcs; return the undo record."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExceeded(self.node_limit)
        a, c, w = self.itrips[i]
        r = self.reach[b]
        gain = r[a] | r[c] | 1 << a | 1 << c
        wbit = 1 << w
        undo = []
        for u in range(len(r)):
            if (u == w or r[u] & wbit) and gain & ~r[u]:
                undo.append((u, r[u]))
                r[u] |= gain
        self.blocks[b].append(i)
        pending.discard(i)
        return i, b, undo

    def _unplace(self, record: tuple, pending: set) -> None:
        i, b, undo = record
        for u, old in undo:
            self.reach[b][u] = old
        self.blocks[b].pop()
        pending.add(i)

    def _candidates(self, i: int) -> list[int]:
        """The used blocks triplet i closes no cycle in, then the first
        empty block, if any."""
        a, c, w = self.itrips[i]
        out = []
        for b, r in enumerate(self.reach):
            if not self.blocks[b]:
                return out + [b]
            if not (r[a] >> w & 1 or r[c] >> w & 1):
                out.append(b)
        return out

    def run(self) -> Optional[list[list[Triplet]]]:
        if self._search(set(range(len(self.trips)))):
            return [[self.trips[i] for i in block]
                    for block in self.blocks if block]
        return None

    def _search(self, pending: set) -> bool:
        # depth first on an explicit stack of branchings: each holds the
        # placements made since the one before it (the forced cascade,
        # then the branch being tried), the branching triplet and the
        # blocks not tried yet; a triplet with no candidate is a dead end
        frames = []
        while True:
            placed = []
            while pending:
                best, best_cands = None, None
                for i in self.order:
                    if i in pending:
                        cands = self._candidates(i)
                        if best is None or len(cands) < len(best_cands):
                            best, best_cands = i, cands
                            if len(cands) <= 1:
                                break
                if len(best_cands) != 1:
                    break
                placed.append(self._place(best, best_cands[0], pending))
            if not pending:
                return True
            frames.append((placed, best, iter(best_cands)))
            while True:  # the next untried branch, backtracking as needed
                placed, best, rest = frames[-1]
                b = next(rest, None)
                if b is not None:
                    placed.append(self._place(best, b, pending))
                    break
                for record in reversed(placed):
                    self._unplace(record, pending)
                frames.pop()
                if not frames:
                    return False
                self._unplace(frames[-1][0].pop(), pending)  # failed branch


def _cherry(a, b, w) -> tuple:
    return (a, b, w) if a < b else (b, a, w)


#: the closure on the quad (0, 1, 2, 3): ab|c and bc|d force ab|d and ac|d
_IMPLICATIONS = sorted({
    (_cherry(a, b, c), _cherry(b, c, d), _cherry(a, x, d))
    for a, b, c, d in permutations(range(4)) for x in (b, c)})


def four_leaf_closure(quad) -> list:
    """The four-leaf constraints on one orientation per leaf triple.

    ``quad`` is four leaves in increasing order.  Each constraint is
    ``(p, q, r)`` over canonical triplets: p and q together force r (ab|c
    and bc|d force ab|d and ac|d; 48 of them).  An orientation of every
    leaf triple meets all of them exactly when it is the displayed set of
    a tree.
    """
    return [tuple((quad[a], quad[c], quad[w]) for a, c, w in pat)
            for pat in _IMPLICATIONS]


def _orient(tid: dict, a, c, w) -> int:
    """The orientation variable row of the triplet with cherry {a, c} and
    witness w: three rows per leaf triple, the triple numbered by ``tid``,
    then 0, 1, 2 as w is the triple's last, middle or first leaf."""
    key = tuple(sorted((a, c, w)))
    return tid[key] * 3 + (0 if w == key[2] else (1 if w == key[1] else 2))


class _TreeCoverCnf(_SlotCnf):
    """The CNF of a k-tree cover of the triplets, and a checked decoder
    of its models.

    One variable per orientation row of each leaf triple (see _orient)
    per tree slot, constrained by the four-leaf closure: k closed
    orientations that each pick the input triplets somewhere are
    precisely a k-tree cover.  Row i in slot b is variable 1 + i * k + b.

    Slot symmetry is broken by root unit clauses.  Group the distinct
    input triplets by leaf triple and take the largest group, the first
    in input order on a tie; its first min(k, size) triplets go to slots
    0, 1, ... in turn.  This loses no cover: a tree displays at most one
    orientation of a leaf triple, so in any cover the group's triplets
    are displayed by pairwise distinct trees, and permuting the slots
    puts those trees in slots 0, 1, ...  Every multiset of trees thus
    keeps a slot arrangement that meets the pins, and ``block`` removes
    all of its arrangements.  A group larger than k has no cover, and
    with a full leaf triple and k <= 2 the pins refute the formula at the
    root.  With no leaf triple carrying two input triplets, the rule
    puts the first triplet in slot 0.

    Every clause before the covers (one orientation per leaf triple and
    slot, and the four-leaf closure) depends only on the number of
    labels and k: ``closure`` writes them as a record (see _sat) that
    every question of the shape loads from ``templates``.
    """

    #: closure records by (number of labels, k), up to 2^20 literals: a
    #: 13-label record at k = 3 has 316,602 in 0.6 MB (16-bit), and
    #: 106,392 widths in 0.2 MB
    templates = Templates(1 << 20)

    @staticmethod
    def closure(nlabels: int, k: int) -> Record:
        """For each leaf triple and slot, exactly one orientation; then
        for each quad, its four-leaf closure slot by slot."""
        tid = {t: i for i, t in enumerate(combinations(range(nlabels), 3))}
        nvars = 3 * len(tid) * k
        # per leaf triple: its three rows' variables slot by slot, then
        # their negations; a quad's four triples in turn give 24k values
        lits = [(*range(v + 1, v + 1 + 3 * k),
                 *range(-v - 1, -v - 1 - 3 * k, -1))
                for v in range(0, nvars, 3 * k)]

        def at(row: int, b: int, negated: bool) -> int:
            j, o = divmod(row, 3)  # a quad's row: its j-th triple's
            return 6 * k * j + 3 * k * negated + k * o + b

        # per slot: row 0, 1 or 2 of the triple, and no two of them
        one = [at(r, b, neg) for b in range(k) for r, neg in
               zip((0, 1, 2, 0, 1, 0, 2, 1, 2), (0, 0, 0, 1, 1, 1, 1, 1, 1))]
        # the closure on the quad (0, 1, 2, 3), each triplet as one of the
        # quad's 12 orientation rows; every increasing quad maps onto it
        # with the same orientations
        quad_tid = {t: i for i, t in enumerate(combinations(range(4), 3))}
        table = [tuple(_orient(quad_tid, *t) for t in pat)
                 for pat in four_leaf_closure((0, 1, 2, 3))]
        four = [at(row, b, neg) for p, q, r in table for b in range(k)
                for row, neg in ((p, 1), (q, 1), (r, 0))]
        four_widths = (3,) * (len(four) // 3)

        def chunks():  # one per leaf triple, then one per quad
            pick = itemgetter(*one)
            for v in lits:
                yield (3, 2, 2, 2) * k, pick(v)
            pick = itemgetter(*four)
            for quad in combinations(range(nlabels), 4):
                a, b, c, d = (lits[tid[t]] for t in combinations(quad, 3))
                yield four_widths, pick(a + b + c + d)
        return record(nvars, chunks())

    def __init__(self, triplets: list, k: int):
        self.triplets = triplets
        labels = sorted(triplet_labels(triplets), key=var_key)
        # the canonical triplet of each orientation row
        self.rows = [triplet(labels[a], labels[c], labels[w])
                     for x, y, z in combinations(range(len(labels)), 3)
                     for a, c, w in ((x, y, z), (x, z, y), (y, z, x))]
        self.row_of = {r: i for i, r in enumerate(self.rows)}

        super().__init__(Solver(len(self.rows) * k), k,
                         (len(labels), k), self.closure)
        add = self.sat.add_clause
        covers = [self.row_of[triplet(*t)] for t in triplets]
        for i in covers:
            add(list(range(1 + i * k, 1 + i * k + k)))
        groups: dict = {}  # leaf triple -> its distinct input rows
        for i in dict.fromkeys(covers):
            groups.setdefault(i // 3, []).append(i)
        for b, i in enumerate(max(groups.values(), key=len)[:k]):
            add([1 + i * k + b])  # WLOG, see the class docstring

    def _decode(self, model: list[bool]) -> list[RootedTree]:
        out = []
        for b in range(self.k):
            tree = aho_build({r for r, v in zip(self.rows, model[1 + b::self.k])
                              if v})
            if tree is None:
                raise RuntimeError(f"tree slot {b} of the CNF model is not "
                                   "a tree")
            out.append(tree)
        for t in self.triplets:
            if not any(displays(tree, t) for tree in out):
                raise RuntimeError(f"CNF model trees do not display {t}")
        return out

    def _shown(self, tree: RootedTree) -> list[int]:
        """The slot-0 variables of the triplets the tree displays."""
        return [1 + self.row_of[r] * self.k for r in displayed_triplets(tree)]


def k_tree_compatible(triplets: Iterable[Triplet], k: int,
                      caterpillars_only: bool = False,
                      node_limit: Optional[int] = None
                      ) -> Optional[list[RootedTree]]:
    """At most k trees (caterpillars if flagged) jointly displaying the
    triplets, or None.  Caterpillar covers come from a complete search
    over triplet -> block partitions (see _PartitionSearch), tree covers
    from the propositional orientation model (see _TreeCoverCnf).

    ``node_limit`` bounds the CDCL conflicts of a tree cover search, or
    the placements of the partition search; BudgetExceeded past it."""
    triplets = sorted(frozenset(triplets), key=lambda t: tuple(map(var_key, t)))
    if k < 1:
        raise ValueError("k must be >= 1")
    if not triplets:
        return []
    if not caterpillars_only:
        return _TreeCoverCnf(triplets, k).next(node_limit)
    blocks = _PartitionSearch(triplets, k, node_limit).run()
    if blocks is None:
        return None
    out = []
    for block in blocks:
        tree = caterpillar_compatible(block)
        if tree is None:
            raise RuntimeError(f"partition block is not caterpillar-"
                               f"compatible: {sorted(block)}")
        out.append(tree)
    return out


# ---------------------------------------------------------------------------
# Dicoloring


def two_dicolorable(d: Digraph) -> Optional[dict]:
    """A 2-coloring whose color classes induce acyclic subgraphs, or None.

    Backtracking without recursion: vertices in ``var_key`` order, color
    0 before 1, back to the last vertex when both fail.  A class is
    acyclic before v joins it, so v may join unless a path inside the
    class leads from v back to v."""
    verts = sorted(d.vertices, key=var_key)
    succ: dict = {v: [] for v in verts}
    for u, w in d.arcs:
        succ[u].append(w)
    color: dict = {}

    def closes_cycle(v, c) -> bool:
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w == v:
                    return True
                if w not in seen and color.get(w) == c:
                    seen.add(w)
                    stack.append(w)
        return False

    i = 0
    while 0 <= i < len(verts):
        v = verts[i]
        c = color.pop(v, -1) + 1  # 0 on the way in, 1 on the way back
        while c < 2 and closes_cycle(v, c):
            c += 1
        if c < 2:
            color[v] = c
            i += 1
        else:
            i -= 1
    return color if i >= 0 else None


# ---------------------------------------------------------------------------
# Serialization


def to_newick(t: RootedTree) -> str:
    parts = []  # left child's text on top
    for s in _subtrees(t.shape):
        parts.append(f"({parts.pop()},{parts.pop()})" if isinstance(s, tuple)
                     else str(s))
    return parts[0] + ";"


def parse_newick(text: str) -> RootedTree:
    """The tree of a binary Newick string (labels only), read on an
    explicit stack of the open groups."""
    text = text.strip().removesuffix(";")
    groups: list[list] = []  # the children read so far of each open group
    pos = 0
    while True:
        if text[pos:pos + 1] == "(":
            groups.append([])
            pos += 1
            continue
        start = pos
        while pos < len(text) and text[pos] not in "(),;":
            pos += 1
        tok = text[start:pos].strip()
        if not tok:
            raise ValueError(f"empty label at offset {start}")
        node = _parse_name(tok)
        # a finished node is the next child of the innermost open group;
        # a ")" then finishes that group
        while groups:
            kids = groups[-1]
            kids.append(node)
            if text[pos:pos + 1] == ",":
                pos += 1
                break
            if text[pos:pos + 1] != ")":
                raise ValueError("unbalanced parentheses in newick string")
            pos += 1
            groups.pop()
            if len(kids) != 2:
                raise ValueError("tree must be binary")
            node = (kids[0], kids[1])
        else:
            break
    if pos != len(text):
        raise ValueError(f"trailing characters at offset {pos}")
    return RootedTree(node)


def parse_triplets(text: str) -> frozenset:
    """One triplet per line: `a b | c`; `#` comments allowed."""
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            left, right = line.split("|")
            a, b = left.split()
            (c,) = right.split()
        except ValueError:
            raise ValueError(f"line {lineno}: expected `a b | c`") from None
        out.add(triplet(_parse_name(a), _parse_name(b), _parse_name(c)))
    return frozenset(out)


def format_triplets(triplets: Iterable[Triplet]) -> str:
    rows = sorted(triplets, key=lambda t: tuple(map(var_key, t)))
    return "".join(f"{a} {b} | {c}\n" for a, b, c in rows)


def to_dot(d: Digraph) -> str:
    lines = ["digraph {"]
    for v in sorted(d.vertices, key=var_key):
        lines.append(f'  "{v}";')
    for u, v in sorted(d.arcs, key=lambda a: (var_key(a[0]), var_key(a[1]))):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


#: the lines parse_dot skips: a comment, the header (``digraph``, an
#: optional name, ``{``) and the closing ``}``
_DOT_SKIP = re.compile(r'(//|#).*|digraph(\s+("[^"]*"|[^\s{"]+))?\s*\{|\}')


def parse_dot(text: str) -> Digraph:
    """Minimal digraph reader for the DOT subset written by to_dot: a
    header line (``digraph``, an optional name, ``{``), one vertex or arc
    per line with names bare or quoted, and a closing ``}`` line.  Anything
    else (arc chains, attribute lists, two statements on a line) is a
    ValueError."""
    verts = set()
    arcs = set()

    def parse(tok: str, lineno: int):
        name = tok.strip().removesuffix(";").strip()
        if len(name) > 1 and name[0] == name[-1] == '"':
            name = name[1:-1]
        if not name or re.search(r'->|[\s"\[\]{};=]', name):
            raise ValueError(f"line {lineno}: not a DOT vertex or arc")
        return _parse_name(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _DOT_SKIP.fullmatch(line):
            continue
        if "->" in line:
            u, v = (parse(p, lineno) for p in line.split("->", 1))
            verts |= {u, v}
            arcs.add((u, v))
        else:
            verts.add(parse(line, lineno))
    return Digraph(frozenset(verts), frozenset(arcs))
