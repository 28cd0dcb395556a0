"""Instance transformers between the ordering-CSP, triplet-compatibility,
and dicoloring problems, with the constructive solution-lifting maps.

Each `reduce_*` function is a pure transform; where the correctness argument
is constructive, a matching `lift_*_forward` turns a source solution into a
target solution (and `lift_*_backward` extracts a source solution from a
target one, where extraction is a plain restriction/relabeling).  Gadget
variables introduced by a transform are namespaced `g:<reduction>:...` so
reductions compose without capturing source names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Callable, Optional

from .gadgets import (
    PI5_GADGET, PI6_GADGET, TREE_GADGET, gadget_instance, gadget_triplet_union,
)
from .orderings import (
    Instance, LinearOrdering, concat, implied_constraints, make_instance,
    ordering, pi_family, restrict, reversal, satisfies, var_key,
)
from .phylo import (
    Digraph, RootedTree, caterpillar_of, cherries, displays,
    is_caterpillar, ordering_of, restrict_tree, triplet,
)
from .solver import Solution


@dataclass(frozen=True)
class Reduction:
    """A named transform with its lift maps.  ``source`` and ``target``
    name the kind of problem it reads and writes: "ordering" (a k-order
    instance, whose family and k the instance carries), "caterpillar" or
    "tree" (a triplet set, to be covered by caterpillars or by trees), or
    "digraph"."""
    name: str
    source: str
    target: str
    transform: Callable
    lift_forward: Optional[Callable] = None
    lift_backward: Optional[Callable] = None


def _ckey(c: tuple) -> tuple:
    return tuple(var_key(x) for x in c)


def _sorted_constraints(inst: Instance) -> list:
    return sorted(inst.constraints, key=_ckey)


# ---------------------------------------------------------------------------
# Betweenness (one order) -> conjunctive triples (two orders)


def reduce_1pi5_to_2pi0(inst: Instance) -> Instance:
    """Each betweenness constraint becomes both of its readings."""
    if inst.pi.index != 5 or inst.k != 1:
        raise ValueError("source must be a 1-order betweenness instance")
    cs = []
    for v1, v2, v3 in _sorted_constraints(inst):
        cs += [(v1, v2, v3), (v3, v2, v1)]
    return make_instance(0, 2, inst.vars, cs)


def lift_reversal_pair_forward(source: Instance, sol: Solution) -> Solution:
    """Forward lift of 1pi5_to_2pi0 and 1pi9_to_2pi4: the one order and its
    reversal."""
    (alpha,) = sol.orderings
    return Solution((alpha, reversal(alpha)))


def lift_first_order_backward(source: Instance, sol: Solution) -> Solution:
    """Backward lift of 1pi5_to_2pi0 and 1pi9_to_2pi4: the first order."""
    return Solution((sol.orderings[0],))


# ---------------------------------------------------------------------------
# Conjunctive triples -> prefix constraints


def _pi1_fresh(i: int, role: str) -> str:
    return f"g:2pi1:{i}:{role}"


def reduce_2pi0_to_2pi1(inst: Instance) -> Instance:
    """Two fresh variables and five prefix constraints per source triple."""
    if inst.pi.index != 0 or inst.k != 2:
        raise ValueError("source must be a 2-order conjunctive instance")
    vars_ = set(inst.vars)
    cs = []
    for i, (v1, v2, v3) in enumerate(_sorted_constraints(inst)):
        vd, ve = _pi1_fresh(i, "d"), _pi1_fresh(i, "e")
        vars_ |= {vd, ve}
        cs += [(v1, v2, vd), (v2, v3, ve), (ve, v1, v2), (vd, v1, v2),
               (v1, ve, vd)]
    return make_instance(1, 2, vars_, cs)


def lift_2pi0_to_2pi1_forward(source: Instance, sol: Solution) -> Solution:
    alpha, beta = sol.orderings
    w, w_other = [], []
    for i, c in enumerate(_sorted_constraints(source)):
        fresh = [_pi1_fresh(i, "d"), _pi1_fresh(i, "e")]
        (w if satisfies(source.pi, alpha, c) else w_other).extend(fresh)
    gamma, gamma_other = ordering(*sorted(w)), ordering(*sorted(w_other))
    return Solution((concat(concat(gamma_other, alpha), gamma),
                     concat(concat(gamma, beta), gamma_other)))


def lift_2pi0_to_2pi1_backward(source: Instance, sol: Solution) -> Solution:
    return Solution(restrict(o, source.vars) for o in sol.orderings)


# ---------------------------------------------------------------------------
# Non-betweenness (one order) -> {123, 231} pairs (two orders)


def reduce_1pi9_to_2pi4(inst: Instance) -> Instance:
    if inst.pi.index != 9 or inst.k != 1:
        raise ValueError("source must be a 1-order non-betweenness instance")
    cs = []
    for v1, v2, v3 in _sorted_constraints(inst):
        cs += [(v2, v1, v3), (v2, v3, v1)]
    return make_instance(4, 2, inst.vars, cs)


# ---------------------------------------------------------------------------
# Betweenness (one order) -> betweenness (two orders)

_PI5_ANCHORS = tuple(f"g:2pi5:a:{j}" for j in (1, 2, 3, 4, 5))


def _pi5_fresh(i: int, role: str) -> str:
    return f"g:2pi5:{i}:{role}"


def reduce_1pi5_to_2pi5(inst: Instance) -> Instance:
    """Anchor gadget + per-constraint envelope variables.

    The anchor block pins five fresh elements to (up to reversal) the two
    generator orders; per source constraint (v1,v2,v3), envelope variables
    d, e are forced between v1..v3 with v2 between them, and all source and
    envelope variables are confined to windows of the anchors.
    """
    if inst.pi.index != 5 or inst.k != 1:
        raise ValueError("source must be a 1-order betweenness instance")
    a1, a2, a3, a4, a5 = _PI5_ANCHORS
    gens = [LinearOrdering(tuple(_PI5_ANCHORS[j - 1] for j in g.seq))
            for g in PI5_GADGET]
    c1 = set(gadget_instance(gens, 5, 2).constraints)
    cs = sorted(c1)
    vars_ = set(inst.vars) | set(_PI5_ANCHORS)
    for i, (v1, v2, v3) in enumerate(_sorted_constraints(inst)):
        vd, ve = _pi5_fresh(i, "d"), _pi5_fresh(i, "e")
        vars_ |= {vd, ve}
        cs += [(v1, vd, v3), (v1, ve, v3), (vd, v2, ve)]
        cs += [(a2, vd, a3), (a2, ve, a3), (a1, vd, a2), (a1, ve, a2),
               (a4, vd, a5), (a4, ve, a5), (a3, vd, a5), (a3, ve, a5)]
    for v in sorted(inst.vars, key=var_key):
        cs += [(a3, v, a4), (a4, v, a5), (a1, v, a2), (a1, v, a3)]
    return make_instance(5, 2, vars_, cs)


def lift_1pi5_to_2pi5_forward(source: Instance, sol: Solution) -> Solution:
    (alpha,) = sol.orderings
    # delta: alpha with d slotted on the v1 side of v2 and e on the v3 side
    delta = list(alpha.seq)
    for i, (v1, v2, v3) in enumerate(_sorted_constraints(source)):
        vd, ve = _pi5_fresh(i, "d"), _pi5_fresh(i, "e")
        p2 = delta.index(v2)
        if delta.index(v1) < p2:
            delta[p2:p2] = [vd]
            delta.insert(delta.index(v2) + 1, ve)
        else:
            delta[p2:p2] = [ve]
            delta.insert(delta.index(v2) + 1, vd)
    a1, a2, a3, a4, a5 = _PI5_ANCHORS
    d_only = [x for x in delta if x not in source.vars]
    alpha2 = LinearOrdering((a1, a2, a3, a4, a5) + tuple(delta))
    beta2 = LinearOrdering((a5, a2) + tuple(d_only) + (a3,) + alpha.seq
                           + (a4, a1))
    return Solution((alpha2, beta2))


def lift_restrict_backward(source: Instance, sol: Solution) -> Solution:
    """Backward lift of 1pi5_to_2pi5 and 1pi5_to_2pi9: the first target
    order whose restriction to the source variables solves the source."""
    for o in sol.orderings:
        cand = restrict(o, source.vars)
        if all(satisfies(source.pi, cand, c) for c in source.constraints):
            return Solution((cand,))
    raise ValueError("no member of the target solution restricts to a "
                     "source solution")


# ---------------------------------------------------------------------------
# Prefix constraints -> single-pattern-complement family


def _pi6_var(v) -> str:
    return f"g:2pi6:var:{v}"


_PI6_SHARED = tuple(f"g:2pi6:a:{j}" for j in (2, 3, 4))


def reduce_2pi1_to_2pi6(inst: Instance) -> Instance:
    """One four-element gadget copy per source variable plus, per source
    constraint (v1,v2,v3), the triples {(1v1,1v2,1v3),(1v1,1v3,1v2),
    (1v1,1v2,3)} over the renamed variables."""
    if inst.pi.index != 1 or inst.k != 2:
        raise ValueError("source must be a 2-order prefix instance")
    a2, a3, a4 = _PI6_SHARED
    cs = []
    for v in sorted(inst.vars, key=var_key):
        one = _pi6_var(v)
        gens = [LinearOrdering(tuple({1: one, 2: a2, 3: a3, 4: a4}[j]
                                     for j in g.seq)) for g in PI6_GADGET]
        cs += sorted(gadget_instance(gens, 6, 2).constraints)
    for v1, v2, v3 in _sorted_constraints(inst):
        o1, o2, o3 = _pi6_var(v1), _pi6_var(v2), _pi6_var(v3)
        cs += [(o1, o2, o3), (o1, o3, o2), (o1, o2, a3)]
    vars_ = {_pi6_var(v) for v in inst.vars} | set(_PI6_SHARED)
    return make_instance(6, 2, vars_, cs)


def lift_2pi1_to_2pi6_forward(source: Instance, sol: Solution) -> Solution:
    alpha, beta = sol.orderings
    a2, a3, a4 = _PI6_SHARED
    alpha1 = tuple(_pi6_var(v) for v in alpha.seq)
    beta1 = tuple(_pi6_var(v) for v in beta.seq)
    return Solution((LinearOrdering(alpha1 + (a2, a3, a4)),
                     LinearOrdering((a2, a4) + beta1 + (a3,))))


def lift_2pi1_to_2pi6_backward(source: Instance, sol: Solution) -> Solution:
    back = {_pi6_var(v): v for v in source.vars}
    out = []
    for o in sol.orderings:
        kept = restrict(o, set(back))
        out.append(LinearOrdering(tuple(back[x] for x in kept.seq)))
    return Solution(out)


# ---------------------------------------------------------------------------
# Betweenness (one order) -> non-betweenness (two orders)


def _pi9_fresh(i: int, j: int) -> str:
    return f"g:2pi9:{i}:{j}"


def _pi9_chains(i: int, c: tuple) -> tuple:
    v1, v2, v3 = c
    e1, e2, e3, e5 = (_pi9_fresh(i, j) for j in (1, 2, 3, 5))
    gamma = (e1, e2, e3, v1, e5, v2, v3)
    delta = (e2, e5, v3, e3, e1, v2, v1)
    return gamma, delta


def reduce_1pi5_to_2pi9(inst: Instance) -> Instance:
    """Per source constraint, a seven-element block whose implied constraint
    set pins the block to two specific interleavings (up to reversal)."""
    if inst.pi.index != 5 or inst.k != 1:
        raise ValueError("source must be a 1-order betweenness instance")
    pi9 = pi_family(9)
    vars_ = set(inst.vars)
    cs: list = []
    for i, c in enumerate(_sorted_constraints(inst)):
        gamma, delta = _pi9_chains(i, c)
        vars_ |= set(gamma)
        cs += sorted(implied_constraints(LinearOrdering(gamma), pi9)
                     | implied_constraints(LinearOrdering(delta), pi9),
                     key=_ckey)
    return make_instance(9, 2, vars_, cs)


def lift_1pi5_to_2pi9_forward(source: Instance, sol: Solution) -> Solution:
    (alpha,) = sol.orderings
    a_seq, b_seq = list(alpha.seq), list(alpha.seq)
    for i, (v1, v2, v3) in enumerate(_sorted_constraints(source)):
        e1, e2, e3, e5 = (_pi9_fresh(i, j) for j in (1, 2, 3, 5))
        asc = alpha.position(v1) < alpha.position(v3)
        if asc:  # alpha: v1 < v2 < v3
            p = a_seq.index(v1)
            a_seq[p:p] = [e1, e2, e3]
            a_seq.insert(a_seq.index(v1) + 1, e5)
            p = b_seq.index(v3)
            b_seq[p:p] = [e1, e3]
            b_seq[b_seq.index(v3) + 1:b_seq.index(v3) + 1] = [e5, e2]
        else:  # alpha: v3 < v2 < v1
            p = a_seq.index(v1)
            a_seq[p:p] = [e5]
            a_seq[a_seq.index(v1) + 1:a_seq.index(v1) + 1] = [e3, e2, e1]
            p = b_seq.index(v3)
            b_seq[p:p] = [e2, e5]
            b_seq[b_seq.index(v3) + 1:b_seq.index(v3) + 1] = [e3, e1]
    return Solution((LinearOrdering(tuple(a_seq)),
                     LinearOrdering(tuple(b_seq))))


# ---------------------------------------------------------------------------
# Two caterpillars -> three caterpillars / three trees

def _fresh_taxa(triplets, prefix: str) -> dict:
    out = {}
    for i, r in enumerate(sorted(triplets)):
        out[r] = f"g:{prefix}:{i}:ab"
    return out


def _check_labels(triplets) -> None:
    labels = {x for r in triplets for x in r}
    if labels & TREE_GADGET[0].domain():
        raise ValueError("source labels collide with the reserved gadget "
                         "labels 0..5")
    if any(str(x).startswith("g:") for x in labels):
        raise ValueError("source labels collide with the fresh-taxon "
                         "namespace")


def _shared_r_sets(triplets, ab: dict) -> set:
    out: set = set()
    for r in sorted(triplets):
        a, b, c = r
        t = ab[r]
        for x in (a, b, c, t):
            out |= {triplet(3, x, 5), triplet(3, x, 1), triplet(4, x, 0)}
        out.add(triplet(4, t, 2))
        out.add(triplet(0, t, c))
        out |= {triplet(2, 5, a), triplet(1, 2, a), triplet(0, a, 2),
                triplet(2, 5, b), triplet(1, 2, b), triplet(0, b, 2)}
        out |= {triplet(5, a, t), triplet(5, b, t),
                triplet(1, a, t), triplet(1, b, t)}
    return out


def reduce_2cat_to_3cat(triplets) -> frozenset:
    """Gadget triplets plus the anchoring sets R1..R5, one fresh ab-taxon
    per source triplet."""
    _check_labels(triplets)
    out = set(gadget_triplet_union(map(caterpillar_of, TREE_GADGET)))
    out |= _shared_r_sets(triplets, _fresh_taxa(triplets, "3cat"))
    return frozenset(out)


def reduce_2cat_to_3tree(triplets) -> frozenset:
    """As the three-caterpillar reduction, with the stronger root/cherry
    pinning sets needed when the targets may be arbitrary trees."""
    _check_labels(triplets)
    ab = _fresh_taxa(triplets, "3tree")
    out = set(gadget_triplet_union(map(caterpillar_of, TREE_GADGET)))
    out |= _shared_r_sets(triplets, ab)
    for r in sorted(triplets):
        a, b, c = r
        t = ab[r]
        for x in (a, b, c, t):
            for y in (2, 3, 4):
                out |= {triplet(y, x, 5), triplet(y, x, 1), triplet(y, x, 0)}
            out |= {triplet(0, 1, x), triplet(0, 5, x)}
        out |= {triplet(3, t, 2), triplet(5, t, 2)}
    return frozenset(out)


def _cat_seq_topdown(t: RootedTree) -> list:
    """Top-down spine listing of a caterpillar (cherry pair last, sorted)."""
    return list(reversed(ordering_of(t).seq))


def lift_2cat_forward(triplets, cats: list, prefix: str = "3cat") -> tuple:
    """Build the three target caterpillars from a two-caterpillar source
    solution; every emitted target tree is a caterpillar."""
    s1, s2 = cats
    ab = _fresh_taxa(triplets, prefix)
    zone1 = _cat_seq_topdown(s1) if len(s1.leaves) > 1 else list(s1.leaves)
    zone2 = _cat_seq_topdown(s2) if len(s2.leaves) > 1 else list(s2.leaves)
    labels = {x for r in triplets for x in r}
    for x in sorted(labels - set(zone1), key=var_key):
        zone1.insert(0, x)
    for x in sorted(labels - set(zone2), key=var_key):
        zone2.insert(0, x)
    ab_zone3 = []
    ab_under = {1: [], 2: []}  # taxa pinned directly under the top anchor
    for r in sorted(triplets):
        a, b, c = r
        t = ab[r]
        displayed1 = (set(r) <= s1.leaves and displays(s1, r))
        if displayed1:
            zone1.insert(zone1.index(c) + 1, t)
            ab_under[2].append(t)
        else:
            zone2.insert(zone2.index(c) + 1, t)
            ab_under[1].append(t)
        ab_zone3.append(t)
    t1 = caterpillar_of(tuple(reversed(
        [5, 4, 3, 2] + ab_under[1] + zone1 + [0, 1])))
    t2 = caterpillar_of(tuple(reversed(
        [1, 3, 4, 2] + ab_under[2] + zone2 + [0, 5])))
    t3 = caterpillar_of(tuple(reversed(
        [0] + sorted(labels, key=var_key) + [2] + ab_zone3 + [4, 3, 1, 5])))
    return t1, t2, t3


def lift_2cat_backward(triplets, trees: list) -> tuple:
    """Flatten the targets and drop gadget/fresh taxa, recovering two
    caterpillars that jointly display the source triplets."""
    labels = {x for r in triplets for x in r}
    out = []
    for t in trees[:2]:
        flat = flatten_to_caterpillar(t)
        keep = flat.leaves & labels
        out.append(restrict_tree(flat, keep) if len(keep) >= 2 else flat)
    return tuple(out)


def flatten_to_caterpillar(t: RootedTree) -> RootedTree:
    """Collapse a tree whose restriction to the anchor labels 0..5 is a
    caterpillar into a caterpillar preserving every above-relation.

    Walking the path from the root toward the deterministically chosen
    cherry leaf c (smallest label of the restricted cherry), each off-path
    pendant subtree is flattened in place: its non-anchor leaves are emitted
    first (they attach above), then its anchor leaf, matching the spine- and
    leg-subtree reattachment rules.
    """
    base = t.leaves & TREE_GADGET[0].domain()
    if len(base) < 3:
        raise ValueError("need at least three anchor labels 0..5")
    base_tree = restrict_tree(t, base)
    if not is_caterpillar(base_tree):
        raise ValueError("restriction to the anchor labels is not a "
                         "caterpillar")
    c = min(cherries(base_tree)[0])
    # the path from the root to c is the clusters holding c, largest
    # first; each step down leaves the pendant subtree upper - lower
    path = sorted((cl for cl in t.clusters if c in cl), key=len, reverse=True)
    out: list = []
    for upper, lower in zip(path, path[1:]):
        pendant = upper - lower
        anchors = pendant & base
        if len(anchors) > 1:
            raise ValueError("pendant subtree spans several anchor legs")
        out += sorted(pendant - anchors, key=var_key)
        out += sorted(anchors)
    out.append(c)
    return caterpillar_of(tuple(reversed(out)))


# ---------------------------------------------------------------------------
# Dicoloring: bounded out-degree, then triplet encoding


def _out_arcs(d: Digraph):
    out: dict = {v: [] for v in d.vertices}
    for u, w in d.arcs:
        out[u].append(w)
    return {v: sorted(ws, key=var_key) for v, ws in out.items()}


def _balanced_split(xs: list) -> tuple:
    mid = (len(xs) + 1) // 2
    return xs[:mid], xs[mid:]


def reduce_dichromatic_to_outdeg3(d: Digraph) -> Digraph:
    """Replace every vertex of out-degree > 2 by a balanced out-tree and
    couple its internal vertices, via 2-cycles, to the equally colored
    leaves of a mirrored all-2-cycle gadget."""
    verts = set(d.vertices)
    arcs = set(d.arcs)
    out_arcs = _out_arcs(d)
    for v in sorted(d.vertices, key=var_key):
        children = out_arcs[v]
        deg = len(children)
        if deg < 3:
            continue
        tag = f"g:outdeg3:{v}"
        arcs -= {(v, u) for u in children}
        internals = []  # the non-root internal tree vertices, in preorder
        # the out-tree splits the children in halves, built on a stack
        stack = [(v, half) for half in reversed(_balanced_split(children))]
        while stack:
            root, xs = stack.pop()
            if len(xs) == 1:
                arcs.add((root, xs[0]))
                continue
            node = f"{tag}:t{len(internals)}"
            internals.append(node)
            verts.add(node)
            arcs.add((root, node))
            stack += ((node, half) for half in reversed(_balanced_split(xs)))
        if len(internals) != deg - 2:
            raise RuntimeError(f"out-tree of {v!r} has the wrong size")
        # mirror gadget: complete binary tree, every arc doubled, leaves at
        # equal depth; the first deg-1 leaves couple to v and the internals
        depth = ceil(log2(deg - 1))
        width = 2 ** depth
        for i in range(1, width):  # heap-indexed internal nodes
            verts.add(f"{tag}:m{i}")
        leaf_of = {}
        for j in range(width):
            i = width + j
            name = (f"{tag}:w{j}" if j < deg - 1 else f"{tag}:p{j}")
            verts.add(name)
            leaf_of[i] = name
        def mnode(i):
            return leaf_of[i] if i >= width else f"{tag}:m{i}"
        for i in range(1, width):
            for ch in (2 * i, 2 * i + 1):
                arcs |= {(mnode(i), mnode(ch)), (mnode(ch), mnode(i))}
        for coupled, w in zip([v] + internals,
                              (f"{tag}:w{j}" for j in range(deg - 1))):
            arcs |= {(coupled, w), (w, coupled)}
    result = Digraph(frozenset(verts), frozenset(arcs))
    if max((len(ws) for ws in _out_arcs(result).values()), default=0) > 3:
        raise RuntimeError("reduced digraph has out-degree above 3")
    return result


def reduce_outdeg3_to_2cat(d: Digraph) -> frozenset:
    """Per vertex: out-degree 1 gives one dummy-padded triplet, 2 gives one
    triplet, 3 gives all three child pairs, each witnessed by the vertex."""
    out: set = set()
    for v, children in _out_arcs(d).items():
        deg = len(children)
        if deg > 3:
            raise ValueError(f"vertex {v!r} has out-degree {deg} > 3")
        if deg == 1:
            out.add(triplet(children[0], f"g:2cat:{v}:dummy", v))
        elif deg == 2:
            out.add(triplet(children[0], children[1], v))
        elif deg == 3:
            a, b, c = children
            out |= {triplet(a, b, v), triplet(a, c, v), triplet(b, c, v)}
    return frozenset(out)


# ---------------------------------------------------------------------------
# Registry


REDUCTIONS = {r.name: r for r in (
    Reduction("1pi5_to_2pi0", "ordering", "ordering", reduce_1pi5_to_2pi0,
              lift_reversal_pair_forward, lift_first_order_backward),
    Reduction("2pi0_to_2pi1", "ordering", "ordering", reduce_2pi0_to_2pi1,
              lift_2pi0_to_2pi1_forward, lift_2pi0_to_2pi1_backward),
    Reduction("1pi9_to_2pi4", "ordering", "ordering", reduce_1pi9_to_2pi4,
              lift_reversal_pair_forward, lift_first_order_backward),
    Reduction("1pi5_to_2pi5", "ordering", "ordering", reduce_1pi5_to_2pi5,
              lift_1pi5_to_2pi5_forward, lift_restrict_backward),
    Reduction("2pi1_to_2pi6", "ordering", "ordering", reduce_2pi1_to_2pi6,
              lift_2pi1_to_2pi6_forward, lift_2pi1_to_2pi6_backward),
    Reduction("1pi5_to_2pi9", "ordering", "ordering", reduce_1pi5_to_2pi9,
              lift_1pi5_to_2pi9_forward, lift_restrict_backward),
    Reduction("2cat_to_3cat", "caterpillar", "caterpillar",
              reduce_2cat_to_3cat,
              lambda src, cats: lift_2cat_forward(src, cats, "3cat"),
              lift_2cat_backward),
    Reduction("2cat_to_3tree", "caterpillar", "tree", reduce_2cat_to_3tree,
              lambda src, cats: lift_2cat_forward(src, cats, "3tree"),
              lift_2cat_backward),
    Reduction("dichromatic_to_outdeg3", "digraph", "digraph",
              reduce_dichromatic_to_outdeg3),
    Reduction("outdeg3_to_2cat", "digraph", "caterpillar",
              reduce_outdeg3_to_2cat),
)}
