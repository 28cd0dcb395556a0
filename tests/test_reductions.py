"""Reduction transforms: size formulas, lift soundness, and decision
preservation at desk scale (the exhaustive differential battery lives in the
acceptance suite)."""

import random
from itertools import combinations, permutations

import pytest

from triord import gadgets
from triord.orderings import (
    Instance, LinearOrdering, implied_constraints, make_instance, ordering,
    pi_family, restrict, satisfies,
)
from triord.phylo import (
    Digraph, caterpillar_of, displays, is_caterpillar, join, k_tree_compatible,
    lca, leaf, restrict_tree, triplet, two_dicolorable,
)
from triord.reductions import (
    REDUCTIONS, flatten_to_caterpillar, lift_1pi5_to_2pi5_forward,
    lift_1pi5_to_2pi9_forward, lift_2cat_forward, lift_2pi0_to_2pi1_forward,
    lift_2pi1_to_2pi6_forward, reduce_1pi5_to_2pi0, reduce_1pi5_to_2pi5,
    reduce_1pi5_to_2pi9, reduce_1pi9_to_2pi4, reduce_2cat_to_3cat,
    reduce_2cat_to_3tree, reduce_2pi0_to_2pi1, reduce_2pi1_to_2pi6,
    reduce_dichromatic_to_outdeg3, reduce_outdeg3_to_2cat,
)
from triord.solver import Solution, SolverConfig, check_solution, solve

CDCL = SolverConfig()
EXH = SolverConfig(mode="exhaustive")


def rand_satisfiable(rng, pi_index, k, nv, nc):
    """Instance whose constraints are sampled from the implied sets of k
    random orderings (hence satisfiable), plus the witnessing solution."""
    vars_ = list(range(nv))
    orders = []
    for _ in range(k):
        seq = vars_[:]
        rng.shuffle(seq)
        orders.append(ordering(*seq))
    pool = sorted(set().union(
        *(implied_constraints(o, pi_family(pi_index)) for o in orders)))
    cs = rng.sample(pool, min(nc, len(pool)))
    return make_instance(pi_index, k, vars_, cs), Solution(orders)


# ---------------------------------------------------------------------------
# Constraint-pair reductions


def test_pair_reduction_formulas():
    src = make_instance(5, 1, "abc", [("a", "b", "c")])
    tgt = reduce_1pi5_to_2pi0(src)
    assert set(tgt.constraints) == {("a", "b", "c"), ("c", "b", "a")}
    assert (tgt.pi.index, tgt.k) == (0, 2)
    src9 = make_instance(9, 1, "abc", [("a", "b", "c")])
    tgt9 = reduce_1pi9_to_2pi4(src9)
    assert set(tgt9.constraints) == {("b", "a", "c"), ("b", "c", "a")}
    empty = reduce_1pi5_to_2pi0(make_instance(5, 1, "ab c", []))
    assert empty.constraints == ()
    with pytest.raises(ValueError):
        reduce_1pi5_to_2pi0(make_instance(0, 1, "abc", []))


def test_pair_reductions_equisatisfiable_small():
    rng = random.Random(5)
    for _ in range(40):
        nv, nc = rng.randint(3, 4), rng.randint(1, 3)
        cs = [tuple(rng.sample(range(nv), 3)) for _ in range(nc)]
        for pi_index, reducer in ((5, reduce_1pi5_to_2pi0),
                                  (9, reduce_1pi9_to_2pi4)):
            src = make_instance(pi_index, 1, range(nv), cs)
            tgt = reducer(src)
            assert (solve(src, EXH) is not None) == \
                (solve(tgt, EXH) is not None)


def test_pair_reduction_lifts():
    rng = random.Random(7)
    for _ in range(20):
        src5, sol5 = rand_satisfiable(rng, 5, 1, 5, 4)
        lift = REDUCTIONS["1pi5_to_2pi0"].lift_forward
        assert check_solution(reduce_1pi5_to_2pi0(src5), lift(src5, sol5))
        src9, sol9 = rand_satisfiable(rng, 9, 1, 5, 4)
        lift = REDUCTIONS["1pi9_to_2pi4"].lift_forward
        assert check_solution(reduce_1pi9_to_2pi4(src9), lift(src9, sol9))


# ---------------------------------------------------------------------------
# Conjunctive -> prefix


def test_2pi0_to_2pi1_counts():
    src = make_instance(0, 2, range(4), [(0, 1, 2), (1, 2, 3)])
    tgt = reduce_2pi0_to_2pi1(src)
    assert len(tgt.vars) == len(src.vars) + 2 * len(src.constraints)
    assert len(tgt.constraints) == 5 * len(src.constraints)
    assert tgt.pi.index == 1 and tgt.k == 2


def test_2pi0_to_2pi1_lift_and_decision():
    rng = random.Random(11)
    for _ in range(15):
        src, sol = rand_satisfiable(rng, 0, 2, 4, 3)
        tgt = reduce_2pi0_to_2pi1(src)
        assert check_solution(tgt, lift_2pi0_to_2pi1_forward(src, sol))
    # an unsatisfiable source stays unsatisfiable: each ordering of three
    # variables satisfies exactly one of the three cyclic constraints
    cs = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    src = make_instance(0, 2, range(3), cs)
    assert solve(src, EXH) is None
    assert solve(reduce_2pi0_to_2pi1(src), CDCL) is None


# ---------------------------------------------------------------------------
# Betweenness -> betweenness, two orders


def test_2pi5_transform_counts():
    src = make_instance(5, 1, "xyz", [("x", "y", "z")])
    tgt = reduce_1pi5_to_2pi5(src)
    assert tgt.pi.index == 5 and tgt.k == 2
    assert len(tgt.vars) == 3 + 5 + 2
    # anchor block 32, 3 envelope + 8 window per constraint, 4 per variable
    assert len(tgt.constraints) == 32 + 3 + 8 + 4 * 3


def test_2pi5_lift():
    rng = random.Random(13)
    for _ in range(10):
        src, sol = rand_satisfiable(rng, 5, 1, 5, 3)
        assert check_solution(reduce_1pi5_to_2pi5(src),
                              lift_1pi5_to_2pi5_forward(src, sol))


# ---------------------------------------------------------------------------
# Prefix -> complement family


def test_2pi6_transform_counts():
    src = make_instance(1, 2, "xyz", [("x", "y", "z")])
    tgt = reduce_2pi1_to_2pi6(src)
    assert tgt.pi.index == 6 and tgt.k == 2
    assert len(tgt.vars) == 3 + 3
    # gadget copies share every constraint over the three common anchors
    copies = set()
    for v in "xyz":
        copies |= set(reduce_2pi1_to_2pi6(
            make_instance(1, 2, [v], [])).constraints)
    assert len(tgt.constraints) == len(copies) + 3


def test_2pi6_lift():
    rng = random.Random(17)
    for _ in range(10):
        src, sol = rand_satisfiable(rng, 1, 2, 4, 3)
        assert check_solution(reduce_2pi1_to_2pi6(src),
                              lift_2pi1_to_2pi6_forward(src, sol))


# ---------------------------------------------------------------------------
# Betweenness -> non-betweenness blocks


def test_2pi9_transform_counts():
    src = make_instance(5, 1, "xyz", [("x", "y", "z")])
    tgt = reduce_1pi5_to_2pi9(src)
    assert tgt.pi.index == 9 and tgt.k == 2
    assert len(tgt.vars) == 3 + 4
    # two generators, 4 patterns x C(7,3) triples each, minus the overlap
    assert len(tgt.constraints) <= 2 * 4 * 35


def test_2pi9_lift():
    rng = random.Random(19)
    for _ in range(8):
        src, sol = rand_satisfiable(rng, 5, 1, 5, 3)
        assert check_solution(reduce_1pi5_to_2pi9(src),
                              lift_1pi5_to_2pi9_forward(src, sol))


# ---------------------------------------------------------------------------
# Caterpillar compatibility reductions


def _source_triplets():
    return {triplet("x", "y", "z")}


def test_2cat_to_3cat_counts():
    out = reduce_2cat_to_3cat(_source_triplets())
    assert len(out) == 57 + 24
    assert reduce_2cat_to_3cat(set()) == reduce_2cat_to_3cat(frozenset())
    assert len(reduce_2cat_to_3cat(set())) == 57
    with pytest.raises(ValueError):
        reduce_2cat_to_3cat({triplet(0, "y", "z")})


def test_2cat_to_3tree_counts():
    out3 = reduce_2cat_to_3tree(_source_triplets())
    assert len(out3) == 57 + 58
    # the caterpillar-target triplet sets embed in the tree-target ones
    cat = reduce_2cat_to_3cat(_source_triplets())
    renamed = {tuple("g:3tree:0:ab" if x == "g:3cat:0:ab" else x for x in r)
               for r in cat}
    assert renamed <= set(out3)


def test_2cat_lift_forward_covers_everything():
    # two conflicting triplets force a genuine two-caterpillar source
    r1, r2 = triplet("x", "y", "z"), triplet("x", "z", "y")
    src = {r1, r2}
    s1 = caterpillar_of(("x", "y", "z"))  # displays xy|z
    s2 = caterpillar_of(("x", "z", "y"))  # displays xz|y
    assert displays(s1, r1) and displays(s2, r2)
    for reducer, prefix in ((reduce_2cat_to_3cat, "3cat"),
                            (reduce_2cat_to_3tree, "3tree")):
        target = reducer(src)
        trees = lift_2cat_forward(src, [s1, s2], prefix)
        assert len(trees) == 3
        assert all(is_caterpillar(t) for t in trees)
        for r in target:
            assert any(set(r) <= t.leaves and displays(t, r)
                       for t in trees), r


def test_2cat_reductions_preserve_decision_one_triplet():
    src = _source_triplets()
    # a single triplet is trivially 2-caterpillar compatible
    assert k_tree_compatible(src, 2, caterpillars_only=True) is not None
    out = reduce_2cat_to_3cat(src)
    assert k_tree_compatible(out, 3, caterpillars_only=True) is not None


def test_2cat_reductions_read_the_gadget_constant(monkeypatch):
    triple, orderings = gadgets.derive_caterpillar_triple()
    assert gadgets.TREE_GADGET == orderings
    assert tuple(map(caterpillar_of, gadgets.TREE_GADGET)) == triple
    union = gadgets.gadget_triplet_union(triple)
    assert len(union) == 57

    def rederive():
        raise RuntimeError("the gadget triple is a constant")

    monkeypatch.setattr(gadgets, "derive_caterpillar_triple", rederive)
    src = _source_triplets()
    for reduce in (reduce_2cat_to_3cat, reduce_2cat_to_3tree):
        out = reduce(src)
        assert {r for r in out if set(r) <= set(range(6))} == union


# ---------------------------------------------------------------------------
# Tree flattening


def test_flatten_identity_on_caterpillars():
    cat = caterpillar_of((1, 0, 2, 3, 4, 5))
    assert flatten_to_caterpillar(cat) == cat
    with_extra = caterpillar_of((1, 0, "p", 2, 3, 4, 5))
    assert flatten_to_caterpillar(with_extra) == with_extra
    with pytest.raises(ValueError):
        flatten_to_caterpillar(caterpillar_of(("a", "b", "c")))


def test_flatten_pendant_subtree():
    # spine 5,4,{p,q},3,2,(0,1) read top-down
    t = join(leaf(0), leaf(1))
    for x in (2, 3):
        t = join(t, leaf(x))
    t = join(t, join(leaf("p"), leaf("q")))
    t = join(join(t, leaf(4)), leaf(5))
    flat = flatten_to_caterpillar(t)
    assert is_caterpillar(flat)
    assert flat.leaves == t.leaves


def _above_pairs(t, c):
    """(lower, upper) leaf pairs in the relaxed above-relation wrt c."""
    out = set()
    for x in t.leaves:
        for y in t.leaves:
            if x != y and lca(t, c, x) < lca(t, c, y):
                out.add((x, y))
    return out


def test_flatten_preserves_above_relation():
    rng = random.Random(23)
    for _ in range(20):
        spine = [5, 4, 3, 2]
        rng.shuffle(spine)
        extras = [f"e{i}" for i in range(rng.randint(1, 4))]
        t = join(leaf(0), leaf(1))
        pool = spine + extras
        rng.shuffle(pool)
        for x in pool:
            if rng.random() < 0.3 and isinstance(x, str):
                t = join(t, join(leaf(x), leaf(x + "b")))
            else:
                t = join(t, leaf(x))
        flat = flatten_to_caterpillar(t)
        assert is_caterpillar(flat)
        c = 0  # cherry of the base is always {0, 1} here
        before = _above_pairs(t, c)
        after = _above_pairs(flat, c)
        assert before <= after


# ---------------------------------------------------------------------------
# Dicoloring reductions


def _rand_digraph(rng, n, p):
    verts = list(range(n))
    arcs = {(u, v) for u in verts for v in verts
            if u != v and rng.random() < p}
    return Digraph(frozenset(verts), frozenset(arcs))


def test_outdeg3_gadget_shape():
    d = Digraph(frozenset(range(6)), frozenset((0, v) for v in range(1, 6)))
    out = reduce_dichromatic_to_outdeg3(d)
    tree_nodes = {v for v in out.vertices
                  if isinstance(v, str) and ":t" in v}
    assert len(tree_nodes) == 5 - 2
    degs = {}
    for u, w in out.arcs:
        degs[u] = degs.get(u, 0) + 1
    assert max(degs.values()) <= 3
    low = Digraph(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2)}))
    assert reduce_dichromatic_to_outdeg3(low) == low


def test_outdeg3_preserves_dicolorability():
    rng = random.Random(29)
    for _ in range(6):
        d = _rand_digraph(rng, 4, 0.5)
        out = reduce_dichromatic_to_outdeg3(d)
        assert (two_dicolorable(d) is not None) == \
            (two_dicolorable(out) is not None)


def test_outdeg3_to_2cat_cases():
    d = Digraph(frozenset({"u", "v", "w", "x", "y"}),
                frozenset({("u", "v"),
                           ("v", "w"), ("v", "x"),
                           ("w", "x"), ("w", "y"), ("w", "u")}))
    r = reduce_outdeg3_to_2cat(d)
    assert triplet("v", "g:2cat:u:dummy", "u") in r
    assert triplet("w", "x", "v") in r
    assert {triplet("x", "y", "w"), triplet("u", "x", "w"),
            triplet("u", "y", "w")} <= r
    assert len(r) == 1 + 1 + 3
    too_big = Digraph(frozenset(range(5)),
                      frozenset((0, v) for v in range(1, 5)))
    with pytest.raises(ValueError):
        reduce_outdeg3_to_2cat(too_big)


def test_outdeg3_to_2cat_preserves_decision():
    rng = random.Random(31)
    done = 0
    while done < 8:
        d = _rand_digraph(rng, 4, 0.4)
        if any(len([a for a in d.arcs if a[0] == v]) > 3 for v in d.vertices):
            continue
        done += 1
        r = reduce_outdeg3_to_2cat(d)
        compat = k_tree_compatible(r, 2, caterpillars_only=True)
        assert (two_dicolorable(d) is not None) == (compat is not None)


def test_registry():
    assert len(REDUCTIONS) == 10
    assert REDUCTIONS["1pi5_to_2pi0"].lift_forward is not None
    assert REDUCTIONS["dichromatic_to_outdeg3"].lift_forward is None
