"""End-to-end acceptance battery.

Ten independent checks covering the gadget uniqueness lemmas, the tree
triple, the covering-number table and bounds, the separating example, the
always-satisfiable families, reduction equisatisfiability, the phylogeny
oracles, the compatibility reductions end to end, and the missing-triplet
certificate.  Each check prints one live ``criterion N ... PASS/FAIL``
line so a long run stays legible.
"""

import random
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

import pytest

from triord.extremal import (
    find_missing_triplet, full_triplet_set, greedy_caterpillar_cover,
    log_upper_bound, rootings_of, tau, unroot,
)
from triord.gadgets import (
    PI5_GADGET, PI6_GADGET, PI9_GADGET, derive_caterpillar_triple,
    gadget_triplet_union, verify_tree_uniqueness, verify_uniqueness,
)
from triord.orderings import LinearOrdering, make_instance, ordering
from triord.phylo import (
    RootedTree, aho_build, caterpillar_compatible, cherries, displayed_triplets,
    displays, enumerate_caterpillars, enumerate_trees, is_acyclic,
    is_caterpillar, Digraph, k_tree_compatible, triplet, triplet_digraph,
)
from triord.reductions import (
    REDUCTIONS, lift_2cat_backward, lift_2cat_forward,
)
from triord.solver import (
    Solution, check_solution, exhaustive, solve, trivial_pair_solution,
)


@pytest.fixture
def report(capfd):
    @contextmanager
    def _report(num, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num:2d} ({label}): FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"criterion {num:2d} ({label}): PASS", flush=True)

    return _report


# ---------------------------------------------------------------------------
# 1. Ordering gadget uniqueness


def test_criterion_01_ordering_gadgets(report):
    with report(1, "ordering gadget uniqueness"):
        r5 = verify_uniqueness(list(PI5_GADGET), 5, 2)
        assert r5.unique and r5.symmetry == "per_order_reversal"
        assert len(r5.found) == 4  # the reversal closure of the generators
        assert r5.raw_ordered_count == 8

        r6 = verify_uniqueness(list(PI6_GADGET), 6, 2)
        assert r6.unique and r6.symmetry == "none"
        assert len(r6.found) == 1

        r9 = verify_uniqueness(list(PI9_GADGET), 9, 2)
        assert r9.unique and r9.symmetry == "per_order_reversal"


# ---------------------------------------------------------------------------
# 2. The caterpillar-triple tree gadget


def test_criterion_02_tree_triple(report):
    with report(2, "tree-triple gadget"):
        triple, orderings = derive_caterpillar_triple()
        c1, c2, c3 = triple
        # structure of the qualifying triple
        for t, root_child in zip(triple, (5, 1, 0)):
            assert is_caterpillar(t)
            assert [s for s in t.shape if not isinstance(s, tuple)] \
                == [root_child]
        assert frozenset({0, 1}) in cherries(c1)
        assert frozenset({0, 5}) in cherries(c2)
        assert len(gadget_triplet_union(triple)) == 57
        # only slot-permutations of the triple cover its triplet union
        rep = verify_tree_uniqueness(triple)
        assert rep.unique
        assert len(orderings) == 3
        assert all(isinstance(o, LinearOrdering) for o in orderings)


# ---------------------------------------------------------------------------
# 3. Exact covering numbers


def test_criterion_03_tau_table(report):
    with report(3, "tau table"):
        for n, value in ((3, 3), (4, 3), (5, 4)):
            assert tau(n).value == value
            assert tau(n, caterpillar_mode=True).value == value
        # stretch goals
        assert tau(6).value == 4
        assert tau(6, caterpillar_mode=True).value == 4
        assert tau(7).value == 4


# ---------------------------------------------------------------------------
# 4. Log bound and greedy caterpillar cover


def test_criterion_04_log_bound_and_greedy(report):
    with report(4, "log bound and greedy cover"):
        assert [log_upper_bound(n) for n in range(3, 13)] == \
            [3, 7, 9, 11, 12, 13, 14, 15, 16, 17]
        for n in range(3, 9):
            full = full_triplet_set(n)
            cover = greedy_caterpillar_cover(full)
            assert len(cover) <= log_upper_bound(n)
            remaining = set(full)
            for cat in cover:
                assert is_caterpillar(cat)
                hit = {t for t in remaining if displays(cat, t)}
                assert 3 * len(hit) >= len(remaining)  # >= 1/3 per round
                remaining -= hit
            assert not remaining


# ---------------------------------------------------------------------------
# 5. Trees versus caterpillars separating example


def test_criterion_05_separating_example(report):
    with report(5, "separating example"):
        r = [triplet(1, 3, 4), triplet(1, 4, 2), triplet(1, 4, 3),
             triplet(2, 3, 1), triplet(2, 4, 1)]
        assert k_tree_compatible(r, 2) is not None
        assert k_tree_compatible(r, 2, caterpillars_only=True) is None
        assert k_tree_compatible(r, 3, caterpillars_only=True) is not None


# ---------------------------------------------------------------------------
# 6. Always-satisfiable two-order families


def test_criterion_06_trivial_families(report):
    with report(6, "trivial two-order families"):
        rng = random.Random(61)
        for i in (2, 3, 7, 8, 10):
            for _ in range(200):
                m = rng.randint(3, 8)
                vars_ = list(range(m))
                cs = {tuple(rng.sample(vars_, 3))
                      for _ in range(rng.randint(1, 30))}
                inst = make_instance(i, 2, vars_, sorted(cs))
                alpha = ordering(*rng.sample(vars_, m))
                sol = trivial_pair_solution(inst, alpha)
                assert check_solution(inst, sol)


# ---------------------------------------------------------------------------
# 7. Reduction equisatisfiability


def _all_sources(pi_index, k):
    """Every instance with |V| in {3, 4} and up to two constraints."""
    for nv in (3, 4):
        vars_ = list(range(nv))
        triples = [c for c in product(vars_, repeat=3) if len(set(c)) == 3]
        pools = [[]] + [[c] for c in triples] + \
            [list(p) for p in combinations(triples, 2)]
        for cs in pools:
            yield make_instance(pi_index, k, vars_, cs)


def _rand_satisfiable(rng, pi_index, k, nv, nc):
    from triord.orderings import implied_constraints, pi_family
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


def _all_digraphs(n):
    verts = list(range(n))
    pairs = [(u, v) for u in verts for v in verts if u != v]
    for bits in range(1 << len(pairs)):
        arcs = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        yield Digraph(frozenset(verts), arcs)


def test_criterion_07_reduction_equisatisfiability(report):
    with report(7, "reduction equisatisfiability"):
        ordering_reductions = (
            ("1pi5_to_2pi0", 5, 1), ("2pi0_to_2pi1", 0, 2),
            ("1pi9_to_2pi4", 9, 1), ("1pi5_to_2pi5", 5, 1),
            ("2pi1_to_2pi6", 1, 2), ("1pi5_to_2pi9", 5, 1),
        )
        for name, pi_index, k in ordering_reductions:
            red = REDUCTIONS[name]
            for src in _all_sources(pi_index, k):
                src_sat = bool(exhaustive(src))
                tgt = red.transform(src)
                tgt_sol = solve(tgt)
                assert (tgt_sol is not None) == src_sat, (name, src)
                if src_sat:  # the target's solution lifts back
                    assert check_solution(
                        src, red.lift_backward(src, tgt_sol)), (name, src)
                if name == "1pi5_to_2pi9" and len(tgt.vars) == 7:
                    # independent full-scan confirmation on 7!^2 pairs
                    assert bool(exhaustive(tgt)) == src_sat
            # constructive lift soundness on satisfiable sources
            rng = random.Random(71)
            for _ in range(200):
                src, sol = _rand_satisfiable(rng, pi_index, k,
                                             rng.randint(3, 5),
                                             rng.randint(1, 4))
                lifted = red.lift_forward(src, sol)
                assert check_solution(red.transform(src), lifted)

        # digraph reductions carry no lift maps; equisatisfiability is
        # checked exhaustively over every labeled digraph on 3 and 4 nodes
        from triord.phylo import two_dicolorable
        outdeg3 = REDUCTIONS["dichromatic_to_outdeg3"]
        to2cat = REDUCTIONS["outdeg3_to_2cat"]
        assert outdeg3.lift_forward is None and to2cat.lift_forward is None
        for n in (3, 4):
            for d in _all_digraphs(n):
                colorable = two_dicolorable(d) is not None
                out = outdeg3.transform(d)
                assert (two_dicolorable(out) is not None) == colorable, d
                trips = to2cat.transform(d)
                pair = k_tree_compatible(trips, 2, caterpillars_only=True)
                assert (pair is not None) == colorable, d


# ---------------------------------------------------------------------------
# 8. Phylogeny oracles


def test_criterion_08_phylo_oracles(report):
    with report(8, "phylogeny oracles"):
        labels = (1, 2, 3, 4, 5)
        all_trips = sorted(full_triplet_set(5))
        idx = {t: i for i, t in enumerate(all_trips)}
        tree_masks = [sum(1 << idx[t] for t in displayed_triplets(tr))
                      for tr in enumerate_trees(labels)]
        cat_masks = [sum(1 << idx[t] for t in displayed_triplets(tr))
                     for tr in enumerate_caterpillars(labels)]
        for size in range(5):
            for sub in combinations(all_trips, size):
                mask = sum(1 << idx[t] for t in sub)
                tree = aho_build(sub, labels=labels)
                brute_tree = any(m & mask == mask for m in tree_masks)
                assert (tree is not None) == brute_tree, sub
                if tree is not None:
                    assert all(displays(tree, t) for t in sub)
                cat = caterpillar_compatible(sub, labels=labels)
                brute_cat = any(m & mask == mask for m in cat_masks)
                assert (cat is not None) == brute_cat, sub
                assert is_acyclic(triplet_digraph(sub)) == brute_cat, sub
                if cat is not None:
                    assert is_caterpillar(cat)
                    assert all(displays(cat, t) for t in sub)


# ---------------------------------------------------------------------------
# 9. Compatibility reductions end to end


def _sample_source(rng):
    pool = rng.sample(["x", "y", "z", "w"], rng.randint(3, 4))
    out = set()
    for _ in range(rng.randint(1, 3)):
        a, b, c = rng.sample(pool, 3)
        out.add(triplet(a, b, c))
    return out


def test_criterion_09_compat_reductions_end_to_end(report):
    with report(9, "compatibility reductions end to end"):
        rng = random.Random(91)
        compat, incompat = [], []
        while len(compat) < 20 or len(incompat) < 20:
            src = _sample_source(rng)
            if k_tree_compatible(src, 2, caterpillars_only=True) is not None:
                if len(compat) < 20:
                    compat.append(src)
            elif len(incompat) < 20:
                incompat.append(src)
        for src in compat + incompat:
            expected = src in compat
            for name, cat in (("2cat_to_3cat", True), ("2cat_to_3tree", False)):
                red = REDUCTIONS[name]
                tgt = red.transform(src)
                got = k_tree_compatible(tgt, 3, caterpillars_only=cat)
                assert (got is not None) == expected, (name, src)
            if not expected:
                continue
            cats = k_tree_compatible(src, 2, caterpillars_only=True)
            while len(cats) < 2:
                cats.append(cats[0])
            for name, prefix in (("2cat_to_3cat", "3cat"),
                                 ("2cat_to_3tree", "3tree")):
                tgt = REDUCTIONS[name].transform(src)
                trees = lift_2cat_forward(src, cats[:2], prefix)
                for r in tgt:
                    assert any(set(r) <= t.leaves and displays(t, r)
                               for t in trees), (name, r)
                # flattening the lifted trees recovers a two-caterpillar
                # source solution
                back = lift_2cat_backward(src, list(trees))
                assert len(back) == 2
                assert all(is_caterpillar(t) for t in back)
                for r in src:
                    assert any(set(r) <= t.leaves and displays(t, r)
                               for t in back), (name, r)


# ---------------------------------------------------------------------------
# 10. Missing-triplet certificate


def _random_rooted(labels, rng):
    from triord.phylo import _insertions
    labels = list(labels)
    shape = labels[0]
    for x in labels[1:]:
        shape = rng.choice(list(_insertions(shape, x)))
    return RootedTree(shape)


def test_criterion_10_missing_triplet(report):
    with report(10, "missing-triplet certificate"):
        rng = random.Random(101)
        done = 0
        while done < 100:
            n = rng.randrange(6, 13)
            k = rng.randrange(1, 5)
            if n <= k * k - 6:
                continue
            done += 1
            t = unroot(_random_rooted(range(1, n + 1), rng))
            rts = rng.sample(rootings_of(t), k)
            trip = find_missing_triplet(t, rts)
            assert trip is not None
            assert all(not displays(r.tree, trip) for r in rts)
