"""Covering the full triplet set with few trees.

The exact tau search is validated against a brute-force cover search over
enumerated trees (an oracle that never touches the 0/1 model), the closure
constraints against the enumerated displayed sets, and the missing-triplet
certificate against a full scan.
"""

from itertools import combinations, permutations, product
from math import comb
import random

import pytest

from triord import extremal
from triord.extremal import (
    Rooting, UnrootedTree, find_missing_triplet,
    full_triplet_set, greedy_caterpillar_cover, log_upper_bound,
    root_location, rootings_of, tau, tau_cnf, tau_decision, unroot,
)
from triord.phylo import (
    caterpillar_of, cherries, displayed_triplets, displays,
    enumerate_caterpillars, enumerate_trees, is_caterpillar, join, leaf,
    triplet,
)
from triord.solver import _PairOrderCnf


def brute_cover_exists(n, k, caterpillars_only):
    """Can k enumerated trees jointly display T_n?  Never uses the model."""
    enum = enumerate_caterpillars if caterpillars_only else enumerate_trees
    trees = enum(range(1, n + 1))
    idx = {t: i for i, t in enumerate(sorted(full_triplet_set(n)))}
    masks = [sum(1 << idx[t] for t in displayed_triplets(tr))
             for tr in trees]
    full = (1 << len(idx)) - 1
    per_tree = comb(n, 3)

    def rec(start, acc, slots):
        if acc == full:
            return True
        if (full & ~acc).bit_count() > slots * per_tree:
            return False
        return any(rec(i, acc | masks[i], slots - 1)
                   for i in range(start, len(masks)))

    return rec(0, 0, k)


def brute_missing(t, rootings):
    """A triplet over t's leaves that no rooting displays, by a full scan."""
    shown = set()
    for r in rootings:
        shown |= displayed_triplets(r.tree)
    return next(iter(full_triplet_set(len(t.leaves)) - shown), None)


def random_rooted(labels, rng):
    from triord.phylo import RootedTree, _insertions
    labels = list(labels)
    shape = labels[0]
    for x in labels[1:]:
        shape = rng.choice(list(_insertions(shape, x)))
    return RootedTree(shape)


# ---------------------------------------------------------------------------
# The full triplet set


def test_full_triplet_set():
    assert full_triplet_set(3) == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    for n in range(3, 8):
        s = full_triplet_set(n)
        assert len(s) == 3 * comb(n, 3)
    assert len(full_triplet_set(5)) == 30
    with pytest.raises(ValueError):
        full_triplet_set(2)


# ---------------------------------------------------------------------------
# Exact tau


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("cat", [False, True])
def test_tau_decision_against_tree_space(n, cat):
    for k in range(1, 5):
        d = tau_decision(n, k, caterpillar_mode=cat)
        assert d.answer == brute_cover_exists(n, k, cat)


def test_caterpillar_slot_pin_loses_no_cover():
    # the caterpillar-mode formula pins slot 0 to 1 < 2 < ... < n; its
    # verdict is the unpinned Pi1 formula's, whose own pin puts the first
    # constraint, (1, 2, 3), in slot 0
    for n in range(3, 9):
        for k in range(1, 5):
            inst = tau_cnf(n, k, caterpillar_mode=True).inst
            assert inst.constraints[0] == (1, 2, 3)
            plain = _PairOrderCnf(inst).next(None) is not None
            assert tau_decision(n, k, caterpillar_mode=True).answer == plain


def test_caterpillar_witness_is_checked_against_t_n(monkeypatch):
    # every order read as one and the same caterpillar shows a third of T_4
    one = caterpillar_of((4, 3, 2, 1))
    monkeypatch.setattr(extremal, "caterpillar_of", lambda seq: one)
    with pytest.raises(RuntimeError, match="T_n"):
        tau_decision(4, 3, caterpillar_mode=True)


def test_tau_table_small():
    assert tau(3).value == 3
    assert tau(4).value == 3
    assert tau(5).value == 4
    assert tau(3, caterpillar_mode=True).value == 3
    assert tau(4, caterpillar_mode=True).value == 3
    assert tau(5, caterpillar_mode=True).value == 4


@pytest.mark.parametrize("n,cat", [(4, False), (5, False), (5, True)])
def test_tau_witness_validity(n, cat):
    b = tau(n, caterpillar_mode=cat)
    displayed = set()
    for t in b.witnesses:
        assert t.leaves == set(range(1, n + 1))
        if cat:
            assert is_caterpillar(t)
        displayed |= displayed_triplets(t)
    assert displayed == full_triplet_set(n)


def test_tau_ordering_invariants():
    for n in (3, 4, 5, 6):
        plain = tau(n).value
        cat = tau(n, caterpillar_mode=True).value
        assert plain <= cat <= log_upper_bound(n)


@pytest.mark.parametrize("cat", [False, True])
def test_tau_8(cat):
    # restricting a cover of T_8 to five leaves covers T_5, so
    # tau(8) >= tau(5) = 4; four trees (caterpillars) suffice
    b = tau(8, caterpillar_mode=cat)
    assert b.value == 4 and len(b.witnesses) == 4
    displayed = set()
    for t in b.witnesses:
        assert t.leaves == set(range(1, 9))
        if cat:
            assert is_caterpillar(t)
        displayed |= displayed_triplets(t)
    assert displayed == full_triplet_set(8)


def test_closure_constraints_characterize_trees():
    # an orientation per leaf triple satisfies the four-leaf closure iff
    # it is the displayed set of some tree
    for n in (4, 5):
        combos = list(combinations(range(1, n + 1), 3))
        tree_sets = {displayed_triplets(t)
                     for t in enumerate_trees(range(1, n + 1))}
        closed = 0
        for choice in product(range(3), repeat=len(combos)):
            picked = set()
            for (a, b, c), o in zip(combos, choice):
                picked.add(((a, b, c), (a, c, b), (b, c, a))[o])
            ok = all(
                not ({triplet(a, b, c), triplet(b, c, d)} <= picked)
                or {triplet(a, b, d), triplet(a, c, d)} <= picked
                for quad in combinations(range(1, n + 1), 4)
                for a, b, c, d in permutations(quad))
            closed += ok
            assert ok == (frozenset(picked) in tree_sets)
        assert closed == len(tree_sets)


def test_tau_decision_budget():
    d = tau_decision(6, 4, node_limit=3)
    assert d.answer is None
    b = tau(6, node_limit=3)
    assert b.value is None and not b.exact
    assert b.lower_bound >= 1


def test_tau_decision_budget_counts_analysed_conflicts():
    # deciding tau(6) <= 4 takes 11 conflicts: a budget of 11 is enough
    assert tau_decision(6, 4).nodes == 11
    assert tau_decision(6, 4, node_limit=11).answer is True
    d = tau_decision(6, 4, node_limit=10)
    assert d.answer is None and d.nodes == 10
    assert tau_decision(6, 4, node_limit=0).nodes == 0


def test_tau_decision_rejects_bad_input():
    with pytest.raises(ValueError):
        tau_decision(2, 1)
    with pytest.raises(ValueError):
        tau_decision(4, 0)


# ---------------------------------------------------------------------------
# Log bound and greedy cover


def test_log_upper_bound_values():
    assert [log_upper_bound(n) for n in range(3, 13)] == \
        [3, 7, 9, 11, 12, 13, 14, 15, 16, 17]
    with pytest.raises(ValueError):
        log_upper_bound(2)


def test_greedy_cover_single_triplet():
    cover = greedy_caterpillar_cover([triplet(1, 2, 3)])
    assert len(cover) == 1
    assert displays(cover[0], triplet(1, 2, 3))


def test_greedy_cover_full_sets():
    for n in range(3, 9):
        cover = greedy_caterpillar_cover(full_triplet_set(n))
        assert len(cover) <= log_upper_bound(n)
        remaining = set(full_triplet_set(n))
        for cat in cover:
            assert is_caterpillar(cat)
            remaining -= {t for t in remaining if displays(cat, t)}
        assert not remaining


def test_greedy_cover_random_sets():
    rng = random.Random(7)
    labels = list(range(1, 9))
    for _ in range(20):
        trips = set()
        while len(trips) < 12:
            a, b, c = rng.sample(labels, 3)
            trips.add(triplet(a, b, c))
        cover = greedy_caterpillar_cover(trips)
        assert all(any(displays(cat, t) for cat in cover) for t in trips)


# ---------------------------------------------------------------------------
# Unrooted trees and rootings


def test_unrooted_tree_validation():
    star = UnrootedTree([("x", 1), ("x", 2), ("x", 3)])
    assert star.leaves == {1, 2, 3} and star.order == 3
    with pytest.raises(ValueError):
        UnrootedTree([("x", 1), ("x", 2)])  # degree-2 vertex
    with pytest.raises(ValueError):
        UnrootedTree([(1, 2), (3, 4)])  # disconnected
    with pytest.raises(ValueError):
        UnrootedTree([])


def test_rootings_of_star():
    star = UnrootedTree([("x", 1), ("x", 2), ("x", 3)])
    rts = rootings_of(star)
    assert len(rts) == 3
    for r in rts:
        assert isinstance(r, Rooting)
        assert len(displayed_triplets(r.tree)) == comb(3, 3)
    assert {r.tree for r in rts} == \
        {join(leaf(a), join(leaf(b), leaf(c)))
         for a, b, c in [(1, 2, 3), (2, 1, 3), (3, 1, 2)]}


def test_rootings_counts_and_locations():
    rng = random.Random(3)
    for n in (4, 5, 6, 8):
        t = unroot(random_rooted(range(1, n + 1), rng))
        rts = rootings_of(t)
        assert len(rts) == 2 * n - 3
        for r in rts:
            assert len(displayed_triplets(r.tree)) == comb(n, 3)
            assert root_location(t, r.tree) == r.edge


def test_unroot_identifies_rooted_cousins():
    # trees differing only in root placement have the same unrooted shape
    t1 = join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4)))
    t2 = join(leaf(1), join(leaf(2), join(leaf(3), leaf(4))))
    assert unroot(t1) == unroot(t2)
    assert t1 in {r.tree for r in rootings_of(unroot(t1))}


# ---------------------------------------------------------------------------
# The missing-triplet certificate


def test_missing_triplet_single_rooting():
    t = unroot(join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4))))
    r = rootings_of(t)[:1]
    trip = find_missing_triplet(t, r)
    assert trip is not None
    assert not displays(r[0].tree, trip)
    assert brute_missing(t, r) is not None


def test_missing_triplet_constructive_verified_by_scan():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(6, 13)
        k = rng.randrange(1, 5)
        if n <= k * k - 6:
            continue
        t = unroot(random_rooted(range(1, n + 1), rng))
        rts = rng.sample(rootings_of(t), k)
        trip = find_missing_triplet(t, rts)
        assert trip is not None  # guaranteed since n > k^2 - 6
        assert all(not displays(r.tree, trip) for r in rts)


def test_missing_triplet_methods_agree_on_existence():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(4, 8)
        t = unroot(random_rooted(range(1, n + 1), rng))
        rts = rootings_of(t)
        k = rng.randrange(1, len(rts) + 1)
        sub = rng.sample(rts, k)
        brute = brute_missing(t, sub)
        cons = find_missing_triplet(t, sub)
        if cons is not None:
            assert all(not displays(r.tree, cons) for r in sub)
            assert brute is not None
        assert (cons is None) == (brute is None)


def test_missing_triplet_none_when_everything_covered():
    t = unroot(join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4))))
    rts = rootings_of(t)
    covered = set()
    for r in rts:
        covered |= displayed_triplets(r.tree)
    if covered == full_triplet_set(4):
        assert find_missing_triplet(t, rts) is None


def test_missing_triplet_rejects_mismatched_rooting():
    t = unroot(join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4))))
    with pytest.raises(ValueError):
        find_missing_triplet(t, [join(leaf(1), join(leaf(2), leaf(3)))])
    other = unroot(join(join(leaf(1), leaf(3)), join(leaf(2), leaf(4))))
    with pytest.raises(ValueError):
        find_missing_triplet(t, rootings_of(other)[:1])


def test_missing_triplet_exact_on_every_small_tree():
    # every unrooted tree on 3-5 leaves (each is its rooted tree on the
    # other leaves with leaf n hung at the root) and every set of its
    # rootings: None exactly when every leaf edge carries a root, and
    # exactly when a full scan finds every triplet displayed
    for n in (3, 4, 5):
        for rest in enumerate_trees(range(1, n)):
            t = unroot(join(rest, leaf(n)))
            rts = rootings_of(t)
            leaf_edges = {e for e in t.edges() if e & t.leaves}
            for mask in range(1 << len(rts)):
                sub = [r for i, r in enumerate(rts) if mask >> i & 1]
                trip = find_missing_triplet(t, sub)
                assert (trip is None) == (leaf_edges <= {r.edge for r in sub})
                assert (trip is None) == (brute_missing(t, sub) is None)
                if trip is not None:
                    assert all(not displays(r.tree, trip) for r in sub)
    two = UnrootedTree([(1, 2)])
    assert find_missing_triplet(two, []) is None
    assert find_missing_triplet(two, rootings_of(two)) is None
