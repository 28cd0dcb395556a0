"""Tree/triplet tests: display semantics, BUILD against the enumeration
oracle, the caterpillar/digraph equivalence, and serialization."""

from collections import Counter
from itertools import (
    combinations, combinations_with_replacement, permutations, product,
)
import hashlib
from math import comb, factorial
import random

import pytest
from hypothesis import given, settings, strategies as st

from triord import phylo
from triord.orderings import (
    make_instance, ordering, pi_family, reversal, satisfies, var_key,
)
from triord.phylo import (
    Digraph, RootedTree, aho_build, caterpillar_compatible, caterpillar_of,
    cherries, displayed_triplets, displays, enumerate_caterpillars,
    enumerate_trees, format_triplets, four_leaf_closure, is_acyclic,
    is_caterpillar, join, k_tree_compatible, lca, leaf, ordering_of,
    parse_dot, parse_newick, parse_triplets, restrict_tree, to_dot,
    to_newick, triplet, triplet_digraph, triplet_labels, two_dicolorable,
)
from triord.extremal import full_triplet_set
from triord.reductions import reduce_outdeg3_to_2cat
from triord.solver import BudgetExceeded, solve


def all_triplet_sets(labels, max_size):
    """Every set of <= max_size canonical triplets over the labels."""
    pool = [triplet(a, b, c)
            for a, b, c in permutations(labels, 3) if a < b]
    for size in range(max_size + 1):
        yield from (frozenset(s) for s in combinations(pool, size))


# ---------------------------------------------------------------------------
# Basic structure


def test_tree_canonical_equality():
    t1 = join(join(leaf(1), leaf(2)), leaf(3))
    t2 = join(leaf(3), join(leaf(2), leaf(1)))
    assert t1 == t2
    assert hash(t1) == hash(t2)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        join(leaf(1), leaf(1))


def test_lca():
    cat = caterpillar_of((4, 3, 2, 1))  # cherry {3,4}, leaf 1 at top
    assert lca(cat, 3, 4) == frozenset({3, 4})
    assert lca(cat, 1, 4) == frozenset({1, 2, 3, 4})
    assert lca(cat, 2, 2) == frozenset({2})
    with pytest.raises(ValueError):
        lca(cat, 1, 9)


def test_displays_figure_example():
    # the 3-leaf tree with cherry {0,1} below witness 2
    t = join(join(leaf(0), leaf(1)), leaf(2))
    assert displays(t, triplet(0, 1, 2))
    assert not displays(t, triplet(0, 2, 1))


def test_caterpillar_display_rule():
    # caterpillar displays xy|z iff z is above both x and y on the spine
    for n in (4, 5, 6):
        topdown = list(range(1, n + 1))
        cat = caterpillar_of(topdown[::-1])
        for x, y, z in permutations(topdown, 3):
            if x < y:
                assert displays(cat, (x, y, z)) == (z < x and z < y)


def test_displayed_triplet_count():
    rng = random.Random(3)
    for n in (3, 4, 5, 6):
        trees = enumerate_trees(range(n))
        for t in rng.sample(trees, min(10, len(trees))):
            assert len(displayed_triplets(t)) == comb(n, 3)


def test_triplet_trichotomy():
    for t in enumerate_trees(range(5)):
        for a, b, c in combinations(range(5), 3):
            displayed = [displays(t, r) for r in
                         (triplet(a, b, c), triplet(a, c, b), triplet(b, c, a))]
            assert sum(displayed) == 1


def test_restrict_tree():
    cat6 = caterpillar_of((6, 5, 4, 3, 2, 1))
    small = restrict_tree(cat6, {2, 4, 5})
    assert small == join(join(leaf(4), leaf(5)), leaf(2))
    assert restrict_tree(cat6, cat6.leaves) == cat6
    with pytest.raises(ValueError):
        restrict_tree(cat6, {1})


def test_restrict_commutes_with_displays():
    rng = random.Random(11)
    trees = enumerate_trees(range(6))
    for t in rng.sample(trees, 25):
        for a, b, c in combinations(sorted(t.leaves), 3):
            r = triplet(a, b, c)
            assert displays(t, r) == displays(restrict_tree(t, {a, b, c}), r)


# ---------------------------------------------------------------------------
# Cherries and caterpillars


def test_cherries():
    balanced = join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4)))
    assert cherries(balanced) == [frozenset({1, 2}), frozenset({3, 4})]
    assert not is_caterpillar(balanced)
    cat = caterpillar_of((4, 3, 2, 1))
    assert cherries(cat) == [frozenset({3, 4})]
    assert is_caterpillar(cat)
    for t in enumerate_trees(range(5)):
        assert len(cherries(t)) >= 1


def test_ordering_round_trip():
    # deepest-first: caterpillar with top-down spine 1..n <-> (n, ..., 1)
    cat = caterpillar_of((5, 4, 3, 2, 1))
    assert ordering_of(cat) == ordering(4, 5, 3, 2, 1)  # cherry tie: 4 first
    for alpha in permutations(range(4)):
        cat = caterpillar_of(alpha)
        assert caterpillar_of(ordering_of(cat)) == cat
    with pytest.raises(ValueError):
        ordering_of(join(join(leaf(1), leaf(2)), join(leaf(3), leaf(4))))


def test_pi1_caterpillar_correspondence():
    # alpha Pi1-satisfies (a,b,c) iff the caterpillar whose *top* leaf is
    # alpha's first element displays bc|a; with the deepest-first reading
    # of caterpillar_of that tree is caterpillar_of(reversal(alpha)).
    pi1 = pi_family(1)
    for n in (3, 4, 5):
        for seq in permutations(range(n)):
            alpha = ordering(*seq)
            cat = caterpillar_of(reversal(alpha))
            for a, b, c in permutations(range(n), 3):
                assert satisfies(pi1, alpha, (a, b, c)) == \
                    displays(cat, triplet(b, c, a))


def test_pi1_k_caterpillar_correspondence():
    # k caterpillars display a triplet set iff the Pi1 instance with one
    # constraint (c, a, b) per triplet ab|c has k orders, and the reversal
    # of each order is a caterpillar of such a cover
    rng = random.Random(5)
    compatible = Counter()
    for _ in range(300):
        labels = range(rng.randint(3, 5))
        pool = [triplet(a, b, c)
                for a, b, c in permutations(labels, 3) if a < b]
        r = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        for k in (1, 2, 3):
            cats = k_tree_compatible(r, k, caterpillars_only=True)
            sol = solve(make_instance(1, k, labels,
                                      [(c, a, b) for a, b, c in r]))
            assert (cats is None) == (sol is None), (r, k)
            compatible[cats is not None] += 1
            if sol is not None:
                cover = [caterpillar_of(o.seq[::-1]) for o in sol.orderings]
                assert all(any(displays(t, x) for t in cover) for x in r)
    assert min(compatible.values()) > 100, compatible


def test_enumerate_trees_counts():
    assert len(enumerate_trees(range(3))) == 3
    assert len(enumerate_trees(range(4))) == 15
    assert len(enumerate_trees(range(6))) == 945
    assert len(set(enumerate_trees(range(5)))) == 105
    with pytest.raises(ValueError):
        enumerate_trees(range(9))


@pytest.mark.parametrize("n", range(2, 7))
def test_enumerate_caterpillars(n):
    # n!/2 members, pairwise distinct: the cherry-order filter alone
    # yields each caterpillar once
    cats = enumerate_caterpillars(range(n))
    assert len(cats) == factorial(n) // 2
    assert len(set(cats)) == len(cats)
    assert all(is_caterpillar(c) for c in cats)


# ---------------------------------------------------------------------------
# BUILD and compatibility


def test_aho_examples():
    t = aho_build({triplet("a", "b", "c")})
    assert displays(t, triplet("a", "b", "c"))
    assert aho_build({triplet("a", "b", "c"), triplet("b", "c", "a")}) is None


def test_aho_respects_label_universe():
    t = aho_build({triplet(1, 2, 3)}, labels={1, 2, 3, 4})
    assert t.leaves == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        aho_build({triplet(1, 2, 3)}, labels={1, 2})


def test_aho_against_enumeration_oracle():
    trees = enumerate_trees(range(4))
    for ts in all_triplet_sets(range(4), 3):
        built = aho_build(ts, labels=range(4))
        brute = any(all(displays(t, r) for r in ts) for t in trees)
        assert (built is not None) == brute, ts
        if built is not None:
            assert all(displays(built, r) for r in ts)


def build_by_recursion(triplets, labels):
    """BUILD as it was written first, one recursive call per level of
    components, and joining RootedTrees as it goes."""
    if len(labels) == 1:
        (x,) = labels
        return leaf(x)
    if len(labels) == 2:
        x, y = sorted(labels, key=var_key)
        return join(leaf(x), leaf(y))
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    relevant = [t for t in triplets if set(t) <= labels]
    for a, b, _ in relevant:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for x in labels:
        comps.setdefault(find(x), set()).add(x)
    if len(comps) == 1:
        return None
    subtrees = []
    for comp in sorted(comps.values(),
                       key=lambda c: var_key(min(c, key=var_key))):
        inside = frozenset(t for t in relevant if set(t) <= comp)
        sub = build_by_recursion(inside, frozenset(comp))
        if sub is None:
            return None
        subtrees.append(sub)
    tree = subtrees[0]
    for sub in subtrees[1:]:
        tree = join(tree, sub)
    return tree


def test_build_loop_matches_the_recursion():
    # criterion 8's space: the same tree, or None, for every set of at
    # most four triplets over five labels, all five in the universe
    labels = frozenset(range(1, 6))
    for ts in all_triplet_sets(sorted(labels), 4):
        built = aho_build(ts, labels=labels)
        assert built == build_by_recursion(ts, labels), ts
    # a universe wider than the triplets' labels, with mixed label types
    ts = {triplet("a", 2, "c"), triplet(1, "c", "d")}
    wide = frozenset(["a", "c", "d", 1, 2, "e", 7])
    assert aho_build(ts, labels=wide) == build_by_recursion(ts, wide)


def test_build_on_a_chain_deeper_than_the_recursion_limit():
    # each level of x0 x1|x2, x1 x2|x3, ... splits off one label, so the
    # components nest 1,199 deep
    chain = [triplet(f"x{i}", f"x{i + 1}", f"x{i + 2}") for i in range(1198)]
    tree = aho_build(chain)
    assert len(tree.leaves) == 1200
    assert all(displays(tree, r) for r in chain)


def test_triplet_digraph():
    d = triplet_digraph({triplet("a", "b", "c")})
    assert d.arcs == {("c", "a"), ("c", "b")}
    assert triplet_digraph(frozenset()).arcs == frozenset()
    d2 = triplet_digraph({triplet("a", "b", "c"), triplet("a", "c", "b")})
    assert d2.arcs == {("c", "a"), ("c", "b"), ("b", "a"), ("b", "c")}
    assert not is_acyclic(d2)


def test_caterpillar_compatible_checks_its_witness(monkeypatch):
    import triord.phylo as phylo
    # built from the reversed leaf order, the caterpillar's cherry holds
    # the witness 2, so it does not display 01|2
    monkeypatch.setattr(phylo, "caterpillar_of",
                        lambda seq: caterpillar_of(seq[::-1]))
    with pytest.raises(RuntimeError):
        caterpillar_compatible([triplet(0, 1, 2)])


def topological_order_by_resorting(d):
    """Kahn's loop as it was written first: the ready list re-sorted by
    var_key after every pop that readies a vertex."""
    indeg = {v: 0 for v in d.vertices}
    for _, v in d.arcs:
        indeg[v] += 1
    succ = {v: [] for v in d.vertices}
    for u, v in d.arcs:
        succ[u].append(v)
    ready = sorted((v for v, deg in indeg.items() if deg == 0), key=var_key)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        inserted = False
        for v in sorted(succ[u], key=var_key):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
                inserted = True
        if inserted:
            ready.sort(key=var_key)
    return order if len(order) == len(d.vertices) else None


def test_heap_order_matches_the_resorting_loop():
    # random digraphs over mixed int and str labels: arcs forward along a
    # shuffled order (acyclic), in a fifth of them one more random arc
    # (71 cycles in all); then the witness digraph of 1,200 disjoint triplets
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 12)
        labels = [rng.choice((i, f"v{i}", str(i))) for i in range(n)]
        rng.shuffle(labels)
        arcs = {(u, v) for u, v in combinations(labels, 2)
                if rng.random() < 0.3}
        if n > 1 and rng.random() < 0.2:
            arcs.add(tuple(rng.sample(labels, 2)))
        d = Digraph(labels, arcs)
        assert phylo._topological_order(d) == \
            topological_order_by_resorting(d), d
    d = triplet_digraph(triplet(f"a{i}", f"b{i}", f"c{i}")
                        for i in range(1200))
    assert len(d.vertices) == 3600
    order = phylo._topological_order(d)
    assert order is not None and order == topological_order_by_resorting(d)


def test_caterpillar_compatible_equivalences():
    cats4 = enumerate_caterpillars(range(4))
    for ts in all_triplet_sets(range(4), 3):
        got = caterpillar_compatible(ts, labels=range(4))
        acyclic = is_acyclic(Digraph(frozenset(range(4)),
                                     triplet_digraph(ts).arcs))
        brute = any(all(displays(c, r) for r in ts) for c in cats4)
        assert (got is not None) == acyclic == brute, ts
        if got is not None:
            assert is_caterpillar(got)
            assert all(displays(got, r) for r in ts)


def test_k_tree_separating_example():
    r = {triplet(1, 3, 4), triplet(1, 4, 2), triplet(1, 4, 3),
         triplet(2, 3, 1), triplet(2, 4, 1)}
    two_trees = k_tree_compatible(r, 2)
    assert two_trees is not None
    assert all(any(displays(t, x) for t in two_trees if set(x) <= t.leaves)
               for x in r)
    assert k_tree_compatible(r, 2, caterpillars_only=True) is None
    three_cats = k_tree_compatible(r, 3, caterpillars_only=True)
    assert three_cats is not None
    assert all(is_caterpillar(c) for c in three_cats)


def test_k_tree_basics():
    r = {triplet(1, 2, 3), triplet(2, 3, 4)}
    one = k_tree_compatible(r, 1)
    assert one is not None and len(one) == 1
    assert k_tree_compatible(frozenset(), 2) == []
    # monotone in k on random sets
    rng = random.Random(21)
    for _ in range(20):
        ts = frozenset(triplet(*rng.sample(range(5), 3)) for _ in range(4))
        for cats in (False, True):
            if k_tree_compatible(ts, 2, cats) is not None:
                assert k_tree_compatible(ts, 3, cats) is not None


def test_k_tree_node_limit():
    everything = full_triplet_set(5)  # tau(5) = 4, refuted in 33 conflicts
    with pytest.raises(BudgetExceeded):
        k_tree_compatible(everything, 3, node_limit=5)
    assert k_tree_compatible(everything, 3, node_limit=1000) is None
    assert len(k_tree_compatible(everything, 4, node_limit=1000)) == 4
    # the partition search counts its placements
    with pytest.raises(BudgetExceeded):
        k_tree_compatible(everything, 4, True, node_limit=1)
    assert k_tree_compatible(everything, 3, True, node_limit=10**6) is None


def partition_questions():
    """A fixed list of (triplets, k) for the caterpillar partition search:
    the 2-caterpillar targets of every 3-vertex digraph and of every 13th
    4-vertex one (criterion 7's), of 150 seeded 6-9-vertex digraphs with
    out-degree 2 or 3, then 200 sparse triplet sets with k = 1..4 and 200
    dense ones with k = 2..4, which make the search backtrack."""
    out = []
    for n, step in ((3, 1), (4, 13)):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(0, 1 << len(pairs), step):
            arcs = {p for i, p in enumerate(pairs) if bits >> i & 1}
            out.append((reduce_outdeg3_to_2cat(Digraph(range(n), arcs)), 2))
    rng = random.Random(2014)
    for _ in range(150):
        n = rng.randint(6, 9)
        arcs = set()
        for u in range(n):
            outs = rng.sample([v for v in range(n) if v != u], 3)
            arcs |= {(u, v) for v in outs[:rng.randint(2, 3)]}
        out.append((reduce_outdeg3_to_2cat(Digraph(range(n), arcs)), 2))
    for dense in (False, True):
        for _ in range(200):
            labels = range(1, rng.randint(5, 7 if dense else 8) + 1)
            pool = [triplet(a, b, c)
                    for a, b, c in permutations(labels, 3) if a < b]
            k = rng.randint(2 if dense else 1, 4)
            size = rng.randint(5 * k, 12 * k) if dense else rng.randint(3, 20)
            out.append((rng.sample(pool, min(size, len(pool))), k))
    return [(sorted(set(t), key=lambda r: tuple(map(var_key, r))), k)
            for t, k in out if t]


def test_partition_search_fingerprint():
    # the placements the caterpillar search makes, pinned: a rewrite of
    # _PartitionSearch must give the same nodes and blocks on every input,
    # answer at limit = nodes and raise BudgetExceeded at nodes - 1
    digest, total, found = hashlib.sha256(), 0, 0
    for trips, k in partition_questions():
        search = phylo._PartitionSearch(trips, k)
        blocks = search.run()
        total += search.nodes
        found += blocks is not None
        digest.update(repr((search.nodes, blocks)).encode())
        assert phylo._PartitionSearch(trips, k, search.nodes).run() == blocks
        with pytest.raises(BudgetExceeded):
            phylo._PartitionSearch(trips, k, search.nodes - 1).run()
    assert (total, found) == (10714, 772)
    assert digest.hexdigest() == (
        "13a4cbd8f926f434b7d9cd112835e41c103a22e27a1be73c475ac6861904c5e3")


def tree_cnf_by_closure(trips, n, k):
    """The tree-cover CNF of triplets over labels 1..n, clause by clause:
    for every leaf triple and slot, exactly one orientation; for every
    quad, its four_leaf_closure instantiated per slot; then one cover
    clause per triplet, and the slot pins: the first leaf triple (in
    input order) among those carrying the most distinct triplets puts
    its first min(k, size) triplets in slots 0, 1, ..."""
    tid = {t: i for i, t in enumerate(combinations(range(n), 3))}

    def var(a, c, w, b):
        x, y, z = sorted((a, c, w))
        return 1 + (3 * tid[(x, y, z)] + {z: 0, y: 1, x: 2}[w]) * k + b

    clauses = []
    for x, y, z in tid:
        for b in range(k):
            v0, v1, v2 = var(x, y, z, b), var(x, z, y, b), var(y, z, x, b)
            clauses += [[v0, v1, v2], [-v0, -v1], [-v0, -v2], [-v1, -v2]]
    for quad in combinations(range(n), 4):
        for p, q, r in four_leaf_closure(quad):
            for b in range(k):
                clauses.append([-var(*p, b), -var(*q, b), var(*r, b)])
    covers = [[var(a - 1, c - 1, w - 1, b) for b in range(k)]
              for a, c, w in trips]
    on_triple = {}
    for t in trips:
        group = on_triple.setdefault(frozenset(t), [])
        if t not in group:
            group.append(t)
    largest = max(len(g) for g in on_triple.values())
    group = next(g for g in on_triple.values() if len(g) == largest)
    pins = [[var(a - 1, c - 1, w - 1, b)]
            for b, (a, c, w) in enumerate(group[:k])]
    return clauses + covers + pins


def test_tree_cnf_follows_the_closure_generator():
    rng = random.Random(17)
    for n in (4, 5, 6):
        pool = [triplet(a, b, c) for a, b, c in
                permutations(range(1, n + 1), 3) if a < b]
        while True:
            trips = sorted(rng.sample(pool, 2 * n))
            if len({x for t in trips for x in t}) == n:
                break
        for k in (1, 2, 3):
            sat = phylo._TreeCoverCnf(trips, k).sat
            # the solver add_clause builds from the generator's clauses
            twin = phylo.Solver(sat.nvars)
            for c in tree_cnf_by_closure(trips, n, k):
                twin.add_clause(c)
            assert (sat.clauses, sat.trail) == (twin.clauses, twin.trail)


@st.composite
def _cover_questions(draw):
    """(triplets, k): a subset of the triplets displayed by k random
    trees, plus at most one arbitrary triplet so that some questions have
    no cover; 3-4 labels with k <= 3, 5 labels with k <= 2."""
    n = draw(st.integers(3, 5))
    k = draw(st.integers(1, 2 if n == 5 else 3))
    pool = enumerate_trees(range(n))
    shown = sorted(frozenset().union(*(
        displayed_triplets(t) for t in draw(
            st.lists(st.sampled_from(pool), min_size=k, max_size=k)))))
    trips = draw(st.sets(st.sampled_from(shown), min_size=1))
    trips |= draw(st.sets(st.sampled_from(
        [triplet(a, b, c) for a, b, c in permutations(range(n), 3)]),
        max_size=1))
    return sorted(trips), k


def assert_enumerates_every_cover(trips, k):
    """_TreeCoverCnf next/block enumeration lists every multiset of k
    trees that displays the triplets, each once, against brute force
    over every multiset of k trees on the labels."""
    pool = enumerate_trees(triplet_labels(trips))
    shown = [displayed_triplets(t) for t in pool]
    expected = {tuple(pool[i] for i in c)
                for c in combinations_with_replacement(range(len(pool)), k)
                if set(trips) <= frozenset().union(*(shown[i] for i in c))}
    cnf = phylo._TreeCoverCnf(trips, k)
    found = []
    while (trees := cnf.next(None)) is not None:
        found.append(tuple(sorted(trees, key=RootedTree.sort_key)))
        cnf.block(trees)
    assert len(found) == len(set(found))  # no multiset comes back twice
    assert set(found) == expected


@settings(max_examples=60, deadline=None)
@given(_cover_questions())
def test_tree_cnf_enumeration_matches_brute_force(question):
    assert_enumerates_every_cover(*question)


@st.composite
def _pinned_cover_questions(draw):
    """(triplets, k) on labels 0..3, in a drawn input order,
    with two or all three orientations of one leaf triple, so that the
    slot pins put more than one triplet in place."""
    x, y, z = draw(st.sampled_from(list(combinations(range(4), 3))))
    orientations = [triplet(x, y, z), triplet(x, z, y), triplet(y, z, x)]
    trips = set(draw(st.permutations(orientations))[:draw(st.integers(2, 3))])
    trips |= draw(st.sets(st.sampled_from(
        [triplet(a, b, c) for a, b, c in permutations(range(4), 3)]),
        max_size=4))
    return draw(st.permutations(sorted(trips))), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(_pinned_cover_questions())
def test_slot_pins_lose_no_cover(question):
    assert_enumerates_every_cover(*question)


def test_slot_pins_lose_no_four_tree_cover():
    # k = 4 on 4 labels has hundreds of covers, so two fixed sets: every
    # triplet on 4 labels, and one full leaf triple with three more
    t4 = [triplet(a, b, c) for a, b, c in permutations(range(1, 5), 3)
          if a < b]
    for trips in (t4, [triplet(2, 3, 1), triplet(1, 4, 2), triplet(1, 2, 3),
                       triplet(3, 4, 1), triplet(1, 3, 2), triplet(2, 4, 3)]):
        assert_enumerates_every_cover(trips, 4)


def test_full_leaf_triple_refutes_two_slots_at_the_root():
    # the pins put two orientations of a leaf triple in slots 0 and 1,
    # and the third then has no slot: "no" before any search
    for trips in ([triplet(1, 2, 3), triplet(1, 3, 2), triplet(2, 3, 1)],
                  [triplet(1, 4, 2), triplet(1, 2, 3), triplet(2, 4, 1),
                   triplet(1, 2, 4), triplet(2, 3, 4)]):
        for k in (1, 2):
            cnf = phylo._TreeCoverCnf(trips, k)
            assert cnf.next(None) is None
            assert cnf.sat.conflicts == 0


# ---------------------------------------------------------------------------
# Dicoloring


def test_two_dicolorable():
    acyclic = Digraph({1, 2, 3}, {(1, 2), (2, 3)})
    assert two_dicolorable(acyclic) is not None
    twocycles = Digraph({1, 2, 3, 4}, {(1, 2), (2, 1), (3, 4), (4, 3)})
    col = two_dicolorable(twocycles)
    assert col is not None
    assert col[1] != col[2] and col[3] != col[4]


def test_two_dicolorable_negative():
    # K4 with all 2-cycles: any 2-coloring leaves a monochromatic 2-cycle
    v = range(4)
    arcs = {(a, b) for a in v for b in v if a != b}
    assert two_dicolorable(Digraph(frozenset(v), arcs)) is None


def test_two_dicolorable_first_coloring_by_brute_force():
    # every digraph on 3 or 4 vertices: the answer is the first coloring,
    # in vertex order with 0 before 1, whose classes are both acyclic
    for n in (3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = {p for i, p in enumerate(pairs) if mask >> i & 1}
            want = next((dict(enumerate(cols))
                         for cols in product((0, 1), repeat=n)
                         if all(is_acyclic(Digraph(
                             {v for v in range(n) if cols[v] == c},
                             {(u, w) for u, w in arcs
                              if cols[u] == cols[w] == c}))
                                for c in (0, 1))), None)
            assert two_dicolorable(Digraph(frozenset(range(n)),
                                           arcs)) == want, arcs


def test_two_dicolorable_deep_ring():
    # a directed ring on 1,200 vertices: 2-dicolorable, found without
    # recursion; only the last vertex leaves color 0
    n = 1200
    col = two_dicolorable(Digraph(frozenset(range(n)),
                                  {(i, (i + 1) % n) for i in range(n)}))
    assert col == {**dict.fromkeys(range(n - 1), 0), n - 1: 1}


# ---------------------------------------------------------------------------
# Serialization


def test_newick_round_trip():
    for t in enumerate_trees(range(5))[::7]:
        assert parse_newick(to_newick(t)) == t
    t = join(join(leaf("x1"), leaf("y")), leaf(3))
    assert parse_newick(to_newick(t)) == t
    with pytest.raises(ValueError):
        parse_newick("((a,b);")
    with pytest.raises(ValueError):
        parse_newick("(a,b,c);")


NEWICK_CHARS = "(),; ab1"


@st.composite
def _newick_like(draw):
    """Text over NEWICK_CHARS: arbitrary, or the Newick text of a tree on
    such labels with up to three characters inserted, deleted or
    replaced, so that many strings are trees or nearly trees."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=NEWICK_CHARS, max_size=24))
    labels = draw(st.lists(st.sampled_from(["a", "b", "1", "ab", "b1", "a b"]),
                           min_size=1, max_size=4, unique=True))
    text = to_newick(draw(st.sampled_from(enumerate_trees(labels))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = (text[:i] + draw(st.sampled_from(["", *NEWICK_CHARS]))
                + text[i + draw(st.integers(0, 1)):])
    return text


@settings(max_examples=300, deadline=None)
@given(_newick_like())
def test_parse_newick_raises_value_error_or_round_trips(text):
    try:
        t = parse_newick(text)
    except ValueError:
        return
    assert parse_newick(to_newick(t)) == t


def test_tree_order_pin():
    # the canonical child order and the sort_key order of trees, pinned
    # by the Newick list of the 945 trees on six labels
    text = "".join(to_newick(t) + "\n" for t in enumerate_trees(range(6)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3afc1150a01c4f8d96dbd30e5b9eabbccf84c1a2754b8430257fceafb9b45645")


def test_deep_caterpillar_walks():
    # a caterpillar's shape is as deep as its leaf count, far past the
    # recursion limit here; the trees are compared by their Newick text,
    # so to_newick and parse_newick are checked on deep shapes too
    rng = random.Random(3)
    seq = rng.sample(range(3000), 3000)
    seq[:2] = sorted(seq[:2])  # the cherry reads smaller label first
    cat = caterpillar_of(seq)
    assert ordering_of(cat).seq == tuple(seq)
    assert cherries(cat) == [frozenset(seq[:2])]
    assert len(cat.clusters) == 2 * 3000 - 1
    assert to_newick(restrict_tree(cat, seq[1::2])) == \
        to_newick(caterpillar_of(seq[1::2]))
    text = to_newick(cat)
    del cat  # one deep tree at a time: each holds O(n^2) cluster entries
    assert to_newick(parse_newick(text)) == text


def test_deep_trees_compare_and_sort():
    # 3,000-leaf caterpillars, built apart so that no subtree is shared:
    # ==, a set and sorted all compare flat listings, never nested shapes
    a, b = caterpillar_of(range(3000)), caterpillar_of(list(range(3000)))
    assert a.shape is not b.shape
    assert a == b and len({a, b}) == 1
    del b  # one pair at a time: each holds O(n^2) cluster entries
    c = caterpillar_of([*range(2998), 2999, 2998])  # top two leaves swapped
    assert a != c
    assert sorted([c, a], key=RootedTree.sort_key) == [a, c]


def test_triplet_file_round_trip():
    ts = {triplet(1, 3, 4), triplet("a", "b", 2)}
    assert parse_triplets(format_triplets(ts)) == frozenset(ts)
    assert parse_triplets("# empty\n") == frozenset()
    with pytest.raises(ValueError):
        parse_triplets("a b c\n")


def test_dot_round_trip():
    d = Digraph({1, 2, "v"}, {(1, 2), ("v", 1)})
    assert parse_dot(to_dot(d)) == d


def test_parse_dot_reads_names_that_start_with_digraph():
    # only a header line and a lone "}" are skipped; every other line is
    # a statement, whatever its first word
    text = "digraph G {\n  digraphA -> digraphB;\n  digraphC;\n}\n"
    assert parse_dot(text) == Digraph({"digraphA", "digraphB", "digraphC"},
                                      {("digraphA", "digraphB")})
    assert parse_dot('digraph "a b" {\n  x;\n}\n') == \
        Digraph({"x"}, set())
    with pytest.raises(ValueError, match="line 1"):
        parse_dot("digraph { a -> b; b -> a; }\n")


@pytest.mark.parametrize("line", [
    "a -> b -> c;", "a -> b [color=red];", "a -> b; c -> d;", "a [shape=box];",
])
def test_parse_dot_rejects_what_it_cannot_read(line):
    with pytest.raises(ValueError, match="line 2"):
        parse_dot("digraph {\n  " + line + "\n}\n")
