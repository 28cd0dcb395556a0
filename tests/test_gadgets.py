"""Gadget construction and uniqueness verification.

The heavyweight checks (the 7-element betweenness-complement gadget and the
full tree-triple sweep) live in the acceptance suite; here we exercise the
machinery on the small gadgets and pin the derived caterpillar triple."""

from itertools import permutations
from math import comb

import pytest

from triord.gadgets import (
    PI5_GADGET, PI6_GADGET, PI9_GADGET, builtin_gadget,
    derive_caterpillar_triple, gadget_instance, gadget_symmetry,
    gadget_triplet_union, verify_tree_uniqueness, verify_uniqueness,
)
from triord.orderings import ordering, pi_family, reversal, satisfies
from triord.phylo import caterpillar_of, cherries, parse_newick, to_newick
from triord.solver import Solution


def test_gadget_instance_counts():
    inst = gadget_instance(list(PI5_GADGET), 5, 2)
    # 20 betweenness constraints per generator, overlapping on the four
    # triples whose relative order the two generators share
    assert len(inst.constraints) == 20 + 20 - 2 * 4
    inst6 = gadget_instance(list(PI6_GADGET), 6, 2)
    assert inst6.vars == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        gadget_instance([], 5, 2)
    with pytest.raises(ValueError):
        gadget_instance([ordering(1, 2), ordering(1, 3)], 5, 2)


def test_symmetry_canonicalization():
    # a family's gadgets are quotiented by per-order reversal exactly when
    # reversing an ordering keeps every constraint's verdict, and only
    # then does a one-order gadget admit its generator's reversal
    alpha = ordering(3, 1, 2, 4)
    for i in range(11):
        pi = pi_family(i)
        kept = all(satisfies(pi, alpha, c) == satisfies(pi, reversal(alpha), c)
                   for c in permutations(range(1, 5), 3))
        report = verify_uniqueness([alpha], pi, 1)
        assert report.symmetry == gadget_symmetry(pi) == \
            ("per_order_reversal" if kept else "none"), i
        assert Solution([alpha]) in report.found
        assert (Solution([reversal(alpha)]) in report.found) == kept, i


def test_pi5_gadget_unique_up_to_reversal():
    gens, pi, k = builtin_gadget("pi5")
    report = verify_uniqueness(list(gens), pi, k)
    assert report.unique and report.symmetry == "per_order_reversal"
    # each member may be reversed independently: four raw solutions, one orbit
    assert len(report.found) == 4
    g1, g2 = gens
    assert set(report.found) == {Solution((a, b)) for a in (g1, reversal(g1))
                                 for b in (g2, reversal(g2))}


def test_pi6_gadget_unique_both_readings():
    gens, pi, k = builtin_gadget("pi6")
    report = verify_uniqueness(list(gens), pi, k)
    assert report.unique and report.symmetry == "none"
    assert len(report.found) == 1  # unique already as an unordered multiset
    assert report.raw_ordered_count == 2  # and two ordered readings of it


def test_pi9_gadget_satisfiable():
    # full enumeration of this one is an acceptance-level check; here we
    # only confirm the generators solve their own implied instance
    gens, pi, k = builtin_gadget("pi9")
    inst = gadget_instance(list(gens), pi, k)
    assert Solution(gens).orderings[0].domain() == set(inst.vars)
    from triord.solver import check_solution
    assert check_solution(inst, Solution(gens))


def test_builtin_gadget_unknown():
    with pytest.raises(ValueError):
        builtin_gadget("pi4")


def test_derive_caterpillar_triple():
    triple, ords = derive_caterpillar_triple()
    assert [to_newick(t) for t in triple] == [
        "(((((0,1),2),3),4),5);",
        "(((((0,5),2),4),3),1);",
        "(0,((((1,5),3),4),2));",
    ]
    assert [o.seq for o in ords] == [
        (0, 1, 2, 3, 4, 5), (0, 5, 2, 4, 3, 1), (1, 5, 3, 4, 2, 0)]
    assert all(len(o) == 6 for o in ords)
    assert [caterpillar_of(o) for o in ords] == list(triple)
    assert frozenset({0, 1}) in cherries(triple[0])
    assert frozenset({0, 5}) in cherries(triple[1])
    union = gadget_triplet_union(triple)
    assert 50 < len(union) < 60  # no tree triple partitions all 60 triplets


def test_verify_tree_uniqueness_positive():
    triple, _ = derive_caterpillar_triple()
    report = verify_tree_uniqueness(triple)
    assert report.unique
    assert report.found == (tuple(sorted(triple, key=lambda t: t.sort_key())),)


def test_verify_tree_uniqueness_degenerate():
    c = parse_newick("(((((0,1),2),3),4),5);")
    report = verify_tree_uniqueness((c, c, c))
    assert not report.unique
    with pytest.raises(ValueError):
        verify_tree_uniqueness((c, c, parse_newick("((0,1),2);")))
