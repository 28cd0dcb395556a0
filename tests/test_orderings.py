"""Tests for the ordering vocabulary: pattern families, the position->symbol
convention, the ordering algebra and the instance text format."""

from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from triord.orderings import (
    REVERSAL_CLOSED, LinearOrdering, TRIVIAL_2ORDER, concat, format_instance,
    implied_constraints, make_instance, ordering, parse_instance,
    pattern_matches, pi_family, relabel_instance, restrict, reversal,
    satisfies,
)

S3 = sorted(permutations((1, 2, 3)))


def all_orderings(vars_):
    return [LinearOrdering(p) for p in permutations(vars_)]


# ---------------------------------------------------------------------------
# Pattern families


def test_family_table():
    def pats(family):
        return {"".join(map(str, p)) for p in family.perms}

    assert pats(pi_family(0)) == {"123"}
    assert pats(pi_family(1)) == {"123", "132"}
    assert pats(pi_family(2)) == {"123", "213", "231"}
    assert pats(pi_family(3)) == {"123", "231", "312", "321"}
    assert pats(pi_family(4)) == {"123", "231"}
    assert pats(pi_family(5)) == {"123", "321"}
    assert pats(pi_family(6)) == {"123", "132", "231"}
    assert pats(pi_family(7)) == {"123", "231", "312"}
    assert pats(pi_family(8)) == {"132", "213", "312", "321"}
    assert pats(pi_family(9)) == {"132", "213", "231", "312"}
    assert pats(pi_family(10)) == {"132", "213", "231", "312", "321"}


def test_family_index_range():
    with pytest.raises(ValueError):
        pi_family(11)
    with pytest.raises(ValueError):
        pi_family(-1)


def test_pattern_convention_table():
    # The convention anchor: alpha = (a, b, c) and constraint (b, c, a).
    # Pattern p matches iff alpha(v_{p1}) < alpha(v_{p2}) < alpha(v_{p3});
    # here only 312 does: v_{3}=a, v_{1}=b, v_{2}=c gives a < b < c.
    alpha = ordering("a", "b", "c")
    c = ("b", "c", "a")
    expected = {
        (1, 2, 3): False,
        (1, 3, 2): False,
        (2, 1, 3): False,
        (2, 3, 1): False,
        (3, 1, 2): True,
        (3, 2, 1): False,
    }
    for p in S3:
        assert pattern_matches(p, alpha, c) == expected[p], p


def test_satisfies_examples():
    a = ordering("a", "b", "c")
    assert satisfies(pi_family(5), a, ("a", "b", "c"))
    assert satisfies(pi_family(5), a, ("c", "b", "a"))
    assert not satisfies(pi_family(0), a, ("c", "b", "a"))
    assert satisfies(pi_family(1), ordering("a", "c", "b"), ("a", "b", "c"))


def test_satisfies_missing_variable():
    with pytest.raises(ValueError):
        satisfies(pi_family(0), ordering(1, 2), (1, 2, 3))


@pytest.mark.parametrize("i", range(11))
def test_comparison_codes_follow_the_definition(i):
    # one relative order of the positions a, b, c of (x, y, z) per
    # ordering; its code's bit is set iff some pattern of the family
    # matches, and the banned triples are the other patterns, 0-based
    pi = pi_family(i)
    c = ("x", "y", "z")
    for alpha in all_orderings(c):
        px, py, pz = (alpha.position(v) for v in c)
        code = (px < py) << 2 | (py < pz) << 1 | (px < pz)
        assert bool(pi.codes >> code & 1) == \
            any(pattern_matches(p, alpha, c) for p in pi.perms), alpha
    assert pi.codes & (1 << 1 | 1 << 6) == 0  # the two cyclic codes
    assert pi.banned == tuple((p[0] - 1, p[1] - 1, p[2] - 1)
                              for p in S3 if p not in pi.perms)


# ---------------------------------------------------------------------------
# Ordering algebra


def test_reversal():
    assert reversal(ordering(1, 2, 3)) == ordering(3, 2, 1)
    assert reversal(ordering(5, 2, 3, 4, 1)) == ordering(1, 4, 3, 2, 5)
    for alpha in all_orderings(range(4)):
        assert reversal(reversal(alpha)) == alpha


def test_restrict():
    assert restrict(ordering(1, 2, 3, 4, 5), {2, 4, 5}) == ordering(2, 4, 5)
    assert restrict(ordering(5, 2, 3, 4, 1), {5, 1}) == ordering(5, 1)
    a = ordering(3, 1, 2)
    assert restrict(a, a.domain()) == a
    with pytest.raises(ValueError):
        restrict(a, {7})


def test_concat():
    assert concat(ordering(1, 2), ordering(3, 4)) == ordering(1, 2, 3, 4)
    assert concat(ordering(5, 2), ordering(3)) == ordering(5, 2, 3)
    b = ordering(1, 2)
    assert concat(LinearOrdering(()), b) == b
    with pytest.raises(ValueError):
        concat(b, ordering(2, 3))


def test_duplicate_variable_rejected():
    with pytest.raises(ValueError):
        ordering(1, 1, 2)


# ---------------------------------------------------------------------------
# Implied constraints


def test_implied_constraints_small():
    assert implied_constraints(ordering(1, 2, 3), pi_family(0)) == {(1, 2, 3)}


def test_implied_constraints_counts():
    # brute-force derived counts: 2 * C(5,3) and 4 * C(7,3)
    assert len(implied_constraints(ordering(1, 2, 3, 4, 5), pi_family(5))) == 20
    assert len(implied_constraints(ordering(*range(1, 8)), pi_family(9))) == 140


def test_implied_constraints_cardinality_all_families():
    for m in (3, 4, 5):
        alpha = LinearOrdering(range(m))
        for i in range(11):
            pi = pi_family(i)
            got = implied_constraints(alpha, pi)
            assert len(got) == len(pi.perms) * comb(m, 3)
            assert all(satisfies(pi, alpha, c) for c in got)


def test_implied_constraints_agree_with_satisfies():
    # definition check against a direct scan over all ordered triples
    alpha = ordering(2, 4, 1, 3, 0)
    for i in range(11):
        pi = pi_family(i)
        brute = {c for c in permutations(alpha.seq, 3) if satisfies(pi, alpha, c)}
        assert implied_constraints(alpha, pi) == brute


# ---------------------------------------------------------------------------
# Family-level properties


def test_reversal_closure_pi5_pi9():
    for n in (3, 4, 5):
        for alpha in all_orderings(range(n)):
            rev = reversal(alpha)
            for i in (5, 9):
                pi = pi_family(i)
                for c in permutations(range(n), 3):
                    assert satisfies(pi, alpha, c) == satisfies(pi, rev, c)


def test_reversal_classes_are_the_papers_lists():
    # both sets are computed from pattern reversal; the paper lists them
    assert TRIVIAL_2ORDER == {2, 3, 7, 8, 10}
    assert REVERSAL_CLOSED == {5, 9}


def test_trivial_families_alpha_or_reversal():
    for n in (3, 4, 5):
        for alpha in all_orderings(range(n)):
            rev = reversal(alpha)
            for i in TRIVIAL_2ORDER:
                pi = pi_family(i)
                for c in permutations(range(n), 3):
                    assert satisfies(pi, alpha, c) or satisfies(pi, rev, c)


@given(st.permutations(list(range(5))), st.permutations(list(range(5))),
       st.integers(0, 10))
def test_relabeling_invariance(seq, image, i):
    alpha = LinearOrdering(seq)
    phi = dict(zip(range(5), image))
    beta = LinearOrdering([phi[v] for v in alpha.seq])
    pi = pi_family(i)
    for c in combinations(range(5), 3):
        mapped = (phi[c[0]], phi[c[1]], phi[c[2]])
        assert satisfies(pi, alpha, c) == satisfies(pi, beta, mapped)


# ---------------------------------------------------------------------------
# Instance and text format


def test_instance_dedup_and_validation():
    inst = make_instance(5, 2, "abc", [("a", "b", "c"), ("a", "b", "c")])
    assert inst.constraints == (("a", "b", "c"),)
    with pytest.raises(ValueError):
        make_instance(5, 2, "abc", [("a", "a", "b")])
    with pytest.raises(ValueError):
        make_instance(5, 2, "ab", [("a", "b", "z")])
    with pytest.raises(ValueError):
        make_instance(5, 0, "abc", [])


def test_text_format_round_trip():
    inst = make_instance(9, 2, ["x", 7, "y", 3],
                         [("x", 7, "y"), (3, "y", 7)])
    again = parse_instance(format_instance(inst))
    assert again == inst


def test_parse_errors_and_comments():
    text = "# header\npi 5\nk 2\nvars a b c  # trailing\nc a b c\n"
    inst = parse_instance(text)
    assert inst.pi.index == 5 and inst.k == 2
    with pytest.raises(ValueError):
        parse_instance("k 2\nvars a b c\n")  # no pi line
    with pytest.raises(ValueError):
        parse_instance("pi 5\nc a b\n")
    # a `vars` line may follow the constraints that use its names
    inst = parse_instance("pi 5\nc a b c\nvars c b a\n")
    assert inst.vars == {"a", "b", "c"}
    assert inst.constraints == (("a", "b", "c"),)


@pytest.mark.parametrize("text, message", [
    ("pi 5 9\n", "line 1: `pi` needs exactly one value"),
    ("pi 5\nk 2 7\n", "line 2: `k` needs exactly one value"),
    ("pi\nvars a b c\n", "line 1: `pi` needs exactly one value"),
    ("k\npi 5\n", "line 1: `k` needs exactly one value"),
    ("pi 5\npi 9\n", "line 2: second `pi` line"),
    ("pi 5\nk 2\nvars a b c\nk 3\n", "line 4: second `k` line"),
    ("pi 11\nvars a b c\n", "line 1: pattern family index out of range: 11"),
    ("pi 5\nk 0\n", "line 2: k must be >= 1"),
    ("pi 5\nvars 1 2\nc 1 2 3\nvars 4\n",
     "line 3: constraint uses unknown variable: 3"),
    ("pi 5\nvars 1 2 3\nc 1 2 1\n",
     "line 3: constraint variables not distinct: (1, 2, 1)"),
    ("pi 5\nvars a a b\n", "line 2: repeated variable: 'a'"),
    ("pi 5\nvars a b\n\nvars c 01 b\n", "line 4: repeated variable: 'b'"),
], ids=["pi-two-values", "k-two-values", "bare-pi", "bare-k", "second-pi",
        "second-k", "pi-range", "k-zero", "unknown-var", "repeated-in-c",
        "repeated-var", "repeated-across-lines"])
def test_parse_directive_lines(text, message):
    # one value per pi / k line and one line of each: the parser neither
    # drops a token nor lets a later line override an earlier one; and
    # the checks that need the whole text still name the line at fault
    with pytest.raises(ValueError) as e:
        parse_instance(text)
    assert str(e.value) == message


def test_relabel_instance():
    inst = make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])
    out = relabel_instance(inst, {1: "u", 2: "v", 3: "w"})
    assert out.constraints == (("u", "v", "w"),)
    assert out.vars == {"u", "v", "w"}
