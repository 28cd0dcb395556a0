"""Solver tests: soundness, completeness against exhaustive search, and the
documented example instances."""

from itertools import combinations, permutations
from math import factorial
import random

import pytest
from hypothesis import given, settings, strategies as st

from triord import solver
from triord.orderings import (
    LinearOrdering, implied_constraints, make_instance, ordering, pi_family,
    reversal, satisfies,
)
from triord.solver import (
    BudgetExceeded, Solution, SolverConfig, check_solution,
    enumerate_solutions, solve, trivial_pair_solution,
)
from triord.gadgets import builtin_gadget, gadget_instance

CDCL = SolverConfig()
EXH = SolverConfig(mode="exhaustive")
EXH_ALL = SolverConfig(mode="exhaustive")


def test_check_solution_examples():
    inst = make_instance(2, 2, "abcd", [("a", "b", "c"), ("d", "c", "a")])
    alpha = ordering("b", "d", "a", "c")
    assert check_solution(inst, trivial_pair_solution(inst, alpha))

    contradictory = make_instance(0, 1, "abc", [("a", "b", "c"), ("b", "c", "a")])
    assert not check_solution(contradictory, Solution([ordering("a", "b", "c")]))

    g, gp = ordering(1, 2, 3, 4, 5), ordering(5, 2, 3, 4, 1)
    cs = implied_constraints(g, pi_family(5)) | implied_constraints(gp, pi_family(5))
    gadget = make_instance(5, 2, range(1, 6), sorted(cs))
    assert check_solution(gadget, Solution([g, gp]))


def test_check_solution_domain_mismatch():
    inst = make_instance(0, 1, "abc", [("a", "b", "c")])
    with pytest.raises(ValueError):
        check_solution(inst, Solution([ordering("a", "b")]))


def check_by_definition(inst, sol):
    """check_solution as the plain definition, after its size test."""
    if len(sol.orderings) > inst.k:
        return False
    return all(any(satisfies(inst.pi, o, c) for o in sol.orderings)
               for c in inst.constraints)


@pytest.mark.parametrize("pi", range(11))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_check_solution_matches_the_definition(pi, data):
    # multisets of up to k + 1 random orderings, so that many fail, some
    # have more than k members, and one member over another domain
    m = data.draw(st.integers(3, 5))
    k = data.draw(st.integers(1, 3))
    cs = data.draw(st.lists(
        st.permutations(range(m)).map(lambda p: tuple(p[:3])), max_size=6))
    inst = make_instance(pi, k, range(m), cs)
    members = data.draw(st.lists(st.permutations(range(m)),
                                 min_size=1, max_size=k + 1))
    sol = Solution(map(LinearOrdering, members))
    assert check_solution(inst, sol) == check_by_definition(inst, sol)
    other = data.draw(st.sampled_from([m - 1, m + 1]))
    wrong = Solution([*map(LinearOrdering, members[:k - 1]),
                      LinearOrdering(range(other))])
    with pytest.raises(ValueError):
        check_solution(inst, wrong)


def test_solve_examples():
    sat = make_instance(0, 1, "abc", [("a", "b", "c")])
    sol = solve(sat, CDCL)
    assert sol is not None and check_solution(sat, sol)

    unsat = make_instance(0, 1, "abc", [("a", "b", "c"), ("c", "b", "a")])
    assert solve(unsat, CDCL) is None
    assert solve(unsat, EXH) is None


def test_enumerate_unconstrained():
    for m in (2, 3, 4):
        inst = make_instance(0, 1, range(m), [])
        assert len(enumerate_solutions(inst, EXH_ALL)) == factorial(m)


def test_enumerate_k2_multisets_unconstrained():
    # multisets of size 2 over m! orderings
    inst = make_instance(0, 2, range(3), [])
    n = factorial(3)
    assert len(enumerate_solutions(inst, CDCL)) == n * (n + 1) // 2


def _random_instances(rng, count, pi_choices, max_v=4, max_c=3, max_k=2):
    for _ in range(count):
        m = rng.randint(3, max_v)
        vars_ = list(range(m))
        n_c = rng.randint(0, max_c)
        cs = [tuple(rng.sample(vars_, 3)) for _ in range(n_c)]
        yield make_instance(rng.choice(pi_choices), rng.randint(1, max_k),
                            vars_, cs)


def test_bnb_matches_exhaustive_on_random_instances():
    rng = random.Random(7)
    for inst in _random_instances(rng, 80, list(range(11))):
        got = enumerate_solutions(inst, CDCL)
        want = enumerate_solutions(inst, EXH_ALL)
        assert got == want, inst
        sol = solve(inst, CDCL)
        assert (sol is not None) == bool(want)
        if sol is not None:
            assert check_solution(inst, sol)


def test_monotone_in_k():
    rng = random.Random(99)
    for inst in _random_instances(rng, 40, list(range(11)), max_k=1):
        if solve(inst, CDCL) is not None:
            bigger = make_instance(inst.pi.index, inst.k + 1,
                                   inst.vars, inst.constraints)
            assert solve(bigger, CDCL) is not None


def test_node_limit():
    inst = make_instance(0, 2, range(6), [])
    cfg = SolverConfig(node_limit=50)
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(inst, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="magic")


def test_trivial_families_always_satisfiable():
    rng = random.Random(5)
    for i in (2, 3, 7, 8, 10):
        for _ in range(10):
            m = rng.randint(3, 5)
            cs = [tuple(rng.sample(range(m), 3)) for _ in range(rng.randint(1, 6))]
            inst = make_instance(i, 2, range(m), cs)
            alpha = ordering(*rng.sample(range(m), m))
            assert check_solution(inst, trivial_pair_solution(inst, alpha))
            assert solve(inst, CDCL) is not None


@pytest.mark.parametrize("name, conflicts, count", [("pi5", 35, 4),
                                                    ("pi6", 19, 1)])
def test_enumeration_conflict_budget_on_gadgets(name, conflicts, count):
    # the budget caps conflicts summed over every solve of the enumeration
    gens, fam, k, _ = builtin_gadget(name)
    inst = gadget_instance(list(gens), fam, k)
    assert len(enumerate_solutions(
        inst, SolverConfig(node_limit=conflicts))) == count
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(inst, SolverConfig(node_limit=conflicts - 1))


@st.composite
def _small_instances(draw, pi):
    # k = 3 keeps three variables, so blocking all 3! slot arrangements
    # of a multiset is exercised
    k = draw(st.integers(1, 3))
    m = 3 if k == 3 else draw(st.integers(3, 4))
    cs = draw(st.lists(st.permutations(range(m)).map(lambda p: tuple(p[:3])),
                       max_size=4))
    return make_instance(pi, k, range(m), cs)


@pytest.mark.parametrize("pi", range(11))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_enumeration_matches_exhaustive(pi, data):
    inst = data.draw(_small_instances(pi))
    assert enumerate_solutions(inst, CDCL) == \
        enumerate_solutions(inst, EXH_ALL)


def test_solve_trivial_family_gives_reversal_pair():
    inst = make_instance(7, 2, range(1, 6),
                         [(1, 2, 3), (3, 2, 1), (4, 5, 1), (2, 5, 4)])
    sol = solve(inst, CDCL)
    a, b = sol.orderings
    assert b == reversal(a) and check_solution(inst, sol)
    # the exhaustive oracle takes no shortcut: it scans, so a budget of
    # one node runs out
    with pytest.raises(BudgetExceeded):
        solve(inst, SolverConfig(mode="exhaustive", node_limit=1))


def test_cdcl_mode_name_and_its_older_alias():
    assert SolverConfig().mode == "cdcl"
    # the older name "branch_and_bound" is gone with the search it named
    for mode in ("branch_and_bound", "bnb"):
        with pytest.raises(ValueError):
            SolverConfig(mode=mode)


def test_constraint_masks_follow_satisfies():
    # the exhaustive oracle's bitmasks, against the plain definition
    rng = random.Random(3)
    for pi in range(11):
        for m in (3, 4, 5):
            inst = make_instance(pi, 1, range(m), [
                tuple(rng.sample(range(m), 3)) for _ in range(10)])
            perms = [LinearOrdering(p) for p in permutations(range(m))]
            assert solver._constraint_masks(inst, perms) == [
                sum(1 << ci for ci, c in enumerate(inst.constraints)
                    if satisfies(inst.pi, alpha, c)) for alpha in perms]


def exhaustive_by_recursion(inst, cfg, want_all):
    """The exhaustive scan as it was written first, one recursive call per
    search node: (solutions, nodes)."""
    perms = [LinearOrdering(p) for p in permutations(inst.sorted_vars())]
    masks = solver._constraint_masks(inst, perms)
    full = (1 << len(inst.constraints)) - 1
    n = len(perms)
    found = []
    nodes = 0

    def rec(start, chosen, acc):
        nonlocal nodes
        if len(chosen) == inst.k:
            if acc == full:
                found.append(Solution([perms[i] for i in chosen]))
            return want_all or acc != full
        for i in range(start, n):
            nodes += 1
            if cfg.node_limit is not None and nodes > cfg.node_limit:
                raise BudgetExceeded(nodes)
            if not rec(i, chosen + [i], acc | masks[i]):
                return False
        return True

    rec(0, [], 0)
    return found, nodes


def outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded as e:
        return "budget", e.args


def test_exhaustive_loop_matches_the_recursion():
    # same solutions in the same order and the same node count: a budget
    # of the recursion's count suffices, and one node less runs out at the
    # same node, with or without a solution to stop at and whether one or
    # every solution is asked for
    rng = random.Random(41)
    for k, sizes in ((1, (3, 4, 5)), (2, (3, 4, 5)), (3, (3, 4))):
        for m in sizes:
            for ncons in (1, 3, 6):
                inst = make_instance(rng.randrange(11), k, range(m), [
                    tuple(rng.sample(range(m), 3)) for _ in range(ncons)])
                for want_all in (False, True):
                    _, nodes = exhaustive_by_recursion(inst, EXH, want_all)
                    for limit in (None, 0, nodes // 2, nodes - 1, nodes):
                        cfg = SolverConfig(mode="exhaustive", node_limit=limit)
                        ref = outcome(lambda: exhaustive_by_recursion(
                            inst, cfg, want_all)[0])
                        got = outcome(solver._exhaustive, inst, cfg, want_all)
                        assert got == ref, (inst, want_all, limit)


def signed(c):
    """The signed literal of solver literal code c: 2v is v, 2v + 1 is -v."""
    return -(c >> 1) if c & 1 else c >> 1


def logged_pair_order_cnf(monkeypatch, inst):
    """The CNF of inst, and each add_clause call with the solver's clause
    count and trail just before it."""
    log = []

    class LoggedSolver(solver._CnfSolver):
        def add_clause(self, lits):
            log.append((list(lits), len(self.clauses), list(self.trail)))
            super().add_clause(lits)

    monkeypatch.setattr(solver, "_CnfSolver", LoggedSolver)
    return solver._PairOrderCnf(inst), log


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_order_pin_is_constraint_zero_in_slot_zero(monkeypatch, k):
    cs = [(1, 2, 3), (2, 3, 4), (4, 1, 2)]
    cnf, log = logged_pair_order_cnf(
        monkeypatch, make_instance(5, k, range(1, 5), cs))
    sat = cnf.sat
    pin = len(cnf.pairs) * k + 1  # selector (0, 0)
    assert log[-1][0] == [pin]
    assert pin in map(signed, sat.trail) and sat.level[pin] == 0
    if k == 1:
        # the at-least-one clause of constraint 0 is already this unit
        assert (len(sat.clauses), sat.trail) == log[-1][1:]


def test_pair_order_cnf_without_constraints_has_no_pin(monkeypatch):
    cnf, log = logged_pair_order_cnf(
        monkeypatch, make_instance(5, 2, range(1, 5), []))
    assert log == []  # no selector, cover or pin clause
    # transitivity only: two clauses per leaf triple of the 4 variables,
    # in each of the 2 slots
    assert len(cnf.sat.clauses) == 2 * 4 * 2
    assert all(len(lits) == 3 for lits in cnf.sat.clauses)
    assert cnf.sat.trail == []
