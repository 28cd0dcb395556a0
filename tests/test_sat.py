"""The internal CNF solver, checked against truth-table enumeration."""

import itertools
import random

import pytest

from triord._sat import Solver


def brute_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c)
               for c in clauses):
            return True
    return False


def test_random_formulas_against_truth_tables():
    rng = random.Random(5)
    for _ in range(500):
        nvars = rng.randrange(3, 11)
        clauses = []
        for _ in range(rng.randrange(1, 4 * nvars)):
            width = min(rng.randrange(1, 4), nvars)
            picked = rng.sample(range(1, nvars + 1), width)
            clauses.append([v * rng.choice([-1, 1]) for v in picked])
        s = Solver(nvars)
        for c in clauses:
            s.add_clause(list(c))
        res = s.solve()
        assert res == brute_sat(nvars, clauses)
        if res:
            model = s.model()
            assert all(any((lit > 0) == model[abs(lit)] for lit in c)
                       for c in clauses)


def test_pigeonhole_refutation():
    # n pigeons never fit in n - 1 holes
    for n in (4, 6):
        holes = n - 1

        def var(p, h):
            return p * holes + h + 1

        s = Solver(n * holes)
        for p in range(n):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p, q in itertools.combinations(range(n), 2):
                s.add_clause([-var(p, h), -var(q, h)])
        assert s.solve() is False


def test_unit_conflicts_detected_at_add_time():
    s = Solver(2)
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2])
    assert s.solve() is False


def test_empty_and_tautological_clauses():
    s = Solver(2)
    s.add_clause([1, -1])  # ignored
    assert s.solve() is True
    s = Solver(1)
    s.add_clause([])
    assert s.solve() is False


def test_conflict_limit_returns_unknown():
    holes = 7

    def var(p, h):
        return p * holes + h + 1

    s = Solver(8 * holes)
    for p in range(8):
        s.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p, q in itertools.combinations(range(8), 2):
            s.add_clause([-var(p, h), -var(q, h)])
    assert s.solve(conflict_limit=10) is None


def test_clauses_added_after_a_solve():
    # a satisfiable solve must not leave its assignment behind for
    # add_clause to read: x1 = True still satisfies both clauses
    s = Solver(2)
    s.add_clause([1, 2])
    assert s.solve() is True
    s.add_clause([-2])
    assert s.solve() is True
    assert s.model()[1] and not s.model()[2]
    s.add_clause([-1])
    assert s.solve() is False


def test_conflicts_accumulate_over_solves():
    holes = 3

    def var(p, h):
        return p * holes + h + 1

    s = Solver(4 * holes)
    for p in range(4):
        s.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p, q in itertools.combinations(range(4), 2):
            s.add_clause([-var(p, h), -var(q, h)])
    assert s.solve(conflict_limit=1) is None
    assert s.conflicts == 1
    assert s.solve() is False
    assert s.conflicts > 1


def messy_clause(rng, nvars):
    """A clause with repeated literals, complementary pairs or a single
    literal, drawn so that add_clause's root-level filtering is hit."""
    lits = [rng.choice([-1, 1]) * rng.randrange(1, nvars + 1)
            for _ in range(rng.choice([1, 1, 2, 3, 4, 5]))]
    shape = rng.random()
    if shape < 0.2:
        lits.append(lits[0])  # a repeat
    elif shape < 0.3:
        lits.append(-lits[-1])  # a tautology
    rng.shuffle(lits)
    return lits


def test_root_level_filtering_against_truth_tables():
    rng = random.Random(11)
    for _ in range(400):
        nvars = rng.randrange(2, 9)
        s = Solver(nvars)
        clauses = []
        for batch in range(2):  # the second batch is added after a solve
            for _ in range(rng.randrange(1, 3 * nvars)):
                c = messy_clause(rng, nvars)
                clauses.append(c)
                s.add_clause(list(c))
            res = s.solve()
            assert res == brute_sat(nvars, clauses), (batch, clauses)
            if res:
                model = s.model()
                assert all(any((lit > 0) == model[abs(lit)] for lit in c)
                           for c in clauses)


def test_add_clause_stores_the_filtered_clause():
    s = Solver(4)
    s.add_clause([-4])
    s.add_clause([1, 1, 2])  # repeat dropped
    s.add_clause([2, 3, -2])  # tautology dropped
    s.add_clause([1, 4, 3])  # x4 false at the root: dropped
    s.add_clause([-4, 1, 2])  # satisfied at the root
    assert s.clauses == [[1, 2], [1, 3]]
    assert s.solve() is True


def test_add_clause_copies_the_callers_list():
    # deciding x1 false makes the solver move the clause's watch from x1
    # to x3, which reorders its own copy of the clause
    s = Solver(3)
    clause = [1, 2, 3]
    s.add_clause(clause)
    s.add_clause((-2, -3))
    assert s.solve() is True
    assert sorted(s.clauses[0]) == [1, 2, 3] and s.clauses[0] != [1, 2, 3]
    assert clause == [1, 2, 3]


def test_literals_outside_the_variables_rejected():
    for lit in (0, 3, -3, 5):
        s = Solver(2)
        with pytest.raises(ValueError):
            s.add_clause([1, lit])
