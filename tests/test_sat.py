"""The internal CNF solver, checked against truth-table enumeration."""

import itertools
import random

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
