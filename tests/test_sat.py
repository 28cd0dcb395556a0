"""The internal CNF solver, checked against truth-table enumeration."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triord import _sat
from triord._sat import Solver
from triord.extremal import full_triplet_set, tau_cnf, tau_decision
from triord.gadgets import builtin_gadget, gadget_instance
from triord.orderings import make_instance, var_key
from triord.phylo import _TreeCoverCnf, triplet
from triord.reductions import reduce_1pi5_to_2pi9, reduce_2cat_to_3tree
from triord.solver import _PairOrderCnf


def signed(c):
    """The signed literal of solver literal code c: 2v is v, 2v + 1 is -v.
    The tests below read the solver's clauses, trail and reasons through
    it."""
    return -(c >> 1) if c & 1 else c >> 1


def code(lit):
    """The solver's code of signed literal lit (the inverse of signed)."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def signed_clauses(s):
    return [[signed(c) for c in lits] for lits in s.clauses]


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
    assert signed_clauses(s) == [[1, 2], [1, 3]]
    assert s.solve() is True


def test_add_clause_copies_the_callers_list():
    # deciding x1 false makes the solver move the clause's watch from x1
    # to x3, which reorders its own copy of the clause
    s = Solver(3)
    clause = [1, 2, 3]
    s.add_clause(clause)
    s.add_clause((-2, -3))
    assert s.solve() is True
    first = signed_clauses(s)[0]
    assert sorted(first) == [1, 2, 3] and first != [1, 2, 3]
    assert clause == [1, 2, 3]


def test_literals_outside_the_variables_rejected():
    for lit in (0, 3, -3, 5):
        s = Solver(2)
        with pytest.raises(ValueError):
            s.add_clause([1, lit])


def truth_table_models(nvars, clauses):
    return {bits for bits in itertools.product([False, True], repeat=nvars)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c)
                   for c in clauses)}


def assert_matches_truth_table(s, res, nvars, clauses):
    assert res == brute_sat(nvars, clauses), clauses
    if res:
        model = s.model()
        assert all(any((lit > 0) == model[abs(lit)] for lit in c)
                   for c in clauses)


@st.composite
def formulas(draw):
    """3-10 variables; clauses of 1-6 distinct variables, a first batch and
    a batch to add after a solve."""
    nvars = draw(st.integers(3, 10))
    var_sets = st.lists(st.integers(1, nvars), min_size=1,
                        max_size=min(6, nvars), unique=True)
    clause = var_sets.flatmap(lambda vs: st.lists(
        st.sampled_from((-1, 1)), min_size=len(vs), max_size=len(vs)).map(
            lambda signs: [v * sg for v, sg in zip(vs, signs)]))
    first = draw(st.lists(clause, min_size=1, max_size=5 * nvars))
    later = draw(st.lists(clause, max_size=2 * nvars))
    return nvars, first, later


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_solver_against_truth_tables_with_wide_clauses(formula):
    # clauses of four or more literals, here and in the blocking clauses
    # below, take propagation's general watch branch, which the encoders'
    # ternary clauses never reach
    nvars, first, later = formula
    s = Solver(nvars)
    for c in first:
        s.add_clause(c)
    assert_matches_truth_table(s, s.solve(), nvars, first)
    for c in later:
        s.add_clause(c)
    models = truth_table_models(nvars, first + later)
    found = set()
    while len(found) < 40 and s.solve():
        model = tuple(s.model()[1:])
        assert model in models and model not in found
        found.add(model)
        s.add_clause([-v if bit else v for v, bit in enumerate(model, 1)])
    assert len(found) == min(len(models), 40)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_solve_resumed_one_conflict_at_a_time(formula):
    # each early return leaves the heap, trail and watches for the next
    # call; learnt clauses are kept, so the answer is reached
    nvars, first, later = formula
    s = Solver(nvars)
    for c in first + later:
        s.add_clause(c)
    for _ in range(3 ** nvars):
        res = s.solve(conflict_limit=1)
        if res is not None:
            break
    assert_matches_truth_table(s, res, nvars, first + later)


def test_rescale_keeps_every_free_variable_decidable(monkeypatch):
    # vars 1 and 2 are bumped and freed again; then bumping var 4 past
    # the bound rescales every activity while 1, 2 and 3 are free, so
    # each of them must be found in activity order
    monkeypatch.setattr(_sat, "_RESCALE", 100.0)
    s = Solver(4)
    for lit in (-4, -1, -2):  # decisions at levels 1, 2, 3
        s.lim.append(len(s.trail))
        s._enqueue(code(lit), None)
    s.inc = 1.0
    s._analyze([code(1), code(2)])
    s.inc = 4.0
    s._analyze([code(2)])
    s._backtrack(1)
    s.inc = 101.0
    s._analyze([code(4)])
    assert s.activity[1:] == [0.01, 0.05, 0.0, 1.01]
    s._backtrack(0)
    order = []
    while lit := s._decide():
        order.append(abs(signed(lit)))
        s.lim.append(len(s.trail))
        s._enqueue(lit, None)
    assert order == [4, 2, 1, 3]


def test_heap_invariant_under_a_tiny_rescale_bound(monkeypatch):
    # before every decision each free variable has its live heap entry,
    # so none is lost to a rescale however often one happens
    monkeypatch.setattr(_sat, "_RESCALE", 4.0)
    rng = random.Random(17)
    rescaled = False
    for _ in range(150):
        nvars = rng.randrange(6, 11)
        clauses = [[v * rng.choice([-1, 1])
                    for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(rng.randrange(3 * nvars, 6 * nvars))]
        s = Solver(nvars)
        for c in clauses:
            s.add_clause(c)
        decide = s._decide

        def checked_decide():
            live = {v for act, v in s.heap if -act == s.activity[v]}
            for v in range(1, nvars + 1):
                if not s.lval[code(v)]:
                    assert s.inheap[v] and v in live, v
            return decide()

        s._decide = checked_decide
        assert_matches_truth_table(s, s.solve(), nvars, clauses)
        rescaled = rescaled or s.inc < 1.0
    assert rescaled


def test_search_counters_on_fixed_cases():
    # (conflicts, decisions, propagations) fingerprint the search itself:
    # a change to the solver's bookkeeping must leave them where they are
    cnf = _TreeCoverCnf(sorted(full_triplet_set(6)), 4)
    assert cnf.next(None) is not None  # tau(6) <= 4
    s = cnf.sat
    assert (s.conflicts, s.decisions, s.propagations) == (11, 30, 591)
    gens, fam, k = builtin_gadget("pi9")
    cnf = _PairOrderCnf(gadget_instance(list(gens), fam, k))
    count = 0
    while (sol := cnf.next(None)) is not None:
        count += 1
        cnf.block(sol)
    s = cnf.sat
    assert count == 4
    assert (s.conflicts, s.decisions, s.propagations) == (458, 1359, 23615)


def test_search_counters_on_a_tree_compat_target():
    # the formula of the incompatible tree-compat question: compat --k 3 on
    # the 2cat-to-3tree target of {xy|z, xz|y, yz|x}, triplets in the
    # order k_tree_compatible gives them
    target = reduce_2cat_to_3tree([
        triplet("x", "y", "z"), triplet("x", "z", "y"), triplet("y", "z", "x")])
    trips = sorted(target, key=lambda t: tuple(map(var_key, t)))
    assert (len({x for t in trips for x in t}), len(trips)) == (12, 156)
    cnf = _TreeCoverCnf(trips, 3)
    assert cnf.next(None) is None
    s = cnf.sat
    assert (s.conflicts, s.decisions, s.propagations) == (194, 514, 38475)


# ---------------------------------------------------------------------------
# Conflict analysis: every learnt clause follows from the clauses before
# it, is the first-UIP clause less exactly its implied literals, and
# asserts its first literal after the backjump


def rup(clauses, clause):
    """Whether unit propagation over ``clauses`` from the negation of
    ``clause`` reaches a conflict (reverse unit propagation), by plain
    repeated scans: no watches, nothing shared with the solver."""
    true = {-lit for lit in clause}
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if any(lit in true for lit in c):
                continue
            free = [lit for lit in c if -lit not in true]
            if not free:
                return True
            if len(free) == 1:
                true.add(free[0])
                changed = True
    return False


def first_uip(s, confl):
    """The first-UIP clause of conflict ``confl`` as a set, by resolving
    with the reasons of the trail from its end until one literal of the
    current level is left; level-0 literals are dropped."""
    def level(lit):
        return s.level[abs(lit)]

    cur = len(s.lim)
    clause = {q for q in map(signed, confl) if level(q)}
    for t in map(signed, reversed(s.trail)):
        if sum(level(q) == cur for q in clause) == 1:
            break
        if -t in clause:
            clause.remove(-t)
            clause.update(q for q in map(signed, s.reason[abs(t)])
                          if q != t and level(q))
    return clause


def minimised(s, clause):
    """``clause`` less each literal below the current level whose every
    chain of reasons ends at another such literal of the clause or at
    level 0."""
    below = {abs(q) for q in clause if s.level[abs(q)] < len(s.lim)}

    @functools.cache
    def implied(v):
        r = s.reason[v]
        return r is not None and all(
            u == v or u in below or not s.level[u] or implied(u)
            for u in (abs(signed(q)) for q in r))

    return {q for q in clause if abs(q) not in below or not implied(abs(q))}


def checked_analysis(s, clauses):
    """Make ``s`` check each clause its conflict analysis learns against
    the definitions above, ``clauses`` being the input clauses so far;
    the learnt clauses are logged, in order, to the list returned."""
    analyze = s._analyze
    log = []

    def checked(confl):
        uip = first_uip(s, confl)
        codes, back = analyze(confl)
        learnt = [signed(c) for c in codes]
        levels = [s.level[abs(q)] for q in learnt]
        assert set(learnt) <= uip
        assert set(learnt) == minimised(s, uip)
        assert len(set(learnt)) == len(learnt)
        # learnt[0] alone is of the conflict level, learnt[1] of the
        # backjump level
        assert levels[0] == len(s.lim)
        assert back == max(levels[1:], default=0) < levels[0]
        assert len(learnt) == 1 or levels[1] == back
        assert rup(clauses + log, learnt)
        log.append(learnt)
        return codes, back

    s._analyze = checked
    return log


@st.composite
def threshold_formulas(draw):
    """Random 3-CNF over 16-40 variables at 4.26 clauses per variable,
    where random 3-SAT is hardest: searches of tens of conflicts, with
    long chains of reasons and learnt units.  Two thirds of the clauses
    come first and the rest are added after a solve.  The clauses come
    from a drawn seed, so a failure shrinks in a few steps."""
    nvars = draw(st.integers(16, 40))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    clauses = [[v * rng.choice((-1, 1))
                for v in rng.sample(range(1, nvars + 1), 3)]
               for _ in range(round(4.26 * nvars))]
    cut = 2 * len(clauses) // 3
    return nvars, clauses[:cut], clauses[cut:]


@settings(max_examples=100, deadline=None)
@given(st.one_of(formulas(), threshold_formulas()), st.integers(1, 4))
def test_learnt_clauses_are_minimal_implied_and_asserting(formula, limit):
    # solves stopped by a conflict limit and clauses added between solves
    # keep the learnt clauses of the earlier solves in play
    nvars, first, later = formula
    s = Solver(nvars)
    clauses = [list(c) for c in first]
    for c in first:
        s.add_clause(c)
    log = checked_analysis(s, clauses)
    s.solve(conflict_limit=limit)
    for c in later:
        s.add_clause(c)
        clauses.append(list(c))
    res = None
    while res is None:
        res = s.solve(conflict_limit=limit)
    # the answer is checked too: a model satisfies every clause, and a
    # refutation is the logged clauses, whose last step is the empty one
    if res:
        assert all(any((lit > 0) == s.model()[abs(lit)] for lit in c)
                   for c in clauses)
    else:
        assert rup(clauses + log, [])
    assert s.learnt_literals == sum(map(len, log))


def test_minimisation_stops_at_a_level_outside_the_clause():
    # level 1: a = 1 implies the chain 2..6; level 2: w = 7, and 6 and 7
    # imply y = 8; level 3: e = 9 and y, w imply both z = 10 and -10.
    # The first-UIP clause is (-9, -8, -7), and -8 stays: its reason holds
    # 6, of level 1, which no literal of the clause has, so the walk ends
    # there without reading the reasons of the chain
    s = Solver(10)
    for v in range(1, 6):
        s.add_clause([-v, v + 1])
    s.add_clause([8, -6, -7])
    s.add_clause([10, -9, -8, -7])
    s.add_clause([-10, -9, -8, -7])
    reads = []

    class Reasons(list):
        def __getitem__(self, v):
            reads.append(v)
            return super().__getitem__(v)

    s.reason = Reasons(s.reason)
    for lit in (1, 7, 9):
        s.lim.append(len(s.trail))
        s._enqueue(code(lit), None)
        confl = s._propagate()
    reads.clear()
    codes, back = s._analyze(confl)
    learnt = [signed(c) for c in codes]
    assert set(learnt) == {-9, -8, -7} and learnt[0] == -9 and back == 2
    assert not set(reads) & set(range(2, 7))


# ---------------------------------------------------------------------------
# The clause path: what add_clause keeps, and what the encoders emit


def reference_filter(nvars, lval, lits):
    """What add_clause keeps of ``lits`` at the root assignment ``lval``,
    written plainly: ValueError for a literal outside the variables, None
    for a clause satisfied at root or tautological, else the free literals
    in first-seen order without repeats.  Literals are read in order and
    the first verdict wins."""
    kept = []
    for lit in lits:
        if lit == 0 or abs(lit) > nvars:
            return ValueError
        value = lval[abs(lit)] * (1 if lit > 0 else -1)
        if value > 0 or -lit in kept:
            return None
        if value == 0 and lit not in kept:
            kept.append(lit)
    return kept


def solver_state(s):
    return (s.ok, list(s.lval), list(s.trail), list(s.level), list(s.reason),
            [list(c) for c in s.clauses], [list(w) for w in s.watches])


@st.composite
def root_states_and_clauses(draw):
    """A solver's set-up (root units, then wider clauses that may
    propagate) and one more clause with literals 0 and +-(n + 1),
    repeats, tautologies, and literals fixed at root."""
    nvars = draw(st.integers(1, 6))
    literal = st.integers(1, nvars).flatmap(
        lambda v: st.sampled_from((v, -v)))
    units = [v * draw(st.sampled_from((-1, 1))) for v in draw(
        st.lists(st.integers(1, nvars), max_size=nvars, unique=True))]
    wide = draw(st.lists(st.lists(literal, min_size=2, max_size=4),
                         max_size=6))
    # in-range literals come up twice as often as 0 and +-(n + 1), and
    # root-fixed ones more often still
    lits = [v for v in range(-nvars, nvars + 1) if v]
    pool = [0, nvars + 1, -nvars - 1, *lits, *lits, *units,
            *(-u for u in units)]
    clause = draw(st.lists(st.sampled_from(pool), max_size=7))
    return nvars, units, wide, clause


@settings(max_examples=400, deadline=None)
@given(root_states_and_clauses())
def test_add_clause_against_reference_filter(case):
    nvars, units, wide, clause = case
    s, twin = Solver(nvars), Solver(nvars)
    for c in [[u] for u in units] + wide:
        s.add_clause(c)
        twin.add_clause(c)
    want = reference_filter(
        nvars, [0] + [s.lval[code(v)] for v in range(1, nvars + 1)], clause)
    if not s.ok:  # an unsatisfiable solver ignores every clause
        want = None
    if want is ValueError:
        with pytest.raises(ValueError):
            s.add_clause(clause)
    else:
        s.add_clause(clause)
        # the effect of the kept literals, spelt out on the twin
        if want == []:
            twin.ok = False
        elif want is not None and len(want) == 1:
            twin.ok = twin._enqueue(code(want[0]), None) and \
                twin._propagate() is None
        elif want is not None:
            kept = [code(lit) for lit in want]
            twin.clauses.append(kept)
            twin.watches[kept[0]].append(kept)
            twin.watches[kept[1]].append(kept)
            new = s.clauses[-1]
            assert new is not clause
            assert s.watches[kept[0]][-1] is new
            assert s.watches[kept[1]][-1] is new
    assert solver_state(s) == solver_state(twin)


def cnf_fingerprint(sat):
    return hashlib.sha256(repr((sat.nvars, [
        tuple(c) for c in signed_clauses(sat)])).encode()).hexdigest()


def pi9_gadget():
    gens, fam, k = builtin_gadget("pi9")
    return _PairOrderCnf(gadget_instance(list(gens), fam, k))


@pytest.mark.parametrize("build, digest", [
    (pi9_gadget,
     "8544a37a1a07824b8ba376c26fa35f42ef3a71ce75dcccf189114e54c5299399"),
    (lambda: _PairOrderCnf(reduce_1pi5_to_2pi9(make_instance(
        5, 1, range(1, 5), [(1, 2, 3), (2, 3, 4)]))),
     "24541017b2d2540db4880d163711ca832258c7aac5f7523692794618242cc6b0"),
    (lambda: _PairOrderCnf(make_instance(
        5, 3, range(1, 7), [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6),
                            (6, 1, 2), (5, 2, 1)])),
     "f72e6ddbdc73f612c42ec16199cb1e46fc32ea54e535e4da387a154f796921f1"),
    (lambda: _TreeCoverCnf(sorted(full_triplet_set(6)), 4),
     "893fb64ac826a12eb75a90314010a2d407a7d1795d87b76ee1ee31f4b24717c6"),
], ids=["pi9-gadget", "1pi5-to-2pi9", "k3", "tau6-le-4"])
def test_encoders_emit_the_recorded_clauses(build, digest):
    # sha256 of (nvars, every stored clause in order): work on the encoders
    # or on add_clause must leave the solver's input exactly as it is
    assert cnf_fingerprint(build().sat) == digest


# ---------------------------------------------------------------------------
# Clause templates: records, load, and the encoders' caches


def record_of(nvars, clauses):
    return _sat.record(nvars, [([len(c) for c in clauses],
                                [lit for c in clauses for lit in c])])


def literals(nvars):
    return st.integers(1, nvars).flatmap(lambda v: st.sampled_from((v, -v)))


def clauses_of(rec):
    lits = iter(rec.lits)
    return [[next(lits) for _ in range(width)] for width in rec.widths]


@st.composite
def record_cases(draw):
    """A record of clauses of width >= 2 over distinct variables of
    1..n0, a loaded solver over n >= n0 variables, clauses to add after
    the load, and the conflict limits of the solves that follow."""
    n0 = draw(st.integers(2, 6))
    n = n0 + draw(st.integers(0, 3))
    prefix = [[v * draw(st.sampled_from((-1, 1))) for v in vs]
              for vs in draw(st.lists(st.lists(
                  st.integers(1, n0), min_size=2, max_size=6, unique=True),
                  max_size=14))]
    more = draw(st.lists(st.lists(literals(n), min_size=1, max_size=6),
                         max_size=8))
    limits = draw(st.lists(st.integers(0, 4), max_size=3))
    return n0, n, prefix, more, limits


@settings(max_examples=300, deadline=None)
@given(record_cases())
def test_loaded_solver_matches_its_add_clause_twin(case):
    n0, n, prefix, more, limits = case
    rec = record_of(n0, prefix)
    assert clauses_of(rec) == prefix
    loaded, twin = Solver(n), Solver(n)
    loaded.load(rec)
    for c in prefix:
        twin.add_clause(c)
    assert solver_state(loaded) == solver_state(twin)
    for c in more:
        loaded.add_clause(c)
        twin.add_clause(c)
    assert solver_state(loaded) == solver_state(twin)
    for limit in limits + [None]:
        result = loaded.solve(conflict_limit=limit)
        assert result == twin.solve(conflict_limit=limit)
        if result:
            assert loaded.model() == twin.model()
        assert (loaded.conflicts, loaded.decisions, loaded.propagations) == \
            (twin.conflicts, twin.decisions, twin.propagations)
        assert solver_state(loaded) == solver_state(twin)
    # the record is a copy: solving a loaded solver leaves it as it was
    assert clauses_of(rec) == prefix


def learnt_at_no_root_assignment():
    """A satisfiable random 3-CNF whose solve learnt clauses but fixed no
    variable at the root."""
    for seed in itertools.count():
        rng = random.Random(seed)
        s = Solver(14)
        for _ in range(58):
            s.add_clause([v * rng.choice((-1, 1))
                          for v in rng.sample(range(1, 15), 3)])
        if s.solve() and s.n_learnt and not s.trail:
            return s


def test_load_refuses_used_solvers_and_missing_variables():
    rec = record_of(5, [[1, -5], [2, 3, 4]])
    with_clause = Solver(5)
    with_clause.add_clause([1, 2])
    assigned = Solver(5)
    assigned.add_clause([2])
    refuted = Solver(5)
    refuted.add_clause([])
    learnt = learnt_at_no_root_assignment()
    for s in (with_clause, assigned, refuted, learnt, Solver(4)):
        with pytest.raises(ValueError):
            s.load(rec)
    # a record's variable count binds even where its clauses use fewer
    with pytest.raises(ValueError):
        Solver(2).load(record_of(9, [[1, -2]]))
    wide = Solver(9)
    wide.load(record_of(2, [[1, -2]]))
    assert signed_clauses(wide) == [[1, -2]]


def test_record_past_16_bit_literals():
    big = 1 << 15
    assert record_of(big - 1, [[1, 2]]).lits.format == "h"
    clauses = [[big, -1], [-big, 2, -(big - 1)], [1, big - 1]]
    rec = record_of(big, clauses)
    assert rec.lits.format == "i" and clauses_of(rec) == clauses
    twin = Solver(big + 2)
    for c in clauses:
        twin.add_clause(c)
    loaded = Solver(big + 2)
    loaded.load(rec)
    assert solver_state(loaded) == solver_state(twin)


def test_templates_evict_the_least_recently_used():
    built = []

    def build(name, width):
        built.append(name)
        return record_of(width, [list(range(1, width + 1))])

    cache = _sat.Templates(7)
    a, b = cache.get(("a", 3), build), cache.get(("b", 3), build)
    assert cache.get(("a", 3), build) is a  # "b" is now the least recent
    c = cache.get(("c", 2), build)  # 8 literals: "b" goes
    assert cache.get(("a", 3), build) is a and cache.get(("c", 2), build) is c
    assert built == ["a", "b", "c"]
    assert cache.get(("b", 3), build) is not b  # built again; "a" goes
    assert cache.get(("c", 2), build) is c
    assert built == ["a", "b", "c", "b"]
    cache.get(("big", 8), build)  # over the bound alone: everything goes
    for key in (("c", 2), ("big", 8)):
        cache.get(key, build)
    assert built == ["a", "b", "c", "b", "big", "c", "big"]
    cache.clear()
    b, c = cache.get(("b", 3), build), cache.get(("c", 2), build)
    d = cache.get(("d", 2), build)  # the cleared ones no longer count
    assert [cache.get(key, build) for key in
            (("b", 3), ("c", 2), ("d", 2))] == [b, c, d]
    assert built[-3:] == ["b", "c", "d"]


def watch_lists(sat):
    return [[tuple(c) for c in w] for w in sat.watches]


def solve_record(sat):
    result = sat.solve()
    return (result, sat.model() if result else None,
            sat.conflicts, sat.decisions, sat.propagations)


def tree_question(labels, rng):
    """2n triplets (every one for n = 3) that use all n labels."""
    pool = [triplet(a, b, c) for a, b, c in
            itertools.permutations(labels, 3) if a < b]
    while True:
        trips = sorted(rng.sample(pool, min(len(pool), 2 * len(labels))))
        if len({x for t in trips for x in t}) == len(labels):
            return trips


def encoder_pairs(kind):
    """(encoder class, build, first, second): two questions of one shape
    for every n <= 6 and k <= 3; the tree ones on different labels, the
    order ones with different constraint counts, either way round."""
    rng = random.Random(23)
    for n in range(3, 7):
        for k in (1, 2, 3):
            if kind == "order":
                vars_ = list(range(1, n + 1))
                few, many = ([tuple(rng.sample(vars_, 3)) for _ in range(m)]
                             for m in (2, 5))
                for a, b in ((few, many), (many, few)):
                    yield (_PairOrderCnf, _PairOrderCnf,
                           make_instance(9, k, vars_, a),
                           make_instance(9, k, vars_, b))
            else:
                yield (_TreeCoverCnf,
                       lambda trips: _TreeCoverCnf(trips, k),
                       tree_question(range(1, n + 1), rng),
                       tree_question(range(10, 10 + n), rng))


@pytest.mark.parametrize("kind", ["tree", "order"])
def test_warm_template_gives_the_cold_solver(monkeypatch, kind):
    """A question's solver is the same whether its shape's record was
    just built (cold) or kept from an earlier question (warm), and equals
    the twin that add_clause builds from the same clauses."""
    loads = []
    load = Solver.load

    def logged_load(self, rec):
        loads.append(rec)
        load(self, rec)

    def add_clause_load(self, rec):
        for c in clauses_of(rec):
            self.add_clause(c)

    def state(sat):
        return cnf_fingerprint(sat), watch_lists(sat), solver_state(sat)

    monkeypatch.setattr(Solver, "load", logged_load)
    for cls, build, first, second in encoder_pairs(kind):
        with monkeypatch.context() as m:
            m.setattr(Solver, "load", add_clause_load)
            twin = build(second).sat
        want = state(twin), solve_record(twin)
        cls.templates.clear()
        cold = build(second).sat
        assert (state(cold), solve_record(cold)) == want
        # the first question of the shape may have been solved already,
        # which reorders its clause lists in place
        for solve_first in (False, True):
            cls.templates.clear()
            other = build(first).sat
            if solve_first:
                other.solve()
            warm = build(second).sat
            assert loads[-1] is loads[-2]
            assert (state(warm), solve_record(warm)) == want


@pytest.mark.parametrize("cls, build, digest", [
    (_PairOrderCnf, pi9_gadget,
     "8544a37a1a07824b8ba376c26fa35f42ef3a71ce75dcccf189114e54c5299399"),
    (_TreeCoverCnf, lambda: _TreeCoverCnf(sorted(full_triplet_set(6)), 4),
     "893fb64ac826a12eb75a90314010a2d407a7d1795d87b76ee1ee31f4b24717c6"),
], ids=["order", "tree"])
def test_record_over_the_templates_bound_is_not_kept(monkeypatch, cls, build,
                                                     digest):
    builder = "transitivity" if cls is _PairOrderCnf else "closure"
    built = []
    make = getattr(cls, builder)
    monkeypatch.setattr(cls, builder, staticmethod(
        lambda *key: built.append(key) or make(*key)))
    monkeypatch.setattr(cls, "templates", _sat.Templates(10))
    for _ in range(2):
        assert cnf_fingerprint(build().sat) == digest
    assert len(built) == 2 and built[0] == built[1]  # built each time


# ---------------------------------------------------------------------------
# DIMACS export of a slot CNF


def parse_dimacs(text):
    """(nvars, clauses) of DIMACS text with one clause per line."""
    header, *lines = text.splitlines()
    p, cnf, nvars, nclauses = header.split()
    assert (p, cnf) == ("p", "cnf")
    clauses = []
    for line in lines:
        *lits, end = map(int, line.split())
        assert end == 0 and 0 not in lits
        clauses.append(lits)
    assert len(clauses) == int(nclauses)
    return int(nvars), clauses


def reloaded_verdict(cnf):
    """The export of cnf, checked against its solver, then solved by a
    fresh solver that add_clause builds from it."""
    sat = cnf.sat
    nvars, clauses = parse_dimacs(cnf.dimacs())
    assert nvars == sat.nvars
    assert clauses == ([[signed(c)] for c in sat.trail] + signed_clauses(sat)
                       + ([] if sat.ok else [[]]))
    twin = Solver(nvars)
    for c in clauses:
        twin.add_clause(c)
    return twin.solve()


@pytest.mark.parametrize("caterpillars", [False, True],
                         ids=["tree", "caterpillar"])
def test_tau_dimacs_reloads_to_the_same_verdict(caterpillars):
    for n in range(4, 7):
        for k in range(1, 5):
            cnf = tau_cnf(n, k, caterpillars)
            assert reloaded_verdict(cnf) == \
                tau_decision(n, k, caterpillars).answer
    # k = 2 pins the three orientations of one leaf triple into two slots
    refuted = tau_cnf(4, 2)
    assert not refuted.sat.ok and "0" in refuted.dimacs().splitlines()


def test_pair_order_dimacs_reloads_to_the_same_verdict():
    rng = random.Random(29)
    for k in (1, 2):
        for _ in range(6):
            inst = make_instance(9, k, range(5), [
                tuple(rng.sample(range(5), 3)) for _ in range(6)])
            cnf = _PairOrderCnf(inst)
            assert reloaded_verdict(cnf) == (cnf.next(None) is not None)


def test_dimacs_refuses_once_a_conflict_is_analysed():
    cnf = tau_cnf(5, 3)  # tau(5) = 4: refuted only after some conflicts
    before = cnf.dimacs()
    assert cnf.next(None) is None and cnf.sat.conflicts > 0
    with pytest.raises(ValueError):
        cnf.dimacs()
    assert before == tau_cnf(5, 3).dimacs()
