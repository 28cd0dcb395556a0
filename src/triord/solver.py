"""Exact decision and enumeration for k-order instances.

- ``solve`` decides: the always-satisfiable 2-order families (Pi2, Pi3,
  Pi7, Pi8, Pi10 with k >= 2) by the reversal pair {alpha, reverse alpha},
  every other instance by one CDCL solve of the pair-order CNF
  (``_PairOrderCnf``).
- ``enumerate_solutions`` lists every solution by blocking-clause
  enumeration over the same CNF (Toda & Soh, "Implementing efficient all
  solutions SAT solvers", ACM JEA 2016): after each model it blocks every
  slot arrangement of the found multiset and solves again, until the
  formula is unsatisfiable.
- ``mode="cdcl"`` (the default) runs the two above.  ``_SlotCnf`` is
  the part of the pair-order CNF that ``phylo._TreeCoverCnf`` shares:
  variable layout, budgeted solve, blocking, enumeration and DIMACS
  export.
- ``mode="exhaustive"`` answers both questions by scanning all multisets of
  k full orderings (per-ordering constraint bitmasks, so the inner loop is
  a word OR); it is the independent oracle for the CDCL engine.

Solutions are multisets of orderings (size exactly k, the reversal pair
aside; "at most k" instances are covered because members may repeat), each
checked against the instance once, before it is returned.  Enumeration
output is canonical: each multiset sorted lexicographically, the list
likewise.  ``node_limit`` counts CDCL conflicts, summed over an
enumeration's solves, and search nodes in exhaustive mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterator, Optional

from ._sat import (
    Record, Solver as _CnfSolver, Templates as _Templates, record, signed,
)
from .orderings import (
    TRIVIAL_2ORDER, Instance, LinearOrdering, reversal,
)


class BudgetExceeded(Exception):
    """Search stopped at the node limit; the answer is unknown."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "cdcl"  # or "exhaustive"
    # CDCL conflicts by default, search nodes in exhaustive mode
    node_limit: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "cdcl"):
            raise ValueError(f"unknown mode {self.mode!r}")


class Solution:
    """A multiset of orderings, stored in canonical (lexicographic) order."""

    __slots__ = ("orderings",)

    def __init__(self, orderings):
        ords = tuple(sorted(orderings, key=LinearOrdering.sort_key))
        object.__setattr__(self, "orderings", ords)

    def __setattr__(self, name, value):
        raise AttributeError("Solution is immutable")

    def __eq__(self, other):
        return isinstance(other, Solution) and self.orderings == other.orderings

    def __hash__(self):
        return hash(self.orderings)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.orderings)) + "}"

    def sort_key(self):
        return tuple(o.sort_key() for o in self.orderings)

    def __iter__(self):
        return iter(self.orderings)

    def to_lists(self):
        return [list(o.seq) for o in self.orderings]


def check_solution(inst: Instance, sol: Solution) -> bool:
    """Every constraint pi-satisfied by at least one member ordering.

    False when the multiset has more than k members; ValueError when a
    member orders other variables than the instance.  Each (constraint,
    member) costs three position lookups and one bit test of the family's
    comparison codes (see ``orderings``)."""
    if len(sol.orderings) > inst.k:
        return False
    for o in sol.orderings:
        if o.domain() != inst.vars:
            raise ValueError("solution ordering domain differs from instance")
    allowed = inst.pi.codes
    members = [o.inverse for o in sol.orderings]
    for x, y, z in inst.constraints:
        for pos in members:
            a, b, c = pos[x], pos[y], pos[z]
            if allowed >> ((a < b) << 2 | (b < c) << 1 | (a < c)) & 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive engine


def _constraint_masks(inst: Instance, perms):
    """Bitmask of satisfied constraints for each full ordering.

    Each constraint costs three position lookups and one bit test of the
    family's comparison codes (see ``orderings``)."""
    allowed = inst.pi.codes
    bits = [(1 << ci, c) for ci, c in enumerate(inst.constraints)]
    masks = []
    for alpha in perms:
        pos = alpha.inverse
        m = 0
        for bit, (x, y, z) in bits:
            a, b, c = pos[x], pos[y], pos[z]
            if allowed >> ((a < b) << 2 | (b < c) << 1 | (a < c)) & 1:
                m |= bit
        masks.append(m)
    return masks


def _exhaustive(inst: Instance, cfg: SolverConfig, want_all: bool):
    """Depth first over the index tuples i_1 <= ... <= i_k of ``perms``,
    smallest first, one search node per index tried in a slot.  The first
    k - 1 slots are an explicit stack; the last is one scan, whose nodes
    are counted together, so that the budget is checked before it."""
    perms = [LinearOrdering(p) for p in permutations(inst.sorted_vars())]
    masks = _constraint_masks(inst, perms)
    full = (1 << len(inst.constraints)) - 1
    n, k, limit = len(perms), inst.k, cfg.node_limit
    found = []
    nodes = 0
    prefix, accs = [], [0]  # the first slots; the OR of their masks
    i = 0  # the index to try next, in slot len(prefix)
    while True:
        if len(prefix) < k - 1:
            nodes += 1
            if limit is not None and nodes > limit:
                raise BudgetExceeded(nodes)
            prefix.append(i)
            accs.append(accs[-1] | masks[i])
            continue  # the next slot starts at the same index
        stop = n if limit is None else min(n, i + limit - nodes)
        acc = accs[-1]
        for j in range(i, stop):
            if acc | masks[j] == full:
                found.append(_checked(inst, Solution(
                    [perms[t] for t in prefix] + [perms[j]])))
                if not want_all:
                    return found
        nodes += stop - i
        if stop < n:
            raise BudgetExceeded(nodes + 1)
        # back to the deepest slot that can take a larger index
        while prefix and prefix[-1] == n - 1:
            prefix.pop()
            accs.pop()
        if not prefix:
            return found
        i = prefix.pop() + 1
        accs.pop()


# ---------------------------------------------------------------------------
# CDCL engine: the slot-CNF base, and the pairwise order relations


class _SlotCnf:
    """A CNF over k tree or order slots, solved by the CDCL core, and its
    checked answers.

    Item i in slot t is variable 1 + i * k + t, so ``model[1 + t::k]``
    reads slot t.  A subclass loads the clauses of its shape from its
    ``templates`` cache, adds the clauses of its question, and supplies
    ``_decode`` (a model to a checked answer) and ``_shown`` (the true
    slot-0 literals of one member of an answer)."""

    def __init__(self, sat: _CnfSolver, k: int, key: tuple,
                 build: Callable[..., Record]):
        sat.load(self.templates.get(key, build))
        self.sat, self.k = sat, k

    def next(self, node_limit: Optional[int]):
        """A checked answer not blocked yet, or None when none is left.

        Raises BudgetExceeded when the solver's conflicts, summed over
        every call, would pass node_limit."""
        sat = self.sat
        limit = None if node_limit is None else node_limit - sat.conflicts
        res = sat.solve(conflict_limit=limit)
        if res is None:
            raise BudgetExceeded(node_limit)
        return self._decode(sat.model()) if res else None

    def block(self, members) -> None:
        """Exclude an answer: one clause per distinct slot arrangement of
        its members, negating every literal a member makes true in its
        slot."""
        shown = {m: self._shown(m) for m in members}
        for arrangement in dict.fromkeys(permutations(members)):
            self.sat.add_clause([-s - t if s > 0 else t - s
                                 for t, m in enumerate(arrangement)
                                 for s in shown[m]])

    def answers(self, node_limit: Optional[int]) -> Iterator:
        """Every answer in turn, each blocked once the next is asked for;
        node_limit bounds the conflicts over all of them (see next)."""
        while (answer := self.next(node_limit)) is not None:
            yield answer
            self.block(answer)

    def dimacs(self) -> str:
        """The formula the solver searches, in DIMACS: its root trail as
        unit clauses, its clauses, and the empty clause once it is
        refuted at the root.  Learnt clauses would join the clauses, so
        after a conflict is analysed this is a ValueError."""
        sat = self.sat
        if sat.conflicts:
            raise ValueError("the solver has learnt clauses: its clauses "
                             "are no longer the formula alone")
        clauses = [[code] for code in sat.trail] + sat.clauses
        if not sat.ok:
            clauses.append([])
        return "".join([f"p cnf {sat.nvars} {len(clauses)}\n",
                        *(" ".join([*map(str, map(signed, c)), "0"]) + "\n"
                          for c in clauses)])


class _PairOrderCnf(_SlotCnf):
    """The CNF of an instance over "u precedes v in slot t" Booleans, and a
    checked decoder of its models.

    A linear order per slot is a transitively closed orientation of the
    variable pairs; selector (ci, t) says that constraint ci matches an
    allowed pattern in slot t, by one clause per pattern of
    ``pi.banned`` that forbids its order there, and every constraint
    needs a selector.
    Pair (i, j), i < j, in slot t is variable 1 + pair_index * k + t, true
    when i precedes j.

    Slot symmetry is broken by one root unit clause: constraint 0 holds
    in slot 0.  This loses no solution: some order of any solution
    satisfies constraint 0, and permuting the slots puts it in slot 0, so
    every multiset keeps a slot arrangement that meets the pin, and
    ``block`` removes all of its arrangements.  With k = 1 the pin is the
    at-least-one clause of constraint 0, so the CNF does not change.

    The transitivity clauses come first and depend only on (n, k):
    ``transitivity`` writes them as a record (see _sat) that every
    instance of the shape loads from ``templates``; its selector
    variables follow the pairs whatever their number."""

    #: transitivity records by (variables, k), up to 2^20 literals: 13
    #: variables at k = 2 have 3,432 (9 kB with the widths)
    templates = _Templates(1 << 20)

    @staticmethod
    def transitivity(n: int, k: int) -> Record:
        """i < j and j < l imply i < l, and the reverse, for each i < j < l
        and slot t in turn."""
        first = {pair: 1 + p * k  # its slot-0 variable; slot t adds t
                 for p, pair in enumerate(combinations(range(n), 2))}

        def chunks():  # one per i
            for i in range(n):
                lits: list[int] = []
                for j, l in combinations(range(i + 1, n), 2):
                    ij, jl, il = first[i, j], first[j, l], first[i, l]
                    for t in range(k):
                        lits += (-ij - t, -jl - t, il + t,
                                 ij + t, jl + t, -il - t)
                yield (3,) * (len(lits) // 3), lits
        return record(len(first) * k, chunks())

    def __init__(self, inst: Instance):
        self.inst = inst
        self.vars = vars_ = inst.sorted_vars()
        n, k = len(vars_), inst.k
        vidx = {v: i for i, v in enumerate(vars_)}
        self.pairs = list(combinations(range(n), 2))
        npairs = len(self.pairs)
        # before[t][u][v]: the literal "u precedes v in slot t"
        before = [[[0] * n for _ in range(n)] for _ in range(k)]
        for p, (i, j) in enumerate(self.pairs):
            for t in range(k):
                lit = 1 + p * k + t
                before[t][i][j] = lit
                before[t][j][i] = -lit

        super().__init__(
            _CnfSolver(npairs * k + len(inst.constraints) * k), k, (n, k),
            self.transitivity)
        add = self.sat.add_clause
        banned = inst.pi.banned
        for ci, (x, y, z) in enumerate(inst.constraints):
            sel = npairs * k + ci * k + 1  # selector (ci, t) is sel + t
            c = vidx[x], vidx[y], vidx[z]
            for i, j, l in banned:
                u, v, w = c[i], c[j], c[l]
                for t, b in enumerate(before):
                    add([-sel - t, -b[u][v], -b[v][w]])
            add(list(range(sel, sel + k)))
        if inst.constraints:
            add([npairs * k + 1])  # selector (0, 0), WLOG: see the docstring

    def _decode(self, model: list[bool]) -> Solution:
        orderings = []
        for t in range(self.k):
            rank = [0] * len(self.vars)  # predecessors in slot t
            for (i, j), before in zip(self.pairs, model[1 + t::self.k]):
                rank[j if before else i] += 1
            seq = [None] * len(self.vars)
            for v, r in zip(self.vars, rank):
                seq[r] = v
            orderings.append(LinearOrdering(seq))
        return _checked(self.inst, Solution(orderings))

    def _shown(self, o: LinearOrdering) -> list[int]:
        """Pair (i, j)'s slot-0 literal, true when i precedes j in o."""
        pos = [o.position(v) for v in self.vars]
        return [1 + p * self.k if pos[i] < pos[j] else -1 - p * self.k
                for p, (i, j) in enumerate(self.pairs)]


# ---------------------------------------------------------------------------
# Public API


def _checked(inst: Instance, sol: Solution) -> Solution:
    if not check_solution(inst, sol):
        raise RuntimeError(f"{sol!r} does not satisfy the instance")
    return sol


def solve(inst: Instance, cfg: SolverConfig = SolverConfig()) -> Optional[Solution]:
    """A satisfying Solution, or None (a proof of unsatisfiability).

    Raises BudgetExceeded when node_limit is hit before an answer.
    """
    if cfg.mode == "exhaustive":
        found = _exhaustive(inst, cfg, want_all=False)
        return found[0] if found else None
    if inst.pi.index in TRIVIAL_2ORDER and inst.k >= 2:
        return _checked(inst, trivial_pair_solution(
            inst, LinearOrdering(inst.sorted_vars())))
    return _PairOrderCnf(inst).next(cfg.node_limit)


def enumerate_solutions(inst: Instance,
                        cfg: SolverConfig = SolverConfig()) -> list[Solution]:
    """The complete, canonically ordered list of satisfying multisets.

    Raises BudgetExceeded when node_limit is hit before the list is complete.
    """
    if cfg.mode == "exhaustive":
        found = _exhaustive(inst, cfg, want_all=True)
    else:
        found = list(_PairOrderCnf(inst).answers(cfg.node_limit))
    return sorted(found, key=Solution.sort_key)


def trivial_pair_solution(inst: Instance, alpha: LinearOrdering) -> Solution:
    """The {alpha, reversal(alpha)} witness for the always-satisfiable
    2-order families (indices 2, 3, 7, 8, 10)."""
    return Solution([alpha, reversal(alpha)])
