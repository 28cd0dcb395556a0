"""Exact decision and enumeration for k-order instances.

- ``solve`` decides: the always-satisfiable 2-order families (Pi2, Pi3,
  Pi7, Pi8, Pi10 with k >= 2) by the reversal pair {alpha, reverse alpha},
  every other instance by CDCL over pairwise order relations.
- ``enumerate_solutions`` lists every solution: it builds the k orderings
  position by position, in turn; a constraint stays "alive" on an ordering
  until its variables' placements rule out every pattern there, and a
  branch is cut once some constraint is dead on all k orderings.
- ``mode="exhaustive"`` answers both questions by scanning all multisets of
  k full orderings (per-ordering constraint bitmasks, so the inner loop is
  a word OR); it is the independent oracle for the two engines above.

Solutions are multisets of orderings (size exactly k, the reversal pair
aside; "at most k" instances are covered because members may repeat), each
checked against the instance before it is returned.  Enumeration output is
canonical: each multiset sorted lexicographically, the list likewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from ._sat import Solver as _CnfSolver
from .orderings import (
    TRIVIAL_2ORDER, Instance, LinearOrdering, reversal, satisfies,
)


class BudgetExceeded(Exception):
    """Search stopped at the node limit; the answer is unknown."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "branch_and_bound"  # or "exhaustive"
    # CDCL conflicts for solve() by default, search nodes otherwise
    node_limit: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "branch_and_bound"):
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

    def to_lists(self):
        return [list(o.seq) for o in self.orderings]


def check_solution(inst: Instance, sol: Solution) -> bool:
    """Every constraint pi-satisfied by at least one member ordering."""
    if len(sol.orderings) > inst.k:
        return False
    for o in sol.orderings:
        if o.domain() != inst.vars:
            raise ValueError("solution ordering domain differs from instance")
    return all(
        any(satisfies(inst.pi, o, c) for o in sol.orderings)
        for c in inst.constraints
    )


# ---------------------------------------------------------------------------
# Exhaustive engine


def _constraint_masks(inst: Instance, perms):
    """Bitmask of satisfied constraints for each full ordering."""
    masks = []
    for alpha in perms:
        m = 0
        for ci, c in enumerate(inst.constraints):
            if satisfies(inst.pi, alpha, c):
                m |= 1 << ci
        masks.append(m)
    return masks


def _exhaustive(inst: Instance, cfg: SolverConfig, want_all: bool):
    perms = [LinearOrdering(p) for p in permutations(inst.sorted_vars())]
    masks = _constraint_masks(inst, perms)
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
    return found


# ---------------------------------------------------------------------------
# Positional enumeration engine


def _chain_alive(chain, pos) -> bool:
    """Whether one pattern chain can still match a partial ordering.

    ``pos`` maps placed variables to positions.  Unplaced variables will land
    strictly after every placed one, so a chain is still feasible iff its
    placed members form a position-increasing prefix of the chain.
    """
    prev = 0
    unplaced = False
    for v in chain:
        p = pos.get(v)
        if p is None:
            unplaced = True
        elif unplaced or p <= prev:
            return False
        else:
            prev = p
    return True


class _BnB:
    """Every placement sequence of the k orderings that no constraint
    rules out.  Node d places the next variable of ordering d % k."""

    def __init__(self, inst: Instance, cfg: SolverConfig):
        self.node_limit = cfg.node_limit
        self.k = inst.k
        self.vars = inst.sorted_vars()
        self.chains = [
            [tuple(c[s - 1] for s in p) for p in inst.pi.perms]
            for c in inst.constraints
        ]
        self.by_var: dict = {v: [] for v in self.vars}
        for ci, c in enumerate(inst.constraints):
            for v in set(c):
                self.by_var[v].append(ci)
        nC = len(inst.constraints)
        self.alive = [[True] * self.k for _ in range(nC)]
        self.possible = [self.k] * nC  # orderings where still alive
        self.seqs = [[] for _ in range(self.k)]
        self.pos = [dict() for _ in range(self.k)]
        self.nodes = 0
        self.found: list[Solution] = []

    def _place(self, t, v):
        """Place v next in ordering t; return the constraints it killed."""
        self.seqs[t].append(v)
        pos = self.pos[t]
        pos[v] = len(self.seqs[t])
        killed = []
        for ci in self.by_var[v]:
            if not self.alive[ci][t]:
                continue
            for chain in self.chains[ci]:
                if _chain_alive(chain, pos):
                    break
            else:
                self.alive[ci][t] = False
                self.possible[ci] -= 1
                killed.append(ci)
        return killed

    def _unplace(self, t, v, killed):
        for ci in killed:
            self.alive[ci][t] = True
            self.possible[ci] += 1
        del self.pos[t][v]
        self.seqs[t].pop()

    def run(self):
        self._search(0)
        return self.found

    def _search(self, depth):
        if depth == self.k * len(self.vars):
            self.found.append(Solution(LinearOrdering(s) for s in self.seqs))
            return
        t = depth % self.k
        placed = self.pos[t]
        for v in self.vars:
            if v in placed:
                continue
            self.nodes += 1
            if self.node_limit is not None and self.nodes > self.node_limit:
                raise BudgetExceeded(self.nodes)
            killed = self._place(t, v)
            if all(self.possible[ci] for ci in killed):
                self._search(depth + 1)
            self._unplace(t, v, killed)


# ---------------------------------------------------------------------------
# Decision engine over pairwise order relations
#
# For yes/no questions the positional search above is outclassed by
# branching on "u precedes v in ordering t" Booleans with clause learning:
# a linear order per slot is a transitively closed orientation of the
# variable pairs, and each constraint must match an allowed pattern in at
# least one slot.  Enumeration keeps the positional engine, which yields
# the solution multisets directly.


def _cnf_decide(inst: Instance, cfg: SolverConfig) -> Optional[Solution]:
    vars_ = inst.sorted_vars()
    n, k = len(vars_), inst.k
    vidx = {v: i for i, v in enumerate(vars_)}
    npairs = n * (n - 1) // 2
    pair_id = {p: i for i, p in enumerate(combinations(range(n), 2))}

    def before(u: int, v: int, t: int) -> int:
        # literal for "position of u < position of v" in slot t
        if u < v:
            return 1 + pair_id[(u, v)] * k + t
        return -(1 + pair_id[(v, u)] * k + t)

    sat = _CnfSolver(npairs * k + len(inst.constraints) * k)

    def selector(ci: int, t: int) -> int:
        return npairs * k + ci * k + t + 1

    for i, j, l in combinations(range(n), 3):
        for t in range(k):
            ij, jl, il = before(i, j, t), before(j, l, t), before(i, l, t)
            sat.add_clause([-ij, -jl, il])
            sat.add_clause([ij, jl, -il])
    allowed = {tuple(p) for p in inst.pi.perms}
    for ci, c in enumerate(inst.constraints):
        for p in permutations((1, 2, 3)):
            if p in allowed:
                continue
            u, v, w = (vidx[c[s - 1]] for s in p)
            for t in range(k):
                sat.add_clause([-selector(ci, t), -before(u, v, t),
                                -before(v, w, t)])
        sat.add_clause([selector(ci, t) for t in range(k)])

    res = sat.solve(conflict_limit=cfg.node_limit)
    if res is None:
        raise BudgetExceeded(cfg.node_limit)
    if not res:
        return None
    model = sat.model()
    orderings = []
    for t in range(k):
        rank = {v: sum(model[abs(before(u, w, t))] == (before(u, w, t) > 0)
                       for u in range(n) if u != w)
                for w, v in enumerate(vars_)}
        # rank counts predecessors, so sorting by it linearizes the slot
        orderings.append(LinearOrdering(
            sorted(vars_, key=lambda v: rank[v])))
    sol = Solution(orderings)
    if not check_solution(inst, sol):
        raise RuntimeError("CNF model orderings do not satisfy the instance")
    return sol


# ---------------------------------------------------------------------------
# Public API


def solve(inst: Instance, cfg: SolverConfig = SolverConfig()) -> Optional[Solution]:
    """A satisfying Solution, or None (a proof of unsatisfiability).

    Raises BudgetExceeded when node_limit is hit before an answer.
    """
    if cfg.mode == "exhaustive":
        found = _exhaustive(inst, cfg, want_all=False)
        return found[0] if found else None
    if inst.pi.index in TRIVIAL_2ORDER and inst.k >= 2:
        sol = trivial_pair_solution(inst, LinearOrdering(inst.sorted_vars()))
        if not check_solution(inst, sol):
            raise RuntimeError("reversal pair does not satisfy the instance")
        return sol
    return _cnf_decide(inst, cfg)


def enumerate_solutions(inst: Instance,
                        cfg: SolverConfig = SolverConfig()) -> list[Solution]:
    """The complete, canonically ordered list of satisfying multisets.

    Raises BudgetExceeded when node_limit is hit before the list is complete.
    """
    if cfg.mode == "exhaustive":
        found = _exhaustive(inst, cfg, want_all=True)
    else:
        found = _BnB(inst, cfg).run()
    uniq = sorted(set(found), key=Solution.sort_key)
    if not all(check_solution(inst, sol) for sol in uniq):
        raise RuntimeError("enumerated multiset does not satisfy the instance")
    return uniq


def trivial_pair_solution(inst: Instance, alpha: LinearOrdering) -> Solution:
    """The {alpha, reversal(alpha)} witness for the always-satisfiable
    2-order families (indices 2, 3, 7, 8, 10)."""
    return Solution([alpha, reversal(alpha)])
