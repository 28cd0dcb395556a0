"""Minimal conflict-driven clause-learning solver for propositional CNF.

Literals are nonzero ints: ``+v`` asserts variable ``v`` (numbered from
1), ``-v`` its negation.  The implementation is the textbook loop —
two-watched-literal propagation, first-UIP clause learning, activity
driven decisions with phase saving, and geometric restarts — tuned for
the mid-sized structured formulas produced elsewhere in this package,
not for competition inputs.

The per-literal tables are indexed by the literal itself, as in MiniSat
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).  ``lval`` and
``watches`` have 2n + 1 entries for n variables: ``lval[v]`` is at index
v and ``lval[-v]`` wraps to index 2n + 1 - v, so either polarity is one
list index and no literal is encoded.  ``lval[lit]`` is +1 when ``lit``
is true, -1 when false and 0 when free; an assignment writes both
polarities.  Watch lists and ``reason`` hold the clause lists
themselves, and a decision's reason is None.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

_VAR_DECAY = 1.0 / 0.95
_RESCALE = 1e100


class Solver:
    def __init__(self, nvars: int = 0):
        self.nvars = nvars
        self.clauses: list[list[int]] = []
        self.lval: list[int] = [0] * (2 * nvars + 1)
        self.watches: list[list[list[int]]] = [
            [] for _ in range(2 * nvars + 1)]
        self.level: list[int] = [0] * (nvars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (nvars + 1)
        self.activity: list[float] = [0.0] * (nvars + 1)
        self.phase: list[int] = [-1] * (nvars + 1)
        self.trail: list[int] = []
        self.lim: list[int] = []  # trail length at each decision level
        self.qhead = 0
        self.inc = 1.0
        self.heap: list[tuple[float, int]] = [
            (0.0, v) for v in range(1, nvars + 1)]  # already a heap
        self.ok = True
        self.n_learnt = 0
        self.conflicts = 0  # over every solve() call
        self._model: list[bool] = []

    # -- construction -----------------------------------------------------

    def add_clause(self, lits) -> None:
        """Add a clause over variables 1..nvars; may immediately make the
        formula unsatisfiable.  ``lits`` is copied, never kept."""
        if not self.ok:
            return
        lval = self.lval
        n = self.nvars
        out = []
        for lit in lits:
            if not 0 < abs(lit) <= n:
                raise ValueError(f"literal {lit} outside variables 1..{n}")
            val = lval[lit]
            if val > 0 or -lit in out:
                return  # tautological or already satisfied at root level
            if not val and lit not in out:
                out.append(lit)
        if not out:
            self.ok = False
        elif len(out) == 1:
            self.ok = self._enqueue(out[0], None) and self._propagate() is None
        else:
            self._attach(out)

    def _attach(self, lits: list[int]) -> list[int]:
        self.clauses.append(lits)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)
        return lits

    # -- assignment and propagation ---------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        val = self.lval[lit]
        if val:
            return val > 0
        self.lval[lit] = 1
        self.lval[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.phase[v] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; return a conflict clause or None."""
        trail, lval, watches = self.trail, self.lval, self.watches
        level, reason, phase = self.level, self.reason, self.phase
        lvl = len(self.lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watch = watches[false_lit]
            kept = []
            for w, lits in enumerate(watch):
                # keep the false watch at lits[1]
                first = lits[0]
                if first == false_lit:
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                if lval[first] > 0:
                    kept.append(lits)
                    continue
                for j in range(2, len(lits)):
                    lit = lits[j]
                    if lval[lit] >= 0:
                        lits[1] = lit
                        lits[j] = false_lit
                        watches[lit].append(lits)
                        break
                else:
                    kept.append(lits)
                    if lval[first]:  # false: every literal is false
                        self.qhead = len(trail)
                        watch[:] = kept + watch[w + 1:]
                        return lits
                    lval[first] = 1
                    lval[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = lits
                    phase[v] = 1 if first > 0 else -1
                    trail.append(first)
            watch[:] = kept
        self.qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.inc
        if self.activity[v] > _RESCALE:
            for u in range(1, self.nvars + 1):
                self.activity[u] /= _RESCALE
            self.inc /= _RESCALE
        heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        seen = [False] * (self.nvars + 1)
        level, reason, trail = self.level, self.reason, self.trail
        learnt = [0]  # slot for the asserting literal
        cur_level = len(self.lim)
        counter = 0
        p = 0
        idx = len(trail)
        while True:
            for q in confl:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                idx -= 1
                p = trail[idx]
                if seen[abs(p)]:
                    break
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            confl = reason[abs(p)]
        learnt[0] = -p
        back = 0
        if len(learnt) > 1:
            j = max(range(1, len(learnt)),
                    key=lambda i: level[abs(learnt[i])])
            learnt[1], learnt[j] = learnt[j], learnt[1]
            back = level[abs(learnt[1])]
        return learnt, back

    def _backtrack(self, target: int) -> None:
        if target >= len(self.lim):
            return
        keep = self.lim[target]
        lval, activity, heap = self.lval, self.activity, self.heap
        for lit in reversed(self.trail[keep:]):
            lval[lit] = lval[-lit] = 0
            v = lit if lit > 0 else -lit
            heappush(heap, (-activity[v], v))
        del self.trail[keep:]
        del self.lim[target:]
        self.qhead = len(self.trail)

    # -- main loop ---------------------------------------------------------

    def _decide(self) -> int:
        lval, activity, heap = self.lval, self.activity, self.heap
        while heap:
            act, v = heappop(heap)
            if lval[v] == 0 and -act == activity[v]:
                return v * self.phase[v]
        for v in range(1, self.nvars + 1):  # heap entries can go stale
            if lval[v] == 0:
                return v * self.phase[v]
        return 0

    def solve(self, conflict_limit: Optional[int] = None) -> Optional[bool]:
        """True if satisfiable (see model()), False if not, None if the
        search needs more than ``conflict_limit`` analysed conflicts (a
        conflict at level 0 proves unsatisfiability and is not counted).
        Every outcome leaves the solver at decision level 0, so clauses can
        be added and solve() called again."""
        if not self.ok:
            return False
        if self._propagate() is not None:
            self.ok = False
            return False
        conflicts = 0
        restart = 100
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.lim:
                    self.ok = False
                    return False
                if conflict_limit is not None and conflicts >= conflict_limit:
                    self._backtrack(0)
                    return None
                conflicts += 1
                self.conflicts += 1
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                if len(learnt) == 1:
                    reason = None
                else:
                    reason = self._attach(learnt)
                    self.n_learnt += 1
                self._enqueue(learnt[0], reason)
                self.inc *= _VAR_DECAY
                if conflicts >= restart:
                    restart = conflicts + int(restart * 1.5)
                    self._backtrack(0)
            else:
                lit = self._decide()
                if lit == 0:
                    self._model = [x > 0 for x in self.lval[:self.nvars + 1]]
                    self._backtrack(0)
                    return True
                self.lim.append(len(self.trail))
                self._enqueue(lit, None)

    def model(self) -> list[bool]:
        """Truth value per variable from the last satisfiable solve(),
        index 0 unused."""
        return self._model
