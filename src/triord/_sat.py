"""Minimal conflict-driven clause-learning solver for propositional CNF.

Literals are nonzero ints: ``+v`` asserts variable ``v`` (numbered from
1), ``-v`` its negation.  The implementation is the textbook loop —
two-watched-literal propagation, first-UIP clause learning, activity
driven decisions with phase saving, and geometric restarts — tuned for
the mid-sized structured formulas produced elsewhere in this package,
not for competition inputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

_VAR_DECAY = 1.0 / 0.95
_RESCALE = 1e100


class Solver:
    def __init__(self, nvars: int = 0):
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = []  # indexed by _enc(lit)
        self.value: list[int] = [0]  # per var: 0 free, +1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]  # clause index, -1 for decisions
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [-1]
        self.trail: list[int] = []
        self.lim: list[int] = []  # trail length at each decision level
        self.qhead = 0
        self.inc = 1.0
        self.heap: list[tuple[float, int]] = []
        self.ok = True
        self.n_learnt = 0
        self.conflicts = 0  # over every solve() call
        self._model: list[bool] = []
        if nvars:
            self.add_vars(nvars)

    # -- construction -----------------------------------------------------

    def add_vars(self, count: int) -> None:
        for _ in range(count):
            self.nvars += 1
            self.value.append(0)
            self.level.append(0)
            self.reason.append(-1)
            self.activity.append(0.0)
            self.phase.append(-1)
            self.watches.append([])
            self.watches.append([])
            heappush(self.heap, (0.0, self.nvars))

    @staticmethod
    def _enc(lit: int) -> int:
        return 2 * lit - 2 if lit > 0 else -2 * lit - 1

    def _lit_value(self, lit: int) -> int:
        v = self.value[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits) -> None:
        """Add a clause; may immediately make the formula unsatisfiable."""
        if not self.ok:
            return
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen or self._lit_value(lit) > 0:
                return  # tautological or already satisfied at root level
            if lit not in seen and self._lit_value(lit) == 0:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.ok = False
        elif len(out) == 1:
            self.ok = self._enqueue(out[0], -1) and self._propagate() == -1
        else:
            self._attach(out)

    def _attach(self, lits: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches[self._enc(lits[0])].append(idx)
        self.watches[self._enc(lits[1])].append(idx)
        return idx

    # -- assignment and propagation ---------------------------------------

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._lit_value(lit)
        if val:
            return val > 0
        v = abs(lit)
        self.value[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.phase[v] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Exhaust unit propagation; return a conflict clause index or -1."""
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            watch = self.watches[self._enc(-p)]
            kept = []
            w = 0
            try:
                while w < len(watch):
                    ci = watch[w]
                    w += 1
                    lits = self.clauses[ci]
                    if lits[0] == -p:
                        lits[0], lits[1] = lits[1], lits[0]
                    first = lits[0]
                    if self._lit_value(first) > 0:
                        kept.append(ci)
                        continue
                    for j in range(2, len(lits)):
                        if self._lit_value(lits[j]) >= 0:
                            lits[1], lits[j] = lits[j], lits[1]
                            self.watches[self._enc(lits[1])].append(ci)
                            break
                    else:
                        kept.append(ci)
                        if not self._enqueue(first, ci):
                            self.qhead = len(self.trail)
                            return ci
            finally:
                watch[:] = kept + watch[w:]
        return -1

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.inc
        if self.activity[v] > _RESCALE:
            for u in range(1, self.nvars + 1):
                self.activity[u] /= _RESCALE
            self.inc /= _RESCALE
        heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        seen = [False] * (self.nvars + 1)
        learnt = [0]  # slot for the asserting literal
        cur_level = len(self.lim)
        counter = 0
        p = 0
        idx = len(self.trail)
        while True:
            for q in self.clauses[confl]:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                idx -= 1
                p = self.trail[idx]
                if seen[abs(p)]:
                    break
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[abs(p)]
        learnt[0] = -p
        back = 0
        if len(learnt) > 1:
            j = max(range(1, len(learnt)),
                    key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[j] = learnt[j], learnt[1]
            back = self.level[abs(learnt[1])]
        return learnt, back

    def _backtrack(self, target: int) -> None:
        if target >= len(self.lim):
            return
        keep = self.lim[target]
        for lit in reversed(self.trail[keep:]):
            v = abs(lit)
            self.value[v] = 0
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[keep:]
        del self.lim[target:]
        self.qhead = len(self.trail)

    # -- main loop ---------------------------------------------------------

    def _decide(self) -> int:
        while self.heap:
            act, v = heappop(self.heap)
            if self.value[v] == 0 and -act == self.activity[v]:
                return v * self.phase[v]
        for v in range(1, self.nvars + 1):  # heap entries can go stale
            if self.value[v] == 0:
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
        if self._propagate() != -1:
            self.ok = False
            return False
        conflicts = 0
        restart = 100
        while True:
            confl = self._propagate()
            if confl != -1:
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
                reason = -1 if len(learnt) == 1 else self._attach(learnt)
                if len(learnt) > 1:
                    self.n_learnt += 1
                self._enqueue(learnt[0], reason)
                self.inc *= _VAR_DECAY
                if conflicts >= restart:
                    restart = conflicts + int(restart * 1.5)
                    self._backtrack(0)
            else:
                lit = self._decide()
                if lit == 0:
                    self._model = [v > 0 for v in self.value]
                    self._backtrack(0)
                    return True
                self.lim.append(len(self.trail))
                self._enqueue(lit, -1)

    def model(self) -> list[bool]:
        """Truth value per variable from the last satisfiable solve(),
        index 0 unused."""
        return self._model
