"""Minimal conflict-driven clause-learning solver for propositional CNF.

Literals are nonzero ints, as in DIMACS: ``+v`` asserts variable ``v``
(numbered from 1), ``-v`` its negation.  The implementation is the
textbook loop — two-watched-literal propagation, first-UIP clause
learning, activity driven decisions with phase saving, and geometric
restarts — tuned for the mid-sized structured formulas produced
elsewhere in this package, not for competition inputs.

Inside the solver a literal is a code, as in MiniSat (Eén & Sörensson,
"An Extensible SAT-solver", SAT 2003): ``2v`` for ``v`` and ``2v + 1``
for ``-v``, so ``c ^ 1`` negates and ``c >> 1`` is the variable.  Codes
are never negative, so every per-literal table is a plain list index
(CPython reads a list fastest at an index >= 0).  ``lval`` and
``watches`` have 2n + 2 entries for n variables, 0 and 1 unused.
``lval[c]`` is +1 when ``c`` is true, -1 when false and 0 when free; an
assignment writes both polarities.  ``phase[v]`` is the code of v's last
value.  Clauses, the trail, reasons and learnt clauses hold codes in the
order the signed literals would have; ``add_clause`` and ``load`` take
signed literals, and ``signed`` reads a code back.  Watch lists and
``reason`` hold the clause lists themselves, and a decision's reason is
None.  ``_propagate`` compacts a watch list in place behind a write
index: clauses whose other watch is true stay, in their order, and
clauses that found a new watch leave.

Decisions pop a binary heap of ``(-activity, var)`` entries, as MiniSat
orders its variables.  An entry is live while its key matches the
variable's activity: a bump leaves the old entry stale, and a popped
stale entry is dropped.  ``inheap[v]`` says whether v has a live entry;
a bump or a pop clears it, and the backtrack that frees v pushes a new
entry only when it is clear.  So each variable has at most one live
entry and every free variable has one, and the first live entry of a
free variable to be popped is the free variable of highest activity,
ties to the lowest index.  A rescale changes every key, so it rebuilds
the heap from every variable.

Conflict analysis learns the first-UIP clause and then minimises it
recursively, as MiniSat does (Sörensson & Biere, "Minimizing Learned
Clauses", SAT 2009): a literal other than the asserting one is dropped
when every chain of reasons back from it ends at another literal of the
clause or at level 0.  Each walk keeps an explicit stack and stops at
the first variable that is a decision or whose level no literal of the
clause has (a bitmask of the clause's levels, modulo 64, tells).  The
variables a successful walk visits stay marked as implied for the next
walk; a failed walk unmarks them.  A shorter clause becomes unit
sooner; ``learnt_literals`` counts the literals kept.

A ``Record`` is a block of clauses in compact form: one flat read-only
array of clause widths and one of literals, every clause's in turn.
``record`` writes one from chunks of clauses, and ``load`` attaches it to
a fresh solver.  The result is the solver that calling ``add_clause`` on
each recorded clause in turn would give, for clauses of width >= 2 over
distinct variables: the same clause order, literal order and watch-list
order, so a later search is the same search.  The encoders write the
clauses that depend only on a formula's shape (the transitivity or
four-leaf-closure block) as a record, keep it in a ``Templates`` cache,
and load it into every question of that shape (clause-database reuse, as
in incremental SAT: Eén & Sörensson, "Temporal induction by incremental
SAT solving", ENTCS 2003; no learnt state is carried over).
"""

from __future__ import annotations

import gc
from array import array
from heapq import heapify, heappop, heappush
from itertools import groupby, islice
from struct import pack
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

_VAR_DECAY = 1.0 / 0.95
_RESCALE = 1e100


class Record(NamedTuple):
    """A block of clauses in order (see record)."""

    nvars: int  # no literal goes beyond it
    widths: memoryview  # read-only, one entry per clause
    lits: memoryview  # read-only, every clause's literals in turn


def record(nvars: int,
           chunks: Iterable[tuple[Sequence[int], Sequence[int]]]) -> Record:
    """The clauses of ``chunks`` (each the widths of some clauses, then
    their literals in turn) as a Record over variables 1..nvars; each
    clause has width >= 2 and distinct variables, as add_clause keeps."""
    code = "h" if nvars < 1 << 15 else "i"  # a width is <= nvars too
    widths, lits = array(code), array(code)
    # struct.pack converts ints faster than array.extend does
    for w, c in chunks:
        widths.frombytes(pack(f"{len(w)}{code}", *w))
        lits.frombytes(pack(f"{len(c)}{code}", *c))
    return Record(nvars, memoryview(widths).toreadonly(),
                  memoryview(lits).toreadonly())


class Templates:
    """Records by key, at most ``size`` literals in all: the least
    recently used ones are evicted first, and a record larger than
    ``size`` is not kept."""

    def __init__(self, size: int):
        self.size = size
        self._records: dict = {}
        self._lits = 0

    def get(self, key: tuple, build: Callable[..., Record]) -> Record:
        """The record kept under ``key``, else ``build(*key)``, which is
        kept if it fits."""
        recs = self._records
        rec = recs.pop(key, None)
        if rec is None:
            rec = build(*key)
            self._lits += len(rec.lits)
        recs[key] = rec  # now the most recently used
        while self._lits > self.size:
            self._lits -= len(recs.pop(next(iter(recs))).lits)
        return rec

    def clear(self) -> None:
        self._records.clear()
        self._lits = 0


def signed(code: int) -> int:
    """The signed literal of a solver's literal code."""
    return -(code >> 1) if code & 1 else code >> 1


class Solver:
    def __init__(self, nvars: int = 0):
        self.nvars = nvars
        self.clauses: list[list[int]] = []  # of literal codes, as below
        self.lval: list[int] = [0] * (2 * nvars + 2)
        self.watches: list[list[list[int]]] = [
            [] for _ in range(2 * nvars + 2)]
        self.level: list[int] = [0] * (nvars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (nvars + 1)
        self.activity: list[float] = [0.0] * (nvars + 1)
        self.phase: list[int] = list(range(1, 2 * nvars + 2, 2))  # all -v
        self.trail: list[int] = []
        self.lim: list[int] = []  # trail length at each decision level
        self.qhead = 0
        self.inc = 1.0
        self.heap: list[tuple[float, int]] = [
            (0.0, v) for v in range(1, nvars + 1)]  # already a heap
        self.inheap: list[bool] = [True] * (nvars + 1)
        self.ok = True
        self.n_learnt = 0
        # counted over every solve() call
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0  # trail literals whose watches were visited
        self.learnt_literals = 0  # of every learnt clause, units included
        self._model: list[bool] = []

    # -- construction -----------------------------------------------------

    def add_clause(self, lits) -> None:
        """Add a clause of signed literals over variables 1..nvars; may
        immediately make the formula unsatisfiable.  ``lits`` is copied,
        never kept."""
        if not self.ok:
            return
        lval = self.lval
        n = self.nvars
        out = []
        for lit in lits:
            if lit > n or lit < -n or not lit:
                raise ValueError(f"literal {lit} outside variables 1..{n}")
            c = lit << 1 if lit > 0 else -lit << 1 | 1
            val = lval[c]
            if val:
                if val > 0:
                    return  # already satisfied at root level
            # out holds free literals only, so a false literal (whose
            # negation is true) can neither repeat nor complete a tautology
            elif c not in out:
                if (c ^ 1) in out:
                    return  # tautological
                out.append(c)
        if len(out) > 1:
            self.clauses.append(out)
            watches = self.watches
            watches[out[0]].append(out)
            watches[out[1]].append(out)
        elif out:
            self.ok = self._enqueue(out[0], None) and self._propagate() is None
        else:
            self.ok = False

    def load(self, rec: Record) -> None:
        """Attach the clauses of ``rec`` to this solver, which has no
        clause, nothing assigned, and at least the record's variables:
        the state add_clause would leave after each recorded clause in
        turn, watch order included."""
        if self.clauses or self.trail or not self.ok:
            raise ValueError("load needs a solver with no clause and "
                             "nothing assigned")
        n = self.nvars
        if rec.nvars > n:
            raise ValueError(f"record uses variables beyond 1..{n}")
        # one int object per code, shared by every clause; table[lit] is
        # the code of lit for either sign, since a negative index wraps
        table = [*range(0, 2 * n + 1, 2), *range(2 * n + 1, 1, -2)]
        stream = map(table.__getitem__, rec.lits)
        clauses, watches = self.clauses, self.watches
        # lists of ints hold no cycle, so the collector's passes over the
        # new lists would find nothing
        collecting = gc.isenabled()
        gc.disable()
        try:
            for width, run in groupby(rec.widths):
                # a run of equal widths is cut from the stream in one go
                clauses.extend(map(list, islice(zip(*[stream] * width),
                                                len(tuple(run)))))
            for lits in clauses:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
        finally:
            if collecting:
                gc.enable()

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
        self.lval[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.phase[v] = lit
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; return a conflict clause or None."""
        trail, lval, watches = self.trail, self.lval, self.watches
        level, reason, phase = self.level, self.reason, self.phase
        lvl = len(self.lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watch = watches[false_lit]
            kept = 0  # watch[:kept] holds the clauses that stay
            it = iter(watch)
            for lits in it:
                # keep the false watch at lits[1]
                first = lits[0]
                if first == false_lit:
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                if lval[first] > 0:
                    watch[kept] = lits
                    kept += 1
                    continue
                size = len(lits)
                if size == 3:
                    lit = lits[2]
                    if lval[lit] >= 0:
                        lits[1] = lit
                        lits[2] = false_lit
                        watches[lit].append(lits)
                        continue
                elif size > 3:
                    for j in range(2, size):
                        lit = lits[j]
                        if lval[lit] >= 0:
                            break
                    else:
                        j = 0
                    if j:
                        lits[1] = lit
                        lits[j] = false_lit
                        watches[lit].append(lits)
                        continue
                watch[kept] = lits
                kept += 1
                if lval[first]:  # false: every literal is false
                    watch[kept:] = list(it)
                    self.propagations += qhead - start
                    self.qhead = len(trail)
                    return lits
                lval[first] = 1
                lval[first ^ 1] = -1
                v = first >> 1
                level[v] = lvl
                reason[v] = lits
                phase[v] = first
                trail.append(first)
            del watch[kept:]
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _rescale(self) -> None:
        """Scale every activity down; every heap key changes with it."""
        activity, nvars = self.activity, self.nvars
        for u in range(1, nvars + 1):
            activity[u] /= _RESCALE
        self.inc /= _RESCALE
        self.heap[:] = [(-activity[u], u) for u in range(1, nvars + 1)]
        heapify(self.heap)
        self.inheap[:] = [True] * (nvars + 1)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        seen = [False] * (self.nvars + 1)
        level, reason, trail = self.level, self.reason, self.trail
        activity, inheap, inc = self.activity, self.inheap, self.inc
        learnt = [0]  # slot for the asserting literal
        levels = 0  # of learnt[1:], as a bitmask modulo 64
        cur_level = len(self.lim)
        counter = 0
        p = 0
        idx = len(trail)
        while True:
            for q in confl:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # bump: v is assigned, so its heap entry goes stale
                    act = activity[v] = activity[v] + inc
                    inheap[v] = False
                    if act > _RESCALE:
                        self._rescale()
                        inc = self.inc
                    lv = level[v]
                    if lv == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        levels |= 1 << (lv & 63)
            while True:
                idx -= 1
                p = trail[idx]
                v = p >> 1
                if seen[v]:
                    break
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            confl = reason[v]
        learnt[0] = p ^ 1
        # drop each literal that the rest of the clause implies: seen
        # marks the clause's variables, and a walk marks those it shows
        # to be implied too
        kept = 1
        for i in range(1, len(learnt)):
            q = learnt[i]
            r = reason[q >> 1]
            if r is None or not self._implied(r, seen, levels):
                learnt[kept] = q
                kept += 1
        del learnt[kept:]
        back = 0
        # the first literal of the highest remaining level becomes the
        # second watch, learnt[1]; that level is where to backjump
        j = 0
        for i in range(1, len(learnt)):
            q = learnt[i]
            lv = level[q >> 1]
            if lv > back:
                back, j = lv, i
        if j:
            learnt[1], learnt[j] = learnt[j], learnt[1]
        return learnt, back

    def _implied(self, confl: list[int], seen: list[bool],
                 levels: int) -> bool:
        """Whether every false literal of ``confl`` is at level 0 or
        follows, through a chain of reasons, from the variables marked in
        ``seen``.  On success the walk's variables stay marked; on failure
        it unmarks them.  A variable whose level is not in the bitmask
        ``levels`` ends the walk: it cannot follow from the marked ones."""
        level, reason = self.level, self.reason
        stack = [confl]
        marked = []
        while stack:
            for q in stack.pop():
                v = q >> 1
                lv = level[v]
                if lv and not seen[v]:
                    if not levels >> (lv & 63) & 1 or (r := reason[v]) is None:
                        for u in marked:
                            seen[u] = False
                        return False
                    seen[v] = True
                    marked.append(v)
                    stack.append(r)
        return True

    def _backtrack(self, target: int) -> None:
        lim = self.lim
        if target >= len(lim):
            return
        keep = lim[target]
        trail, lval, activity = self.trail, self.lval, self.activity
        inheap, heap = self.inheap, self.heap
        for i in range(keep, len(trail)):
            lit = trail[i]
            lval[lit] = lval[lit ^ 1] = 0
            v = lit >> 1
            if not inheap[v]:
                inheap[v] = True
                heappush(heap, (-activity[v], v))
        del trail[keep:]
        del lim[target:]
        self.qhead = keep

    # -- main loop ---------------------------------------------------------

    def _decide(self) -> int:
        """The code of the free variable of highest activity in its saved
        phase, or 0 when every variable is assigned."""
        lval, activity, inheap, heap = (self.lval, self.activity,
                                        self.inheap, self.heap)
        while heap:
            act, v = heappop(heap)
            if -act == activity[v]:  # the live entry; the rest are stale
                inheap[v] = False
                if not lval[v << 1]:
                    return self.phase[v]
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
                self.learnt_literals += len(learnt)
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
                    self._model = [x > 0 for x in self.lval[::2]]
                    self._backtrack(0)
                    return True
                self.decisions += 1
                self.lim.append(len(self.trail))
                self._enqueue(lit, None)

    def model(self) -> list[bool]:
        """Truth value per variable from the last satisfiable solve(),
        index 0 unused."""
        return self._model
