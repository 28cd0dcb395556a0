"""Linear orderings, ternary pattern families and ordering constraints.

Conventions
-----------
A *linear ordering* alpha of a finite variable set V is a bijection
V -> {1..m}; we store it as the sequence (alpha^-1(1), ..., alpha^-1(m)),
i.e. ``seq[i]`` is the variable at position ``i + 1``.

A *pattern family* Pi is a subset of S3.  Each permutation ``p`` in Pi maps
positions to symbols: the constraint ``(v1, v2, v3)`` is Pi-satisfied by
alpha iff some ``p = (p1, p2, p3)`` in Pi has

    alpha(v_{p1}) < alpha(v_{p2}) < alpha(v_{p3}).

For example the pattern ``132`` accepts exactly the orderings with
``alpha(v1) < alpha(v3) < alpha(v2)``.  This position->symbol reading is
the single most bug-prone convention in the library; ``tests/test_orderings``
pins all six evaluations for one fixed ordering.

The hot paths read a family as *comparison codes* instead.  Under an
ordering, with a, b, c the positions of v1, v2, v3, the code of the
constraint is ``(a < b) << 2 | (b < c) << 1 | (a < c)``: one of the six
relative orders of the three positions (codes 1 and 6 would be cycles).
Each pattern names one relative order, so ``PiFamily.codes`` is a bitmask
over the 8 codes, and the constraint is Pi-satisfied iff bit ``code`` is
set.  The pattern 132 puts v1, v2, v3 at ranks 0, 2, 1: code 0b101 = 5.
``PiFamily.banned`` lists the patterns outside Pi as 0-based index triples
(132 as (0, 2, 1)), in ``permutations((1, 2, 3))`` order.  Both are
derived from the pattern sets at import; ``pattern_matches`` and
``satisfies`` remain the literal definition they are tested against.

Variables are arbitrary hashable labels (ints or strings).  ``var_key``
provides the deterministic total order used for every tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Hashable, Iterable, Sequence

Var = Hashable
Triple = tuple[Var, Var, Var]

_S3 = frozenset(permutations((1, 2, 3)))

#: Table of the eleven pattern families, keyed 0..10.  Patterns are written
#: as position->symbol triples, e.g. (1, 3, 2) is the pattern "132".
_PI_TABLE: dict[int, frozenset[tuple[int, int, int]]] = {
    0: frozenset({(1, 2, 3)}),
    1: frozenset({(1, 2, 3), (1, 3, 2)}),
    2: frozenset({(1, 2, 3), (2, 1, 3), (2, 3, 1)}),
    3: frozenset({(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}),
    4: frozenset({(1, 2, 3), (2, 3, 1)}),
    5: frozenset({(1, 2, 3), (3, 2, 1)}),            # betweenness
    6: frozenset({(1, 2, 3), (1, 3, 2), (2, 3, 1)}),
    7: frozenset({(1, 2, 3), (2, 3, 1), (3, 1, 2)}),  # circular
    8: _S3 - {(1, 2, 3), (2, 3, 1)},
    9: _S3 - {(1, 2, 3), (3, 2, 1)},                  # non-betweenness
    10: _S3 - {(1, 2, 3)},
}


def _code(p: tuple[int, int, int]) -> int:
    """The comparison code of the relative order that pattern p names."""
    a, b, c = p.index(1), p.index(2), p.index(3)  # ranks of v1, v2, v3
    return (a < b) << 2 | (b < c) << 1 | (a < c)


#: Per family index: (bitmask of allowed codes, banned index triples).
_CODE_TABLE: dict[int, tuple[int, tuple[tuple[int, int, int], ...]]] = {
    i: (sum(1 << _code(p) for p in perms),
        tuple((p[0] - 1, p[1] - 1, p[2] - 1)
              for p in permutations((1, 2, 3)) if p not in perms))
    for i, perms in _PI_TABLE.items()
}

#: Family indices whose 2-order decision problem is trivially satisfiable
#: by {alpha, reversal(alpha)} for any alpha.
TRIVIAL_2ORDER = frozenset({2, 3, 7, 8, 10})


def var_key(v: Var):
    """Deterministic sort key over mixed int/str variable labels."""
    if isinstance(v, bool):  # bools are ints but would alias 0/1
        return (2, str(v))
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


@dataclass(frozen=True)
class PiFamily:
    """One of the eleven ternary pattern families."""

    index: int
    perms: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.index not in _PI_TABLE:
            raise ValueError(f"pattern family index out of range: {self.index}")
        if self.perms != _PI_TABLE[self.index]:
            raise ValueError(f"pattern set does not match family {self.index}")

    @property
    def codes(self) -> int:
        """Bitmask over the comparison codes its patterns allow."""
        return _CODE_TABLE[self.index][0]

    @property
    def banned(self) -> tuple[tuple[int, int, int], ...]:
        """The patterns outside the family, as 0-based index triples."""
        return _CODE_TABLE[self.index][1]

    def __repr__(self):
        pats = sorted("".join(map(str, p)) for p in self.perms)
        return f"Pi{self.index}{{{','.join(pats)}}}"


def pi_family(i: int) -> PiFamily:
    """The pattern family with index ``i`` (0 <= i <= 10)."""
    if i not in _PI_TABLE:
        raise ValueError(f"pattern family index out of range: {i}")
    return PiFamily(i, _PI_TABLE[i])


class LinearOrdering:
    """Immutable bijection between a variable set and positions 1..m."""

    __slots__ = ("seq", "inverse", "_hash")

    def __init__(self, seq: Sequence[Var]):
        seq = tuple(seq)
        inverse = {v: i + 1 for i, v in enumerate(seq)}
        if len(inverse) != len(seq):
            raise ValueError("ordering contains a repeated variable")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "_hash", hash(seq))

    def __setattr__(self, name, value):
        raise AttributeError("LinearOrdering is immutable")

    def __eq__(self, other):
        return isinstance(other, LinearOrdering) and self.seq == other.seq

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.seq)

    def __repr__(self):
        return f"({','.join(map(str, self.seq))})"

    def domain(self) -> frozenset:
        return frozenset(self.seq)

    def position(self, v: Var) -> int:
        """1-based position of ``v``."""
        return self.inverse[v]

    def sort_key(self):
        """Lexicographic key for canonical ordering of solution sets."""
        return tuple(var_key(v) for v in self.seq)


def reversal(alpha: LinearOrdering) -> LinearOrdering:
    """The ordering with all positions inverted (an involution)."""
    return LinearOrdering(alpha.seq[::-1])


def restrict(alpha: LinearOrdering, s: Iterable[Var]) -> LinearOrdering:
    """Restriction of ``alpha`` to the subset ``s``, relative order kept."""
    s = frozenset(s)
    missing = s - alpha.domain()
    if missing:
        raise ValueError(f"not in ordering domain: {sorted(missing, key=var_key)}")
    return LinearOrdering(tuple(v for v in alpha.seq if v in s))


def concat(alpha: LinearOrdering, beta: LinearOrdering) -> LinearOrdering:
    """Concatenation: every alpha-variable precedes every beta-variable."""
    if alpha.domain() & beta.domain():
        raise ValueError("concatenation requires disjoint domains")
    return LinearOrdering(alpha.seq + beta.seq)


def ordering(*vars_: Var) -> LinearOrdering:
    """Convenience constructor: ordering(1, 2, 3)."""
    return LinearOrdering(vars_)


def pattern_matches(p: tuple[int, int, int], alpha: LinearOrdering,
                    c: Triple) -> bool:
    """Whether the single pattern ``p`` (positions -> symbols) matches:
    alpha(v_{p1}) < alpha(v_{p2}) < alpha(v_{p3})."""
    inv = alpha.inverse
    try:
        pos = (inv[c[0]], inv[c[1]], inv[c[2]])
    except KeyError as e:
        raise ValueError(f"constraint variable not ordered: {e.args[0]}") from None
    return pos[p[0] - 1] < pos[p[1] - 1] < pos[p[2] - 1]


def satisfies(pi: PiFamily, alpha: LinearOrdering, c: Triple) -> bool:
    """Whether some pattern of ``pi`` matches ``c`` under ``alpha``."""
    return any(pattern_matches(p, alpha, c) for p in pi.perms)


def implied_constraints(alpha: LinearOrdering, pi: PiFamily) -> frozenset[Triple]:
    """All ordered triples of distinct variables Pi-satisfied by ``alpha``.

    For each position-ascending triple (x, y, z) and each pattern p, the
    unique satisfied constraint places x at slot p(1), y at slot p(2) and
    z at slot p(3); hence the count is |pi| * C(m, 3).
    """
    out = set()
    for x, y, z in combinations(alpha.seq, 3):
        for p in pi.perms:
            triple: list[Var] = [None, None, None]
            triple[p[0] - 1] = x
            triple[p[1] - 1] = y
            triple[p[2] - 1] = z
            out.add(tuple(triple))
    return frozenset(out)


@dataclass(frozen=True)
class Instance:
    """A k-order decision instance: does a multiset of at most k linear
    orderings of ``vars`` exist such that every constraint is pi-satisfied
    by at least one of them?"""

    vars: frozenset
    constraints: tuple[Triple, ...]
    pi: PiFamily
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        seen = set()
        deduped = []
        for c in self.constraints:
            if len(set(c)) != 3:
                raise ValueError(f"constraint variables not distinct: {c}")
            for v in c:
                if v not in self.vars:
                    raise ValueError(f"constraint uses unknown variable: {v!r}")
            if c not in seen:
                seen.add(c)
                deduped.append(c)
        object.__setattr__(self, "constraints", tuple(deduped))
        object.__setattr__(self, "vars", frozenset(self.vars))

    def sorted_vars(self) -> list:
        return sorted(self.vars, key=var_key)


def make_instance(pi_index: int, k: int, vars_: Iterable[Var],
                  constraints: Iterable[Triple]) -> Instance:
    return Instance(frozenset(vars_), tuple(tuple(c) for c in constraints),
                    pi_family(pi_index), k)


def relabel_instance(inst: Instance, mapping: dict) -> Instance:
    """Apply a variable bijection to an instance."""
    return Instance(frozenset(mapping[v] for v in inst.vars),
                    tuple(tuple(mapping[v] for v in c) for c in inst.constraints),
                    inst.pi, inst.k)


# ---------------------------------------------------------------------------
# Text format: `pi <i>` / `k <k>` / `vars <name>...` / `c <a> <b> <c>` lines,
# whitespace separated, `#` starts a comment.  Names consisting purely of
# digits round-trip as ints, everything else as strings.


def _parse_name(tok: str) -> Var:
    return int(tok) if tok.lstrip("-").isdigit() else tok


def parse_instance(text: str) -> Instance:
    pi_index = None
    k = 1
    vars_: list[Var] = []
    constraints: list[Triple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "pi":
                pi_index = int(toks[1])
            elif toks[0] == "k":
                k = int(toks[1])
            elif toks[0] == "vars":
                vars_.extend(_parse_name(t) for t in toks[1:])
            elif toks[0] == "c":
                if len(toks) != 4:
                    raise ValueError("constraint line needs 3 variables")
                constraints.append(tuple(_parse_name(t) for t in toks[1:]))
            else:
                raise ValueError(f"unknown directive {toks[0]!r}")
        except (IndexError, ValueError) as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if pi_index is None:
        raise ValueError("missing `pi` line")
    return make_instance(pi_index, k, vars_, constraints)


def format_instance(inst: Instance) -> str:
    lines = [f"pi {inst.pi.index}", f"k {inst.k}",
             "vars " + " ".join(str(v) for v in inst.sorted_vars())]
    lines += [f"c {a} {b} {c}" for a, b, c in inst.constraints]
    return "\n".join(lines) + "\n"
