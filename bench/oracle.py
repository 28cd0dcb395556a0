"""Expected answers and witness checks from the plain definitions.

Nothing here imports ``triord``: every answer the benchmark accepts is
computed or checked by the code below, written straight from the
definitions, so a bug in an engine cannot also hide in its checker.

Conventions (the same as the program's documented file formats):

- A *pattern* ``(p1, p2, p3)`` matches the constraint ``(v1, v2, v3)``
  under an ordering ``alpha`` when
  ``alpha(v_p1) < alpha(v_p2) < alpha(v_p3)``.
- A rooted triplet ``ab|c`` is displayed by a rooted tree when ``c`` is
  not below the lowest common ancestor of ``a`` and ``b``.
- A caterpillar is a rooted binary tree in which every internal node has
  a leaf child.
"""

from __future__ import annotations

from itertools import combinations, permutations

_S3 = frozenset(permutations((1, 2, 3)))

#: The pattern families the workloads use, by index.
PATTERNS = {
    5: frozenset({(1, 2, 3), (3, 2, 1)}),             # betweenness
    6: frozenset({(1, 2, 3), (1, 3, 2), (2, 3, 1)}),
    9: _S3 - {(1, 2, 3), (3, 2, 1)},                   # non-betweenness
}

#: tau(n) = tau_c(n) for n = 3..7: the fewest trees (caterpillars) that
#: jointly display every triplet on n leaves.
TAU_TABLE = {3: 3, 4: 3, 5: 4, 6: 4, 7: 4}


class WrongAnswer(Exception):
    """The program's answer or witness contradicts the definitions."""


def _label(tok: str):
    return int(tok) if tok.lstrip("-").isdigit() else tok


# ---------------------------------------------------------------------------
# Orderings


def satisfies(pi: int, pos: dict, c: tuple) -> bool:
    """Whether some pattern of family ``pi`` matches ``c`` under the
    ordering given as a position map."""
    p = (pos[c[0]], pos[c[1]], pos[c[2]])
    return any(p[a - 1] < p[b - 1] < p[d - 1] for a, b, d in PATTERNS[pi])


def implied(pi: int, seq: tuple) -> set:
    """Every ordered triple of distinct variables ``seq`` satisfies."""
    pos = {v: i for i, v in enumerate(seq)}
    return {c for c in permutations(seq, 3) if satisfies(pi, pos, c)}


def one_order_satisfiable(pi: int, vars_: list, constraints: list) -> bool:
    """Exhaustive scan: does one ordering satisfy every constraint?"""
    for seq in permutations(vars_):
        pos = {v: i for i, v in enumerate(seq)}
        if all(satisfies(pi, pos, c) for c in constraints):
            return True
    return False


def two_order_solutions(pi: int, vars_: list, constraints: list) -> set:
    """Every multiset of two orderings that jointly satisfies all
    constraints, as sorted pairs of tuples."""
    full = (1 << len(constraints)) - 1
    by_mask: dict = {}
    for seq in permutations(vars_):
        pos = {v: i for i, v in enumerate(seq)}
        mask = 0
        for i, c in enumerate(constraints):
            if satisfies(pi, pos, c):
                mask |= 1 << i
        by_mask.setdefault(mask, []).append(seq)
    masks = sorted(by_mask)
    out = set()
    for i, m1 in enumerate(masks):
        for m2 in masks[i:]:
            if m1 | m2 != full:
                continue
            for s1 in by_mask[m1]:
                for s2 in by_mask[m2]:
                    out.add(tuple(sorted((s1, s2))))
    return out


def parse_csp(text: str) -> tuple:
    """(pi, k, vars, constraints) from the ``.csp`` text format."""
    pi, k, vars_, cs = None, 1, [], []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "pi":
            pi = int(toks[1])
        elif toks[0] == "k":
            k = int(toks[1])
        elif toks[0] == "vars":
            vars_ += [_label(t) for t in toks[1:]]
        elif toks[0] == "c":
            cs.append(tuple(_label(t) for t in toks[1:]))
    return pi, k, vars_, cs


def format_csp(pi: int, k: int, vars_: list, constraints) -> str:
    lines = [f"pi {pi}", f"k {k}", "vars " + " ".join(map(str, vars_))]
    lines += [f"c {a} {b} {c}" for a, b, c in constraints]
    return "\n".join(lines) + "\n"


def check_orderings(pi: int, k: int, vars_: list, constraints: list,
                    orderings: list) -> None:
    """Raise unless ``orderings`` is at most k orderings of ``vars_``
    that jointly satisfy every constraint."""
    if not 1 <= len(orderings) <= k:
        raise WrongAnswer(f"{len(orderings)} orderings for k = {k}")
    poss = []
    for seq in orderings:
        if sorted(map(str, seq)) != sorted(map(str, vars_)):
            raise WrongAnswer("a witness ordering is not a permutation of "
                              "the instance variables")
        poss.append({v: i for i, v in enumerate(seq)})
    for c in constraints:
        if not any(satisfies(pi, pos, c) for pos in poss):
            raise WrongAnswer(f"constraint {c} is satisfied by no ordering")


# ---------------------------------------------------------------------------
# Triplets and trees


def parse_trip(text: str) -> set:
    """Triplets ``(a, b, c)`` for ``ab|c`` from the ``.trip`` format."""
    out = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, right = line.split("|")
        a, b = (_label(t) for t in left.split())
        out.add((a, b, _label(right.strip())))
    return out


def format_trip(triplets) -> str:
    return "".join(f"{a} {b} | {c}\n" for a, b, c in triplets)


def parse_newick(text: str):
    """Nested pairs for internal nodes, labels for leaves."""
    text = text.strip().rstrip(";")
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            kids = [node()]
            while text[pos] == ",":
                pos += 1
                kids.append(node())
            if text[pos] != ")" or len(kids) != 2:
                raise WrongAnswer(f"not a binary Newick tree: {text}")
            pos += 1
            return tuple(kids)
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        return _label(text[start:pos].strip())

    try:
        tree = node()
    except IndexError:
        raise WrongAnswer(f"truncated Newick tree: {text}") from None
    if pos != len(text):
        raise WrongAnswer(f"trailing text in Newick tree: {text}")
    return tree


def leaves(tree) -> list:
    if isinstance(tree, tuple):
        return leaves(tree[0]) + leaves(tree[1])
    return [tree]


def clusters(tree) -> list:
    """The leaf set below every node."""
    out = []

    def walk(t):
        s = walk(t[0]) | walk(t[1]) if isinstance(t, tuple) else \
            frozenset((t,))
        out.append(s)
        return s

    walk(tree)
    return out


def displays(cls: list, r: tuple) -> bool:
    a, b, c = r
    lca = min((s for s in cls if a in s and b in s), key=len)
    return c not in lca


def is_caterpillar(tree) -> bool:
    while isinstance(tree, tuple):
        left, right = tree
        if isinstance(left, tuple) and isinstance(right, tuple):
            return False
        tree = left if isinstance(left, tuple) else right
    return True


def caterpillars(labels) -> list:
    """Every caterpillar on ``labels``, read bottom-up from its cherry."""
    out = []
    for seq in permutations(labels):
        if str(seq[0]) > str(seq[1]):
            continue  # the cherry is unordered
        tree = (seq[0], seq[1])
        for x in seq[2:]:
            tree = (tree, x)
        out.append(tree)
    return out


def two_caterpillar_cover(triplets) -> bool:
    """Brute force: do at most two caterpillars on the triplets' labels
    display every triplet?"""
    labels = {x for r in triplets for x in r}
    shown = [frozenset(r for r in triplets if displays(clusters(t), r))
             for t in caterpillars(labels)]
    want = frozenset(triplets)
    return want in shown or \
        any(a | b == want for a, b in combinations(shown, 2))


def check_trees(triplets, k: int, newicks: list, caterpillar: bool,
                labels=None) -> None:
    """Raise unless at most k binary trees (caterpillars if flagged) on
    distinct leaves jointly display every triplet.  With ``labels``, each
    tree must have exactly that leaf set."""
    if not 1 <= len(newicks) <= k:
        raise WrongAnswer(f"{len(newicks)} trees for k = {k}")
    trees = []
    for nw in newicks:
        t = parse_newick(nw)
        ls = leaves(t)
        if len(set(ls)) != len(ls):
            raise WrongAnswer(f"repeated leaf in {nw}")
        if labels is not None and set(ls) != set(labels):
            raise WrongAnswer(f"leaf set of {nw} is not {sorted(labels)}")
        if caterpillar and not is_caterpillar(t):
            raise WrongAnswer(f"{nw} is not a caterpillar")
        trees.append((set(ls), clusters(t)))
    for r in triplets:
        if not any(set(r) <= ls and displays(cls, r) for ls, cls in trees):
            raise WrongAnswer(f"triplet {r} is displayed by no tree")


def full_triplets(n: int) -> list:
    out = []
    for a, b, c in combinations(range(1, n + 1), 3):
        out += [(a, b, c), (a, c, b), (b, c, a)]
    return out


# ---------------------------------------------------------------------------
# Digraphs


def format_dot(n: int, arcs) -> str:
    lines = ["digraph {"] + [f'  "{v}";' for v in range(n)]
    lines += [f'  "{u}" -> "{v}";' for u, v in sorted(arcs)]
    return "\n".join(lines + ["}"]) + "\n"


def _acyclic(members: set, succ: dict) -> bool:
    indeg = {v: 0 for v in members}
    for u in members:
        for w in succ[u]:
            if w in members:
                indeg[w] += 1
    stack = [v for v in members if indeg[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for w in succ[u]:
            if w in members:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
    return seen == len(members)


def two_dicolorable(n: int, arcs) -> bool:
    """Brute force over all 2-colourings: is there one whose colour
    classes both induce acyclic subgraphs?"""
    succ = {v: [w for u, w in arcs if u == v] for v in range(n)}
    for bits in range(1 << (n - 1)):  # vertex n-1 fixed to colour 0
        cls = {v for v in range(n) if bits >> v & 1}
        if _acyclic(cls, succ) and _acyclic(set(range(n)) - cls, succ):
            return True
    return False
