"""Seeded question lists for the three workloads, with expected answers.

A *question* is the list of CLI calls one user answer needs (for
example ``reduce`` then ``solve``).  ``build(name, seed, workdir)`` writes
the input files into ``workdir`` and returns the questions in the order
the benchmark asks them; the same seed always gives the same files.
Expected answers come from ``oracle`` alone.  Question kinds are
interleaved round-robin so that every prefix of a list has about the
list's mix.
"""

from __future__ import annotations

import os
import random
from itertools import combinations, product

import oracle

#: List sizes, so that a 30-second run makes two passes or more over each
#: list.  At this commit one pass takes about 8 s (order-decide) and
#: 10-14 s (tree-compat, exact-search) on a 2-core x86 host.
#: order-decide questions per reduction, by (variables, constraints,
#: satisfiable): the source space's mix, about 60/323 of each class.  The
#: unsatisfiable sources are the slowest, so a fixed count of them keeps
#: the tail from moving with the seed.
ORDER_STRATA = {(3, 1, True): 1, (3, 2, False): 2, (3, 2, True): 1,
                (4, 1, True): 5, (4, 2, False): 9, (4, 2, True): 42}
#: (labels used, triplets) of each tree-compat source, by answer.  The
#: median lies between the (4, 2) question and the faster incompatible
#: one, the tail is the slower incompatible one; (3, 1) and (4, 3)
#: sources are left out, the first for run length and the second
#: because its cost varies with the source.
TREE_COMPATIBLE = [(3, 2), (4, 2)]
TREE_INCOMPATIBLE = [(3, 3)] * 2
#: Enumeration questions per pattern family.  With twelve Pi9 ones
#: (0.4-0.6 s each) exact-search's tail is a middle one of them, not the
#: cheapest, which moves with the seed.
GADGETS = {5: 8, 6: 8, 9: 12}
#: Digraph questions by (vertices, 2-dicolorable): half of each answer,
#: and the draws' own mix of sizes within each (random draws give 62%
#: of the non-colorable digraphs on six vertices and 8% on nine).  They
#: are the cheapest questions (3-9 ms, more with more vertices); with 40
#: of them the median latency falls inside their group instead of at a
#: gap between question kinds, and a fixed mix of sizes keeps it from
#: moving with the seed.
DIGRAPH_STRATA = {(6, True): 5, (7, True): 5, (8, True): 5, (9, True): 5,
                  (6, False): 10, (7, False): 6, (8, False): 3,
                  (9, False): 1}
#: Times a question of a cheap kind is asked in each pass.  A call of a
#: few milliseconds sees one speed of the host and a call of a second
#: their mean, so a cheap question needs more answers for its mean to
#: settle; the repeats cost little.
CHEAP_ASKS = 4

#: tau(n) <= k questions on both sides of the known table.  tau(7) <= 3
#: and tau_c(7) <= 3 (19-25 s each at this commit) are left out.
TAU_QUESTIONS = [(n, k, cat) for cat in (False, True)
                 for n in (3, 4, 5, 6, 7)
                 for k in (oracle.TAU_TABLE[n] - 1, oracle.TAU_TABLE[n])
                 if n < 7 or k == oracle.TAU_TABLE[n]]


def _question(kind, calls, asks=1, **expect):
    return {"kind": kind, "calls": calls, "asks": asks, "expect": expect}


def _interleave(*groups):
    """Round-robin merge, spreading each group evenly over the result."""
    keyed = []
    for g in groups:
        for i, q in enumerate(g):
            keyed.append(((i + 0.5) / len(g), len(keyed), q))
    return [q for _, _, q in sorted(keyed, key=lambda x: x[:2])]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# order-decide: one-order betweenness sources, reduced to two orders


def betweenness_sources():
    """Every Pi5 source with 3 or 4 variables and at most two constraints
    (the criterion-7 source space, 323 instances)."""
    out = []
    for nv in (3, 4):
        vars_ = list(range(nv))
        triples = [c for c in product(vars_, repeat=3) if len(set(c)) == 3]
        for cs in [[]] + [[c] for c in triples] + \
                [list(p) for p in combinations(triples, 2)]:
            out.append((vars_, cs))
    return out


def order_decide(seed, workdir):
    rng = random.Random(seed)
    strata: dict = {}
    for vars_, cs in betweenness_sources():
        key = (len(vars_), len(cs), oracle.one_order_satisfiable(5, vars_, cs))
        strata.setdefault(key, []).append((vars_, cs))
    groups = []
    for red in ("1pi5-to-2pi9", "1pi5-to-2pi5"):
        group = []
        for key, count in ORDER_STRATA.items():
            for vars_, cs in rng.sample(strata[key], count):
                i = sum(map(len, groups)) + len(group)
                src = os.path.join(workdir, f"src{i}.csp")
                tgt = os.path.join(workdir, f"tgt{i}.csp")
                _write(src, oracle.format_csp(5, 1, vars_, cs))
                group.append(_question(
                    "order", [["reduce", red, src, tgt], ["solve", tgt]],
                    target=tgt, sat=key[2]))
        rng.shuffle(group)
        groups.append(group)
    return _interleave(*groups)


# ---------------------------------------------------------------------------
# tree-compat: two-caterpillar sources, reduced to three trees


def caterpillar_source(rng, labels, triplets):
    """A criterion-9 source: ``triplets`` distinct triplets using exactly
    ``labels`` of the names x y z w."""
    names = rng.sample(["x", "y", "z", "w"], labels)
    while True:
        out = set()
        while len(out) < triplets:
            a, b, c = rng.sample(names, 3)
            out.add((min(a, b), max(a, b), c))
        if len({x for r in out for x in r}) == labels:
            return sorted(out)


def tree_compat(seed, workdir):
    """Sources stratified by (labels used, triplets) and by the answer, so
    every list has the same mix of target sizes.  A two-caterpillar
    incompatible source needs three triplets on three labels."""
    rng = random.Random(seed)
    groups = {True: [], False: []}
    for ok, strata in ((True, TREE_COMPATIBLE), (False, TREE_INCOMPATIBLE)):
        for labels, triplets in strata:
            while True:
                src = caterpillar_source(rng, labels, triplets)
                if oracle.two_caterpillar_cover(src) == ok:
                    break
            i = len(groups[True]) + len(groups[False])
            spath = os.path.join(workdir, f"src{i}.trip")
            tpath = os.path.join(workdir, f"tgt{i}.trip")
            _write(spath, oracle.format_trip(src))
            groups[ok].append(_question(
                "tree", [["reduce", "2cat-to-3tree", spath, tpath],
                         ["compat", tpath, "--k", "3"]],
                target=tpath, compatible=ok))
    return _interleave(groups[True], groups[False])


# ---------------------------------------------------------------------------
# exact-search: tau, gadget enumeration, caterpillar compatibility


def _gadget_questions(rng, workdir):
    groups = []
    for pi, count in GADGETS.items():
        group = []
        for j in range(count):
            m = 5 if pi == 9 else 5 + j % 2
            vars_ = list(range(1, m + 1))
            # the generators must imply different constraint sets (in
            # Pi5 an ordering and its reverse do not), or the instance has
            # one order's constraints and up to thousands of solutions
            g1 = tuple(rng.sample(vars_, m))
            g2 = g1
            while oracle.implied(pi, g2) == oracle.implied(pi, g1):
                g2 = tuple(rng.sample(vars_, m))
            cs = sorted(oracle.implied(pi, g1) | oracle.implied(pi, g2))
            path = os.path.join(workdir, f"gadget{pi}_{j}.csp")
            _write(path, oracle.format_csp(pi, 2, vars_, cs))
            group.append(_question(
                "enum", [["solve", path, "--enumerate"]],
                solutions=sorted(oracle.two_order_solutions(pi, vars_, cs))))
        groups.append(group)
    return groups


def _digraph(rng, n):
    """Every vertex gets 2 or 3 out-neighbours."""
    arcs = set()
    for u in range(n):
        outs = rng.sample([v for v in range(n) if v != u], 3)
        arcs |= {(u, v) for v in outs[:rng.randint(2, 3)]}
    return sorted(arcs)


def _digraph_questions(rng, workdir):
    groups = {True: [], False: []}
    left = dict(DIGRAPH_STRATA)
    while any(left.values()):
        n = rng.randint(6, 9)
        arcs = _digraph(rng, n)
        ok = oracle.two_dicolorable(n, arcs)
        if not left[n, ok]:
            continue
        left[n, ok] -= 1
        i = sum(map(len, groups.values()))
        dpath = os.path.join(workdir, f"digraph{i}.dot")
        tpath = os.path.join(workdir, f"digraph{i}.trip")
        _write(dpath, oracle.format_dot(n, arcs))
        groups[ok].append(_question(
            "dicolor", [["reduce", "outdeg3-to-2cat", dpath, tpath],
                        ["compat", tpath, "--k", "2", "--caterpillar"]],
            CHEAP_ASKS, target=tpath, colorable=ok))
    return [groups[True], groups[False]]


def exact_search(seed, workdir):
    rng = random.Random(seed)
    taus = []
    for n, k, cat in TAU_QUESTIONS:
        argv = ["tau", "--n", str(n), "--k", str(k)]
        if cat:
            argv.append("--caterpillar")
        taus.append(_question("tau", [argv], CHEAP_ASKS if n <= 5 else 1,
                              n=n, k=k, caterpillar=cat,
                              answer=k >= oracle.TAU_TABLE[n]))
    rng.shuffle(taus)
    return _interleave(taus, *_gadget_questions(rng, workdir),
                       *_digraph_questions(rng, workdir))


# ---------------------------------------------------------------------------
# Warm-up: one tiny question per subcommand, answered during set-up


def warmup(name, workdir):
    """Fixed, small calls that touch every CLI path the workload uses, so
    one-time work on first use counts as set-up.  The 2cat-to-3tree
    reduction rederives its gadget triple on every call (about a second
    at this commit), so tree-compat set-up includes one such call."""
    csp = os.path.join(workdir, "warm.csp")
    trip = os.path.join(workdir, "warm.trip")
    _write(csp, oracle.format_csp(5, 1, [1, 2, 3], [(1, 2, 3)]))
    _write(trip, oracle.format_trip([("x", "y", "z")]))
    if name == "order-decide":
        return [["reduce", "1pi5-to-2pi9", csp, csp + ".pi9"],
                ["reduce", "1pi5-to-2pi5", csp, csp + ".pi5"],
                ["solve", csp]]
    if name == "tree-compat":
        return [["reduce", "2cat-to-3tree", trip, trip + ".3tree"],
                ["compat", trip, "--k", "3"]]
    dot = os.path.join(workdir, "warm.dot")
    _write(dot, oracle.format_dot(3, [(0, 1), (1, 2)]))
    return [["tau", "--n", "3", "--k", "3"],
            ["solve", csp, "--enumerate"],
            ["reduce", "outdeg3-to-2cat", dot, trip + ".out"],
            ["compat", trip, "--k", "2", "--caterpillar"]]


WORKLOADS = {"order-decide": order_decide, "tree-compat": tree_compat,
            "exact-search": exact_search}


def build(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
