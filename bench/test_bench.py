"""Tests of the benchmark itself: the oracle against known facts, the
answer checker against wrong reports, and the determinism of the traced
count metrics.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import os
import shutil

import pytest

import oracle
import run
import spans
import workloads
from oracle import WrongAnswer


# ---------------------------------------------------------------------------
# Oracle


def test_gadget_solution_counts():
    # pi5: the generator pair up to reversal of each member; pi6: unique
    pi5 = [(1, 2, 3, 4, 5), (5, 2, 3, 4, 1)]
    cs = sorted(oracle.implied(5, pi5[0]) | oracle.implied(5, pi5[1]))
    assert len(oracle.two_order_solutions(5, [1, 2, 3, 4, 5], cs)) == 4
    pi6 = [(1, 2, 3, 4), (2, 4, 1, 3)]
    cs = sorted(oracle.implied(6, pi6[0]) | oracle.implied(6, pi6[1]))
    assert oracle.two_order_solutions(6, [1, 2, 3, 4], cs) == \
        {tuple(sorted(pi6))}


def test_pattern_reading():
    # pattern 132 accepts alpha(v1) < alpha(v3) < alpha(v2)
    pos = {"a": 0, "c": 1, "b": 2}
    assert oracle.satisfies(6, pos, ("a", "b", "c"))      # 132 is in pi6
    assert not oracle.satisfies(5, pos, ("a", "b", "c"))  # not betweenness


def test_caterpillar_cover_separating_example():
    r = [(1, 3, 4), (1, 4, 2), (1, 4, 3), (2, 3, 1), (2, 4, 1)]
    assert not oracle.two_caterpillar_cover(r)
    assert not oracle.two_caterpillar_cover([("x", "y", "z"), ("x", "z", "y"),
                                             ("y", "z", "x")])
    assert oracle.two_caterpillar_cover([("x", "y", "z"), ("x", "z", "y")])


def test_dicoloring():
    k3 = [(u, v) for u in range(3) for v in range(3) if u != v]
    assert not oracle.two_dicolorable(3, k3)
    assert oracle.two_dicolorable(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def test_newick_display_and_caterpillar():
    t = oracle.parse_newick("((g:3tree:0:ab,x),(y,z));")
    cls = oracle.clusters(t)
    assert oracle.displays(cls, ("y", "z", "x"))
    assert not oracle.displays(cls, ("x", "y", "z"))
    assert not oracle.is_caterpillar(t)
    assert oracle.is_caterpillar(oracle.parse_newick("(((1,2),3),4);"))
    with pytest.raises(WrongAnswer):
        oracle.parse_newick("(1,2,3);")


def test_tau_witness_check():
    # three caterpillars, one per cherry, display all of T_3
    oracle.check_trees(oracle.full_triplets(3), 3,
                       ["((1,2),3);", "((1,3),2);", "((2,3),1);"], True,
                       labels=range(1, 4))
    with pytest.raises(WrongAnswer):
        oracle.check_trees(oracle.full_triplets(3), 3,
                           ["((1,2),3);", "((1,3),2);"], True)


# ---------------------------------------------------------------------------
# Checker


@pytest.fixture
def work():
    """A temporary directory inside the checkout's ignored work area."""
    path = os.path.join(run.ROOT, ".bench_work", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _report(result):
    return json.dumps({"schema": 1, "result": result})


def test_checker_rejects_wrong_answers(work):
    target = os.path.join(work, "t.csp")
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(oracle.format_csp(5, 2, [1, 2, 3], [(1, 2, 3)]))
    q = {"kind": "order", "calls": [["reduce"], ["solve"]],
         "expect": {"target": target, "sat": True}}
    good = [(0, _report({})),
            (0, _report({"satisfiable": True,
                         "solution": [[1, 2, 3], [2, 1, 3]]}))]
    assert run.Checker().check(q, good)
    bad_witness = [good[0], (0, _report({"satisfiable": True,
                                         "solution": [[2, 1, 3]]}))]
    with pytest.raises(WrongAnswer):
        run.Checker().check(q, bad_witness)
    wrong = [good[0], (1, _report({"satisfiable": False}))]
    with pytest.raises(WrongAnswer):
        run.Checker().check(q, wrong)
    unknown = [good[0], (2, _report({"satisfiable": None}))]
    assert not run.Checker().check(q, unknown)


def test_tail_percentile():
    # a short list: the 90th percentile, with fewer than ten beyond it
    qs = list(range(30))
    samples = [(q, (q + 1) / 1000, None) for q in qs]
    per_s, p50, tail, pct, beyond = run.latency_metrics(qs, samples)
    assert tail == pytest.approx(27.0) and pct == pytest.approx(90)
    assert beyond == 3 and p50 == pytest.approx(15.5)
    assert per_s == pytest.approx(30 / sum((q + 1) / 1000 for q in qs))
    # a long list: the highest percentile with ten beyond it
    qs = list(range(200))
    samples = [(q, (q + 1) / 1000, None) for q in qs]
    _, _, tail, pct, beyond = run.latency_metrics(qs, samples)
    assert tail == pytest.approx(190.0) and pct == pytest.approx(95)
    assert beyond == 10


def test_question_latency_is_mean_over_passes():
    samples = [(0, 0.1, None), (0, 0.5, None), (0, 0.3, None),
               (1, 0.5, None), (1, 0.3, None)]
    per_s, p50, _, _, _ = run.latency_metrics([0, 1], samples)
    assert per_s == pytest.approx(2 / 0.7) and p50 == pytest.approx(350)
    with pytest.raises(run.BenchError):
        run.latency_metrics([0, 1, 2], samples)


def test_cheap_questions_are_asked_more_often(work):
    questions = workloads.build("exact-search", 3, work)
    asks = {q["kind"]: set() for q in questions}
    for q in questions:
        asks[q["kind"]].add(q["asks"])
    assert asks["dicolor"] == {workloads.CHEAP_ASKS}
    assert asks["enum"] == {1} and asks["tau"] == {1, workloads.CHEAP_ASKS}


# ---------------------------------------------------------------------------
# Determinism of the traced counts


def _counts(work, name, seed, count, hash_seed):
    questions = workloads.build(name, seed, work)[:count]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    _, result = run.measure(questions, [], "trace", 0, env, work)
    metrics = spans.layer_metrics(result["spans"])
    return {name: metrics[name] for name in spans.COUNTS}


@pytest.mark.parametrize("name,count", [("order-decide", 6),
                                        ("tree-compat", 2),
                                        ("exact-search", 12)])
def test_counts_repeat_across_runs_and_hash_seeds(work, name, count):
    first = _counts(work, name, 3, count, "0")
    assert first == _counts(work, name, 3, count, "0")
    assert first == _counts(work, name, 3, count, "1")
    if name != "exact-search":
        assert first["sat.learnt"] > 0 and first["reductions.target_vars"] > 0
    else:
        assert first["sat.vars"] == 0 and first["extremal.nodes"] > 0
