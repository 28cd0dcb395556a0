"""End-to-end command-line tests: exit codes, JSON reports, file round trips."""

import json

import pytest

from triord.cli import main
from triord.extremal import full_triplet_set
from triord.gadgets import PI6_GADGET, gadget_instance
from triord.orderings import format_instance, make_instance, parse_instance
from triord.phylo import (
    displayed_triplets, format_triplets, is_caterpillar, parse_newick,
    parse_triplets, to_dot, triplet,
)
from triord.phylo import Digraph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# solve


def test_solve_enumerates_pi6_gadget(tmp_path, capsys):
    inst = gadget_instance(list(PI6_GADGET), 6, 2)
    f = tmp_path / "gadget_pi6.csp"
    f.write_text(format_instance(inst))
    code, report = run(capsys, "solve", str(f), "--enumerate")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "solve"
    assert report["result"]["satisfiable"] is True
    assert report["result"]["solution_count"] == 1
    assert sorted(report["result"]["solutions"][0]) == \
        [[1, 2, 3, 4], [2, 4, 1, 3]]


def test_solve_trivial_family_witness(tmp_path, capsys):
    inst = make_instance(7, 2, range(1, 6),
                         [(1, 2, 3), (3, 2, 1), (4, 5, 1), (2, 5, 4)])
    f = tmp_path / "trivial_pi7.csp"
    f.write_text(format_instance(inst))
    code, report = run(capsys, "solve", str(f))
    assert code == 0
    a, b = report["result"]["solution"]
    assert a == b[::-1]  # a reversal pair satisfies everything


def test_solve_unsatisfiable(tmp_path, capsys):
    inst = make_instance(0, 1, [1, 2, 3], [(1, 2, 3), (2, 1, 3)])
    f = tmp_path / "unsat.csp"
    f.write_text(format_instance(inst))
    code, report = run(capsys, "solve", str(f))
    assert code == 1
    assert report["result"]["satisfiable"] is False


def test_solve_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.csp"
    f.write_text("pi 5\nc 1 2\n")
    code, report = run(capsys, "solve", str(f))
    assert code == 2
    assert "line 2" in report["error"]


def test_solve_missing_file(capsys):
    code, report = run(capsys, "solve", "/nonexistent.csp")
    assert code == 2
    assert "error" in report


# ---------------------------------------------------------------------------
# reduce


def test_reduce_pair_formula_doubles_constraints(tmp_path, capsys):
    inst = make_instance(5, 1, [1, 2, 3, 4], [(1, 2, 3), (2, 3, 4)])
    src = tmp_path / "in.csp"
    out = tmp_path / "out.csp"
    src.write_text(format_instance(inst))
    code, report = run(capsys, "reduce", "1pi5-to-2pi0", str(src), str(out))
    assert code == 0
    m = report["result"]
    assert m["source"]["constraints"] * 2 == m["target"]["constraints"]
    assert m["target"]["pi"] == 0 and m["target"]["k"] == 2
    # the written file parses back to a usable instance
    back = parse_instance(out.read_text())
    assert len(back.constraints) == 4


def test_reduce_triplets_manifest(tmp_path, capsys):
    src = tmp_path / "in.trip"
    out = tmp_path / "out.trip"
    src.write_text(format_triplets([triplet("x", "y", "z")]))
    code, report = run(capsys, "reduce", "2cat-to-3tree", str(src), str(out))
    assert code == 0
    assert report["result"]["target"]["triplets"] == 57 + 58
    assert parse_triplets(out.read_text())  # round trip


def test_reduce_chaining_namespaced(tmp_path, capsys):
    # digraph chain: dichromatic -> outdeg3 -> 2cat without name collisions
    d = Digraph(frozenset(range(5)),
                frozenset((u, v) for u in range(5) for v in range(5) if u != v))
    f1, f2, f3 = (tmp_path / n for n in ("a.dot", "b.dot", "c.trip"))
    f1.write_text(to_dot(d))
    code, _ = run(capsys, "reduce", "dichromatic-to-outdeg3",
                  str(f1), str(f2))
    assert code == 0
    code, report = run(capsys, "reduce", "outdeg3-to-2cat", str(f2), str(f3))
    assert code == 0
    assert parse_triplets(f3.read_text())


def test_reduce_unknown_name(tmp_path, capsys):
    f = tmp_path / "in.csp"
    f.write_text("pi 5\n")
    code, report = run(capsys, "reduce", "nope", str(f), str(tmp_path / "o"))
    assert code == 2
    assert "unknown reduction" in report["error"]


def test_reduce_wrong_family_rejected(tmp_path, capsys):
    inst = make_instance(0, 1, [1, 2, 3], [(1, 2, 3)])
    f = tmp_path / "in.csp"
    f.write_text(format_instance(inst))
    code, report = run(capsys, "reduce", "1pi5-to-2pi0", str(f),
                       str(tmp_path / "o.csp"))
    assert code == 2


# ---------------------------------------------------------------------------
# gadget-verify


def test_gadget_verify_pi5(capsys):
    code, report = run(capsys, "gadget-verify", "pi5")
    assert code == 0
    assert report["result"]["unique"] is True
    assert report["result"]["solution_count"] == 4  # reversal closure
    assert report["result"]["raw_ordered_count"] == 8


def test_gadget_verify_pi5_no_symmetry(capsys):
    code, report = run(capsys, "gadget-verify", "pi5", "--no-symmetry")
    assert code == 1  # four raw solutions, so not unique without the quotient
    assert report["result"]["solution_count"] == 4


def test_gadget_verify_pi6(capsys):
    code, report = run(capsys, "gadget-verify", "pi6")
    assert code == 0
    assert report["result"]["solution_count"] == 1


def test_gadget_verify_budget_unknown(capsys):
    code, report = run(capsys, "gadget-verify", "pi9", "--node-limit", "10")
    assert code == 2
    assert report["result"]["unique"] is None
    assert report["result"]["pi"] == 9


def test_gadget_verify_tree_triple_budget_unknown(capsys):
    code, report = run(capsys, "gadget-verify", "tree-triple",
                       "--node-limit", "1")
    assert code == 2
    assert report["result"]["unique"] is None
    assert len(report["result"]["trees"]) == 3


def test_gadget_verify_tree_triple_rejects_no_symmetry(capsys):
    code, report = run(capsys, "gadget-verify", "tree-triple",
                       "--no-symmetry")
    assert code == 2
    assert "--no-symmetry" in report["error"]
    assert "result" not in report


# ---------------------------------------------------------------------------
# tau


def test_tau_value(capsys):
    code, report = run(capsys, "tau", "--n", "4")
    assert code == 0
    assert report["result"]["value"] == 3
    assert len(report["result"]["trees"]) == 3


def test_tau_decision_exit_codes(capsys):
    code, report = run(capsys, "tau", "--n", "4", "--k", "2")
    assert code == 1 and report["result"]["decision"] is False
    code, report = run(capsys, "tau", "--n", "4", "--k", "3", "--caterpillar")
    assert code == 0 and report["result"]["decision"] is True


@pytest.mark.parametrize("flags", [[], ["--caterpillar"]])
def test_tau_8(capsys, flags):
    code, report = run(capsys, "tau", "--n", "8", *flags)
    assert code == 0 and report["result"]["value"] == 4
    trees = [parse_newick(s) for s in report["result"]["trees"]]
    assert len(trees) == 4
    if flags:
        assert all(is_caterpillar(t) for t in trees)
    assert set().union(*map(displayed_triplets, trees)) == \
        full_triplet_set(8)


def test_tau_budget_unknown(capsys):
    code, report = run(capsys, "tau", "--n", "6", "--k", "4",
                       "--node-limit", "2")
    assert code == 2
    assert report["result"]["decision"] is None


def test_tau_export_lp(tmp_path, capsys):
    lp = tmp_path / "model.lp"
    code, report = run(capsys, "tau", "--n", "4", "--k", "3",
                       "--export-lp", str(lp))
    assert code == 0
    text = lp.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    code, report = run(capsys, "tau", "--n", "4", "--export-lp", str(lp))
    assert code == 2  # needs an explicit --k


def test_tau_bad_n(capsys):
    code, report = run(capsys, "tau", "--n", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# compat


SEPARATING = [triplet(1, 3, 4), triplet(1, 4, 2), triplet(1, 4, 3),
              triplet(2, 3, 1), triplet(2, 4, 1)]


def test_compat_separating_example(tmp_path, capsys):
    f = tmp_path / "counterexample.trip"
    f.write_text(format_triplets(SEPARATING))
    code, report = run(capsys, "compat", str(f), "--k", "2")
    assert code == 0
    assert len(report["result"]["trees"]) <= 2
    code, report = run(capsys, "compat", str(f), "--k", "2", "--caterpillar")
    assert code == 1
    assert report["result"]["compatible"] is False
    code, report = run(capsys, "compat", str(f), "--k", "3", "--caterpillar")
    assert code == 0


def test_compat_bad_k(tmp_path, capsys):
    f = tmp_path / "x.trip"
    f.write_text(format_triplets(SEPARATING))
    code, report = run(capsys, "compat", str(f), "--k", "0")
    assert code == 2
    assert "k must be" in report["error"]


def test_compat_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.trip"
    f.write_text("")
    code, report = run(capsys, "compat", str(f), "--k", "1")
    assert code == 0
    assert report["result"]["compatible"] is True
    assert report["result"]["trees"] == []


# ---------------------------------------------------------------------------
# dicolor


def test_dicolor_yes(tmp_path, capsys):
    d = Digraph(frozenset([1, 2, 3, 4]),
                frozenset([(1, 2), (2, 1), (3, 4), (4, 3)]))
    f = tmp_path / "twocycles.dot"
    f.write_text(to_dot(d))
    code, report = run(capsys, "dicolor", str(f))
    assert code == 0
    coloring = report["result"]["coloring"]
    assert coloring["1"] != coloring["2"]
    assert coloring["3"] != coloring["4"]


def test_dicolor_no(tmp_path, capsys):
    # a bidirected triangle needs three colors
    arcs = {(u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v}
    f = tmp_path / "triangle.dot"
    f.write_text(to_dot(Digraph(frozenset([1, 2, 3]), frozenset(arcs))))
    code, report = run(capsys, "dicolor", str(f))
    assert code == 1
    assert report["result"]["coloring"] is None


def test_dicolor_rejects_unsupported_dot(tmp_path, capsys):
    f = tmp_path / "chain.dot"
    f.write_text("digraph {\n  a -> b -> c;\n}\n")
    code, report = run(capsys, "dicolor", str(f))
    assert code == 2
    assert "line 2" in report["error"]


# ---------------------------------------------------------------------------
# report stability


def test_reports_stable_across_runs(tmp_path, capsys):
    f = tmp_path / "i.csp"
    f.write_text(format_instance(
        make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])))

    def snapshot():
        _, report = run(capsys, "solve", str(f), "--enumerate")
        report.pop("wall_time_s")
        return report

    assert snapshot() == snapshot()
