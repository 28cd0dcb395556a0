"""End-to-end command-line tests: exit codes, JSON reports, file round trips."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import triord
from triord import cli, extremal
from triord.cli import main
from triord.extremal import full_triplet_set, tau_cnf, tau_decision
from triord.gadgets import PI6_GADGET, PI9_GADGET, gadget_instance
from triord.orderings import format_instance, make_instance, parse_instance
from triord.phylo import (
    displayed_triplets, displays, format_triplets, is_caterpillar,
    parse_newick, parse_triplets, to_dot, triplet,
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


def test_solve_has_no_mode_flag(tmp_path):
    # one engine decides; the brute-force oracle is not a CLI path
    f = tmp_path / "one.csp"
    f.write_text(format_instance(make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])))
    for mode in ("cdcl", "exhaustive", "branch_and_bound"):
        with pytest.raises(SystemExit) as e:
            main(["solve", str(f), "--mode", mode])
        assert e.value.code == 2


def test_solve_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.csp"
    f.write_text("pi 5\nc 1 2\n")
    code, report = run(capsys, "solve", str(f))
    assert code == 2
    assert "line 2" in report["error"]


@pytest.mark.parametrize("text, error", [
    ("pi 5 9\nc 1 2 3\n", "line 1: `pi` needs exactly one value"),
    ("pi 5\nk 2 7\n", "line 2: `k` needs exactly one value"),
    ("pi 5\npi 9\n", "line 2: second `pi` line"),
    ("pi\n", "line 1: `pi` needs exactly one value"),
    ("pi 0\nc 1 2 3\nc 3 2 1\n",
     "line 2: constraint uses unknown variable: 1"),
], ids=["pi-two-values", "k-two-values", "second-pi", "bare-pi", "no-vars"])
def test_solve_malformed_directive(tmp_path, capsys, text, error):
    f = tmp_path / "bad.csp"
    f.write_text(text)
    code, report = run(capsys, "solve", str(f))
    assert code == 2
    assert report["error"] == f"{f}: {error}"


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


def test_reduce_looks_up_readers_and_writers_per_call(tmp_path, capsys,
                                                      monkeypatch):
    # bench/spans.py wraps cli.parse_dot and cli.format_triplets (among
    # others) after import; the reduce path must call the wrappers
    calls = []
    for name in ("parse_dot", "format_triplets"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, fn=fn, name=name:
                            calls.append(name) or fn(x))
    f = tmp_path / "g.dot"
    f.write_text(to_dot(Digraph(frozenset([1, 2, 3]),
                                frozenset([(1, 2), (1, 3)]))))
    code, report = run(capsys, "reduce", "outdeg3-to-2cat", str(f),
                       str(tmp_path / "g.trip"))
    assert code == 0 and calls == ["parse_dot", "format_triplets"]
    assert report["result"]["source"] == {"kind": "digraph", "vertices": 3,
                                          "arcs": 2}
    assert report["result"]["target"] == {"kind": "caterpillar",
                                          "triplets": 1, "labels": 3}


def test_reduce_malformed_file_is_named(tmp_path, capsys):
    f = tmp_path / "bad.csp"
    f.write_text("pi 5\nc 1 2\n")
    code, report = run(capsys, "reduce", "1pi5-to-2pi0", str(f),
                       str(tmp_path / "o.csp"))
    assert code == 2
    assert report["error"] == f"{f}: line 2: constraint line needs 3 variables"


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
    # the symmetry follows from the family, so no switch turns it off;
    # `--no-sym` abbreviated the switch while there was one
    for flag in ("--no-symmetry", "--no-sym"):
        with pytest.raises(SystemExit) as e:
            main(["gadget-verify", "pi5", flag])
        assert e.value.code == 2
    code, report = run(capsys, "gadget-verify", "pi5")
    assert code == 0 and report["result"]["unique"] is True
    assert report["result"]["symmetry"] == "per_order_reversal"


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


def test_gadget_verify_tree_triple_reports_newick(capsys):
    code, report = run(capsys, "gadget-verify", "tree-triple")
    assert code == 0 and report["result"]["unique"] is True
    covers = report["result"]["solutions"]
    assert len(covers) == 1
    assert {parse_newick(s) for s in covers[0]} == \
        {parse_newick(s) for s in report["result"]["trees"]}


def test_gadget_verify_tree_triple_rejects_no_symmetry():
    # rejected at argument parsing, as for every gadget
    with pytest.raises(SystemExit) as e:
        main(["gadget-verify", "tree-triple", "--no-symmetry"])
    assert e.value.code == 2


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
    # the search count is named for its unit, the CDCL conflicts
    code, report = run(capsys, "tau", "--n", "6", "--k", "4")
    assert code == 0 and "nodes" not in report["result"]
    assert report["result"]["conflicts"] == tau_decision(6, 4).nodes == 11


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
    assert report["result"]["conflicts"] == 2


def test_tau_budget_is_summed_over_every_k(capsys):
    # tau(7) = 4 spends 0, 0, 27 and 18 conflicts on k = 1..4: 27 leaves
    # nothing for k = 4, and 45 is just enough
    code, report = run(capsys, "tau", "--n", "7", "--node-limit", "27")
    assert code == 2
    assert report["result"]["value"] is None
    assert report["result"]["lower_bound"] == 4
    assert report["result"]["conflicts"] == 27
    code, report = run(capsys, "tau", "--n", "7", "--node-limit", "45")
    assert code == 0
    assert report["result"]["value"] == 4
    assert report["result"]["conflicts"] == 45


def test_tau_export_cnf(tmp_path, capsys):
    path = tmp_path / "model.cnf"
    code, report = run(capsys, "tau", "--n", "4", "--k", "3",
                       "--export-cnf", str(path))
    assert code == 0 and report["result"]["cnf_file"] == str(path)
    text = path.read_text()
    header, *lines = text.splitlines()
    # 3 orientations of each of the 4 leaf triples, in 3 slots
    assert header == f"p cnf 36 {len(lines)}"
    assert text == tau_cnf(4, 3).dimacs()
    code, report = run(capsys, "tau", "--n", "4", "--k", "2",
                       "--export-cnf", str(path))
    assert code == 1 and "0" in path.read_text().splitlines()
    code, report = run(capsys, "tau", "--n", "4", "--export-cnf", str(path))
    assert code == 2 and "--k" in report["error"]
    code, report = run(capsys, "tau", "--n", "2", "--k", "1",
                       "--export-cnf", str(path))
    assert code == 2 and "leaves" in report["error"]


def test_tau_export_decides_the_written_formula(tmp_path, capsys,
                                               monkeypatch):
    # the same answer and conflicts as without the export, from the one
    # formula the CLI built and wrote: the decision builds no second one
    code, plain = run(capsys, "tau", "--n", "6", "--k", "4")
    built = []
    monkeypatch.setattr(extremal, "tau_cnf",
                        lambda *a: built.append(a) or tau_cnf(*a))
    path = tmp_path / "t6.cnf"
    code2, exported = run(capsys, "tau", "--n", "6", "--k", "4",
                          "--export-cnf", str(path))
    assert built == [] and path.read_text() == tau_cnf(6, 4).dimacs()
    assert exported["result"].pop("cnf_file") == str(path)
    assert (code2, without_time(exported)) == (code, without_time(plain))


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


# ---------------------------------------------------------------------------
# --node-limit


@pytest.mark.parametrize("argv", [
    ["solve", "{csp}", "--node-limit", "-1"],
    ["compat", "{csp}", "--k", "2", "--caterpillar", "--node-limit", "-1"],
    ["solve", "{csp}", "--enumerate", "--node-limit", "-5"],
    ["gadget-verify", "pi5", "--node-limit", "-1"],
    ["tau", "--n", "4", "--node-limit", "-1"],
    ["tau", "--n", "4", "--k", "3", "--node-limit", "-1"],
    ["compat", "{csp}", "--k", "2", "--node-limit", "-1"],
])
def test_negative_node_limit_rejected(tmp_path, capsys, argv):
    # refused before any search, so the outcome cannot depend on the engine
    f = tmp_path / "one.csp"
    f.write_text(format_instance(make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])))
    code, report = run(capsys, *(a.format(csp=f) for a in argv))
    assert code == 2
    assert "--node-limit" in report["error"]
    assert "result" not in report


def test_zero_node_limit_allows_no_conflict(tmp_path, capsys):
    f = tmp_path / "one.csp"
    f.write_text(format_instance(make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])))
    code, report = run(capsys, "solve", str(f), "--node-limit", "0")
    assert code == 0 and report["result"]["satisfiable"] is True
    code, report = run(capsys, "tau", "--n", "6", "--k", "4",
                       "--node-limit", "0")
    assert code == 2 and report["result"]["decision"] is None


# ---------------------------------------------------------------------------
# the unknown report: every result key, in order, with the answer None

SOLVE_KEYS = ["pi", "k", "variables", "constraints", "satisfiable"]
COMPAT_KEYS = ["k", "caterpillar", "triplets", "compatible", "trees"]


@pytest.mark.parametrize("argv, keys, answer", [
    (["solve", "{csp}", "--node-limit", "0"], SOLVE_KEYS, "satisfiable"),
    (["solve", "{csp}", "--enumerate", "--node-limit", "3"], SOLVE_KEYS,
     "satisfiable"),
    (["compat", "{all5}", "--k", "3", "--node-limit", "5"], COMPAT_KEYS,
     "compatible"),
    (["compat", "{sep}", "--k", "3", "--caterpillar", "--node-limit", "1"],
     COMPAT_KEYS, "compatible"),
    (["gadget-verify", "pi9", "--node-limit", "10"],
     ["unique", "symmetry", "pi", "k", "generators"], "unique"),
    (["gadget-verify", "tree-triple", "--node-limit", "1"],
     ["unique", "symmetry", "trees", "orderings"], "unique"),
    (["tau", "--n", "6", "--k", "4", "--node-limit", "2"],
     ["n", "k", "caterpillar", "decision", "conflicts", "trees"],
     "decision"),
    (["tau", "--n", "6", "--node-limit", "2"],
     ["n", "caterpillar", "value", "lower_bound", "exact", "conflicts",
      "trees"], "value"),
], ids=["solve", "solve-enumerate", "compat", "compat-caterpillar",
        "gadget-pi9", "gadget-tree-triple", "tau-k", "tau"])
def test_budget_unknown_report(tmp_path, capsys, argv, keys, answer):
    files = {"csp": format_instance(gadget_instance(list(PI9_GADGET), 9, 2)),
             "all5": format_triplets(full_triplet_set(5)),
             "sep": format_triplets(SEPARATING)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, report = run(capsys, *(a.format(**{n: tmp_path / n for n in files})
                                 for a in argv))
    assert code == 2
    assert list(report) == ["schema", "command", "input_sha256", "result",
                            "wall_time_s"]
    assert list(report["result"]) == keys
    assert report["result"][answer] is None


# ---------------------------------------------------------------------------
# the parser built once at import, and the real entry point


def fresh(*argv):
    """Exit code and stdout of ``python -m triord.cli`` in a new
    interpreter."""
    src = os.path.dirname(os.path.dirname(triord.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "triord.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    return proc.returncode, proc.stdout


def without_time(report):
    report.pop("wall_time_s", None)
    return report


def test_shared_parser_leaks_no_state(tmp_path, capsys):
    trip = tmp_path / "f.trip"
    trip.write_text(format_triplets(SEPARATING))
    csp = tmp_path / "x.csp"
    csp.write_text(format_instance(
        make_instance(5, 1, [1, 2, 3], [(1, 2, 3)])))
    calls = [
        ["compat", str(trip), "--k", "2", "--caterpillar"],
        ["compat", str(trip), "--k", "2"],
        ["solve", str(csp), "--enumerate"],
        ["solve", str(csp)],
    ]
    got = []
    for argv in calls[:2]:
        got.append(run(capsys, *argv))
    with pytest.raises(SystemExit) as e:  # argparse rejects the flag
        main(["solve", str(csp), "--no-such-flag"])
    assert e.value.code == 2
    capsys.readouterr()
    for argv in calls[2:]:
        got.append(run(capsys, *argv))
    assert got[1][1]["result"]["caterpillar"] is False
    assert "solutions" in got[2][1]["result"]
    assert "solutions" not in got[3][1]["result"]
    for argv, (code, report) in zip(calls, got):
        fresh_code, out = fresh(*argv)
        assert (code, without_time(report)) == \
            (fresh_code, without_time(json.loads(out)))


def test_internal_fault_is_an_error_report(tmp_path, capsys, monkeypatch):
    # an exception escaping a subcommand is no answer: one JSON error
    # line and exit 2, never a traceback with exit 1 (which means "no")
    def broken(d):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "two_dicolorable", broken)
    f = tmp_path / "g.dot"
    f.write_text(to_dot(Digraph(frozenset([1, 2]), frozenset([(1, 2)]))))
    code = main(["dicolor", str(f)])
    out, err = capsys.readouterr()
    assert code == 2 and out.count("\n") == 1 and not err
    report = json.loads(out)
    assert report == {"schema": 1, "command": "dicolor",
                      "error": "internal error: RuntimeError: boom"}


@pytest.mark.parametrize("case", ["dot", "trip", "disjoint"])
def test_deep_inputs_never_read_as_no(tmp_path, capsys, case):
    # about 1,200 elements, past the recursion limit, each a "yes": an
    # arc-free digraph (2-dicolorable), the chain x{i} x{i+1} | x{i+2}
    # with k = 1 (one caterpillar 1,200 deep) and the disjoint triplets
    # a{i} b{i} | c{i} with k = 2 (the partition search branches 1,200
    # deep, then one caterpillar holds them all)
    if case == "dot":
        f = tmp_path / "deep.dot"
        f.write_text(to_dot(Digraph(frozenset(range(1200)), frozenset())))
        argv, answer = ["dicolor", str(f)], "dicolorable"
    else:
        trips = ([triplet(f"x{i}", f"x{i + 1}", f"x{i + 2}")
                  for i in range(1198)] if case == "trip" else
                 [triplet(f"a{i}", f"b{i}", f"c{i}") for i in range(1200)])
        f = tmp_path / "deep.trip"
        f.write_text(format_triplets(trips))
        argv = ["compat", str(f), "--k", "1" if case == "trip" else "2",
                "--caterpillar"]
        answer = "compatible"
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and out.count("\n") == 1 and not err
    result = json.loads(out)["result"]
    assert result[answer] is True
    if case == "trip":
        (tree,) = map(parse_newick, result["trees"])
        assert all(displays(tree, t) for t in trips)


def test_entry_point_prints_one_json_line(tmp_path):
    csp = tmp_path / "x.csp"
    csp.write_text(format_instance(
        make_instance(0, 1, [1, 2, 3], [(1, 2, 3), (2, 1, 3)])))
    trip = tmp_path / "f.trip"
    trip.write_text(format_triplets(SEPARATING))
    one = tmp_path / "one.trip"
    one.write_text(format_triplets([triplet("x", "y", "z")]))
    dot = tmp_path / "g.dot"
    dot.write_text(to_dot(Digraph(frozenset([1, 2]),
                                  frozenset([(1, 2), (2, 1)]))))
    cases = [
        (["solve", str(csp)], 1),
        (["reduce", "2cat-to-3tree", str(one), str(tmp_path / "o.trip")],
         0),
        (["gadget-verify", "pi6"], 0),
        (["tau", "--n", "6", "--k", "4", "--node-limit", "2"], 2),
        (["tau", "--n", "4", "--node-limit", "-1"], 2),
        (["compat", str(trip), "--k", "2", "--caterpillar"], 1),
        (["dicolor", str(dot)], 0),
    ]
    for argv, want in cases:
        code, out = fresh(*argv)
        assert code == want, argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert json.loads(out)["command"] == argv[0]
    assert fresh("-h")[0] == 0
    assert fresh("solve", str(csp), "--no-such-flag") == (2, "")


def test_compat_node_limit(tmp_path, capsys):
    f = tmp_path / "all5.trip"
    f.write_text(format_triplets(full_triplet_set(5)))  # tau(5) = 4
    code, report = run(capsys, "compat", str(f), "--k", "3",
                       "--node-limit", "5")
    assert code == 2
    assert report["result"]["compatible"] is None
    assert report["result"]["trees"] is None
    code, report = run(capsys, "compat", str(f), "--k", "3",
                       "--node-limit", "1000")
    assert code == 1 and report["result"]["compatible"] is False


def test_compat_caterpillar_node_limit(tmp_path, capsys):
    f = tmp_path / "x.trip"
    f.write_text(format_triplets(SEPARATING))
    code, report = run(capsys, "compat", str(f), "--k", "3",
                       "--caterpillar", "--node-limit", "1")
    assert code == 2 and report["result"]["compatible"] is None
    for k, want in ((2, 1), (3, 0)):
        code, report = run(capsys, "compat", str(f), "--k", str(k),
                           "--caterpillar", "--node-limit", "10000")
        assert code == want
        assert report["result"]["compatible"] is (want == 0)


# ---------------------------------------------------------------------------
# reader fuzzing: a mutated input file gives an answer or an error report,
# never a traceback

VALID_FILES = {
    "csp": ("pi 5\nvars 1 2 3 4\nc 1 2 3  # one\nc 2 4 3\n", ["solve"]),
    "trip": ("a b | c\nb c | d  # two\na d | c\n", ["compat", "--k", "2"]),
    "dot": ('digraph {\n  "1";\n  "1" -> "2";\n  2 -> 3;\n  "3" -> "1";\n'
            '  // three\n}\n', ["dicolor"]),
}
_FORMAT_CHARS = st.sampled_from(list('0123456789abcpikv |#"->{};\n\t'))
_ANY_CHAR = st.characters(blacklist_categories=("Cs",))


@st.composite
def mutated(draw, text):
    """``text`` after one to four edits: a character inserted, deleted or
    replaced at a drawn position."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(_FORMAT_CHARS | _ANY_CHAR)
        if edit == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + (ch if edit == "replace" else "") + text[i + 1:]
    return text


@pytest.mark.parametrize("ext", sorted(VALID_FILES))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_files(tmp_path, capsys, ext, data):
    # an edit may leave the file well formed, so an answer (exit 0 or 1
    # with a result) is allowed too; anything else is exit 2 with an error
    text, argv = VALID_FILES[ext]
    f = tmp_path / f"in.{ext}"
    f.write_text(data.draw(mutated(text)), encoding="utf-8")
    code = main([argv[0], str(f), *argv[1:]])
    out, err = capsys.readouterr()
    assert out.endswith("\n") and out.count("\n") == 1 and not err
    report = json.loads(out)
    if code == 2:
        assert report["error"] and "result" not in report
        assert not report["error"].startswith("internal error")
    else:
        assert code in (0, 1) and "error" not in report
        assert report["result"]
