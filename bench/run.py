"""The triord benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 bench/run.py --workload order-decide --seed 1 --seconds 30 \
        --trace 0

The run writes the workload's seeded inputs under ``.bench_work/``,
computes every expected answer from the plain definitions in
``oracle.py``, and then has one fresh worker interpreter ask the
questions through ``triord.cli.main``, one at a time (closed loop, one
caller, no threads).  Set-up is timed on the worker and on fresh
set-up-only interpreters the worker starts at points spread through its
run.  Every answer and every witness is checked after the run; a wrong
one aborts with exit code 1.  With ``--trace 1`` each question of the
list is asked once untraced and once traced and the run reports
per-layer metrics.

Every metric is printed by name with its unit; the last line is the
result as one JSON object.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys

import oracle
import spans
import worker
import workloads
from oracle import WrongAnswer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 6  # set-up-only interpreters spread through a run
TIME_LIMIT_S = 170

#: end-to-end metric -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_tail_ms": "ms",
    "answered_frac": "frac",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Checking answers


class Checker:
    """Checks each report against the oracle's answer and each witness
    against the plain definitions; parses every target file once."""

    def __init__(self):
        self.targets: dict = {}

    def _target(self, path, parse):
        if path not in self.targets:
            with open(path, encoding="utf-8") as fh:
                self.targets[path] = parse(fh.read())
        return self.targets[path]

    def check(self, q, answer) -> bool:
        """True for a correct answer, False for an unknown one; raises
        WrongAnswer otherwise."""
        codes = [code for code, _ in answer]
        if 2 in codes:
            return False
        reports = [json.loads(text) for _, text in answer]
        if len(reports) != len(q["calls"]):
            raise WrongAnswer(f"{len(reports)} reports for "
                              f"{len(q['calls'])} calls")
        if len(codes) == 2 and codes[0] != 0:
            raise WrongAnswer(f"reduce exited with code {codes[0]}")
        res, code, e = reports[-1]["result"], codes[-1], q["expect"]
        kind = q["kind"]
        field = {"order": "satisfiable", "tree": "compatible",
                 "dicolor": "compatible", "tau": "decision",
                 "enum": "satisfiable"}[kind]
        got = res[field]
        if got is None:
            return False
        want = {"order": e.get("sat"), "tree": e.get("compatible"),
                "dicolor": e.get("colorable"), "tau": e.get("answer"),
                "enum": True}[kind]
        if got is not want or code != (0 if got else 1):
            raise WrongAnswer(f"{q['calls'][-1]}: answered {got} with exit "
                              f"code {code}, expected {want}")
        if kind == "order" and got:
            pi, k, vars_, cs = self._target(e["target"], oracle.parse_csp)
            oracle.check_orderings(pi, k, vars_, cs, res["solution"])
        elif kind in ("tree", "dicolor") and got:
            trips = self._target(e["target"], oracle.parse_trip)
            oracle.check_trees(trips, 3 if kind == "tree" else 2,
                               res["trees"], kind == "dicolor")
        elif kind == "tau" and got:
            oracle.check_trees(oracle.full_triplets(e["n"]), e["k"],
                               res["trees"], e["caterpillar"],
                               labels=range(1, e["n"] + 1))
        elif kind == "enum":
            sols = [tuple(sorted(tuple(o) for o in s))
                    for s in res["solutions"]]
            if len(set(sols)) != len(sols) or \
                    set(sols) != set(e["solutions"]):
                raise WrongAnswer(f"{q['calls'][0]}: {len(sols)} solutions, "
                                  f"expected {len(e['solutions'])}")
        return True


# ---------------------------------------------------------------------------
# Metrics


def latency_metrics(questions, samples) -> tuple:
    """answers_per_s over the whole list, median and tail latency, the
    tail's percentile and the number of questions beyond it.

    A question's latency is the mean of its answers over the run's
    passes.  The host's speed changes from one second to the next, by up
    to 1.8 times; a call of a few milliseconds sees one speed and a call
    of seconds their mean.  The mean over repeats spread through the run
    gives short and long questions alike the run's mean speed, which
    holds steadier from run to run than the fastest answer does.  The
    tail is the highest percentile with at least ten questions beyond
    it, but not below the 90th, so that a short list still has its tail
    above its median."""
    per_q: dict = {}
    for q, lat, _ in samples:
        per_q.setdefault(q, []).append(lat)
    if len(per_q) != len(questions):
        raise BenchError("not every question was answered")
    lats = sorted(map(statistics.fmean, per_q.values()))
    n = len(lats)
    idx = max(n - 11, math.ceil(0.9 * n) - 1)
    pct = 100.0 * (idx + 1) / n
    return (n / sum(lats), statistics.median(lats) * 1e3,
            lats[idx] * 1e3, pct, n - idx - 1)


def machine_block(env, wall_s, traced_wall_s) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "hash_seed": env["PYTHONHASHSEED"],
        "untraced_wall_s": wall_s,
        "traced_wall_s": traced_wall_s,
    }


def _print_metrics(metrics, units, notes=None):
    notes = notes or {}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {value:>14.6g} {units[name]}{note}")


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "triord", "cli.py")):
        raise BenchError(f"no triord sources under {ROOT}/src")
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(questions, warmup, mode, seconds, env, work):
    """Set-up times of the worker and of the set-up-only interpreters it
    starts during an untraced run, and the worker's result."""

    def spec(mode, name, **extra):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"root": ROOT, "mode": mode, "warmup": warmup,
                       "seconds": seconds, "out": path + ".out",
                       "questions": [q["calls"] for q in questions]
                       if mode != "setup" else [],
                       "asks": [q["asks"] for q in questions], **extra}, fh)
        return path

    main_spec = spec(mode, "main.json", setup_samples=SETUP_SAMPLES,
                     setup_spec=spec("setup", "setup.json"))
    try:
        ready = worker.spawn(main_spec, env, TIME_LIMIT_S)
    except RuntimeError as e:
        raise BenchError(str(e)) from None
    with open(main_spec + ".out", encoding="utf-8") as fh:
        result = json.load(fh)
    return [ready] + result.get("setup_s", []), result


def _run(args, env, work) -> dict:
    questions = workloads.build(args.workload, args.seed, work)
    setup, result = measure(questions, workloads.warmup(args.workload, work),
                            "trace" if args.trace else "run", args.seconds,
                            env, work)
    checker = Checker()
    verdicts: dict = {}
    failed = 0
    untraced = []
    for sample in result["samples"]:
        q, lat, aid = sample[:3]
        if (q, aid) not in verdicts:
            verdicts[q, aid] = checker.check(questions[q],
                                             result["answers"][aid])
        failed += not verdicts[q, aid]
        if len(sample) == 3 or not sample[3]:
            untraced.append((q, lat, aid))
    attempted = len(result["samples"])
    per_s, p50, tail, pct, beyond = latency_metrics(questions, untraced)
    e2e = {
        "setup_s": statistics.median(setup),
        "answers_per_s": per_s,
        "answer_p50_ms": p50,
        "answer_tail_ms": tail,
        "answered_frac": 1.0 - failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"questions {len(questions)}  samples {attempted}  passes "
          f"{attempted / sum(q['asks'] for q in questions):.3g}  "
          f"failed {failed}  fail_frac {failed / attempted:.6g}")
    print("end-to-end" + (" (untraced calls)" if args.trace else ""))
    _print_metrics(e2e, END_TO_END, {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "answer_tail_ms": f"p{pct:.4g} of {len(questions)} questions, "
                          f"{beyond} beyond it",
    })
    traced_wall = result.get("traced_wall_s")
    if args.trace:
        layers = spans.layer_metrics(result["spans"])
        layers["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1
        print("per layer (traced calls)")
        _print_metrics(layers, spans.PER_LAYER)
        metrics = {n: {"value": v, "unit": spans.PER_LAYER[n]}
                   for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]}
                   for n, v in e2e.items()}
    print(json.dumps({"machine": machine_block(env, result["wall_s"],
                                               traced_wall)}))
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run(args)
    except WrongAnswer as e:
        print(f"wrong answer: {e}", file=sys.stderr)
        return 1
    except (BenchError, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
