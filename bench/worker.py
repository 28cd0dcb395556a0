"""One fresh interpreter that asks the questions of a workload.

Usage: ``python3 bench/worker.py SPEC.json``.  The spec names the
repository root, the mode (``setup``, ``run`` or ``trace``), the warm-up
calls, the questions and the result file.  The worker imports
``triord.cli`` from the root's ``src``, answers the warm-up calls, prints
``ready`` (the end of set-up) and then, except in ``setup`` mode:

- ``run``: asks the questions one at a time, in passes over the list,
  until at least two whole passes are done and ``seconds`` of question
  time have passed.  A pass asks each question as many times as its
  entry in ``asks`` says, in rounds over the list.  At evenly spaced
  points of that time it pauses to time ``setup_samples`` set-up-only
  interpreters (``setup_spec``), so the set-up samples span the run;
- ``trace``: asks every question of the list once untraced and once
  traced, in alternating order, recording spans only on the traced call.

Every call goes through ``triord.cli.main`` in this process; its JSON
report is kept for checking after the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from time import perf_counter

#: passes a run makes at least, so that each question's latency is a
#: mean over answers spread through the run
MIN_PASSES = 2


def spawn(spec_path, env, timeout):
    """Run a worker on ``spec_path``; return seconds from spawn to its
    ``ready`` line.  Raises RuntimeError if it fails."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             spec_path], env=env, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready


def _ask(cli, calls):
    """Seconds taken, and the exit code and report text of each call;
    stops at exit code 2.  The files the calls write are removed first,
    so that a repeated question writes new files as its first ask did:
    rewriting a file in place makes ext4 start writing it back when it
    is closed, which would add the disk's latency, and its noise, to
    every repeat."""
    for argv in calls:
        if argv[0] == "reduce" and os.path.exists(argv[3]):
            os.remove(argv[3])
    out = []
    t0 = perf_counter()
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
        if code == 2:
            break
    return perf_counter() - t0, tuple(out)


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import triord.cli as cli
    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        sys.exit(f"triord was imported from {cli.__file__}, not {src}")
    for code, _ in _ask(cli, spec["warmup"])[1]:
        if code not in (0, 1):
            sys.exit(f"warm-up call failed with exit code {code}")
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return

    questions = spec["questions"]
    answers: dict = {}  # repeated answers are stored once
    samples = []
    if spec["mode"] == "run":
        seconds, n_setup = spec["seconds"], spec["setup_samples"]
        marks = [seconds * (j + 0.5) / n_setup for j in range(n_setup)]
        setup = []
        busy = 0.0  # question time so far
        i = 0
        # a pass asks every question once, then the cheap ones again,
        # round by round, so that their repeats spread through the pass
        asks = spec["asks"]
        order = [q for r in range(max(asks))
                 for q, n in enumerate(asks) if n > r]
        while i < MIN_PASSES * len(order) or busy < seconds:
            while marks and busy >= marks[0]:
                marks.pop(0)
                setup.append(spawn(spec["setup_spec"], os.environ, 60))
            q = order[i % len(order)]
            lat, answer = _ask(cli, questions[q])
            busy += lat
            aid = answers.setdefault(answer, len(answers))
            samples.append([q, lat, aid])
            i += 1
        setup += [spawn(spec["setup_spec"], os.environ, 60) for _ in marks]
        result = {"wall_s": busy, "setup_s": setup}
    else:
        import spans
        rec = spans.Recorder()
        walls = [0.0, 0.0]
        for q, calls in enumerate(questions):
            for traced in ((False, True) if q % 2 else (True, False)):
                uninstall = spans.install(rec) if traced else None
                rec.question = q
                try:
                    lat, answer = _ask(cli, calls)
                finally:
                    if uninstall:
                        uninstall()
                walls[traced] += lat
                aid = answers.setdefault(answer, len(answers))
                samples.append([q, lat, aid, traced])
        result = {"wall_s": walls[False], "traced_wall_s": walls[True],
                  "spans": rec.spans}
    result["samples"] = samples
    result["answers"] = list(answers)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
