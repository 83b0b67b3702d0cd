"""Benchmark of the morsebook command line, run in-process.

    python3 perfbench/run.py --workload front-rot --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there.  Set-up writes the seeded workspaces at least three
times under ``.perfbench-work/``; the run then calls ``morsebook.cli.main`` on them
in whole rounds until ``--seconds`` have passed, checks every output and
prints one JSON object as its last line.  With ``--trace 1`` the first
round runs untraced and the rest traced, and the per-layer metrics
(calls and self time per operation of each traced function, and the
tracing overhead) are printed instead of the end-to-end ones; the spans
are saved under ``.perfbench-results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import oracles
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up runs at least this many times, and until it has taken a second
# in all, so that a set-up of milliseconds still gets a steady median
SETUPS = 3
SETUP_MIN_S = 1.0
# each round runs the smallest inputs this many times: they take
# milliseconds, and more samples steady their medians
SMALL_REPS = 3


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "morsebook", "cli.py")):
        sys.exit("perfbench: no morsebook sources under %s; run from a source checkout" % src)
    sys.path.insert(0, src)


def _setup(workload, seed, workdir):
    from workloads import BUILDERS

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.perf_counter()
    items = BUILDERS[workload](seed, workdir)
    return items, time.perf_counter() - start


def _run_op(main, item):
    """Run an item's commands; (outputs or None on failure, seconds)."""
    outs = []
    start = time.perf_counter()
    try:
        for argv in item["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            if code != 0:
                return None, time.perf_counter() - start
            outs.append(buf.getvalue())
    except Exception as e:  # a failed operation is counted, not fatal
        print("perfbench: %s raised %s: %s" % (item["argvs"][0][0], type(e).__name__, e), file=sys.stderr)
        return None, time.perf_counter() - start
    return outs, time.perf_counter() - start


def measure(workload, seed, seconds, traced):
    workroot = os.path.join(ROOT, ".perfbench-work")
    setups = []
    try:
        while len(setups) < SETUPS or sum(setups) < SETUP_MIN_S:
            items, spent = _setup(workload, seed, os.path.join(workroot, "setup%d" % len(setups)))
            setups.append(spent)
        return _rounds(workload, seed, seconds, traced, items, setups)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _rounds(workload, seed, seconds, traced, items, setups):
    from morsebook import cli

    check = oracles.CHECKS[workload]
    for item in items:
        item["times"] = []
    top = max(item["rung"] for item in items)
    # the small operations are spread over the round, so that their
    # medians see the machine as it was over the whole run
    small = [item for item in items if item["rung"] == 0] * SMALL_REPS
    rest = [item for item in items if item["rung"] != 0]
    slots = [((k + 0.5) / len(small), k, item) for k, item in enumerate(small)]
    slots += [((k + 0.5) / len(rest), len(small) + k, item) for k, item in enumerate(rest)]
    plan = [item for _, _, item in sorted(slots, key=lambda slot: slot[:2])]
    tracer = spans.Tracer() if traced else None
    round_s = []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while True:
        if tracer and len(round_s) == 1:
            tracer.install()
        spent = 0.0
        for item in plan:
            attempted += 1
            outs, took = _run_op(cli.main, item)
            if tracer and round_s:
                tracer.end_op()
            spent += took
            if outs is None:
                failed += 1
                continue
            item["times"].append(took)
            found = check(outs, item)
            if found:
                wrong += 1
                if wrong <= 5:
                    print("perfbench: wrong output of %s on rung %d: %s"
                          % (item["argvs"][0][0], item["rung"], "; ".join(found)), file=sys.stderr)
        round_s.append(spent)
        # a traced run needs its untraced first round and one traced round
        if time.perf_counter() - start >= seconds and len(round_s) >= (2 if tracer else 1):
            break
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["trace.overhead_pct"] = 100 * (statistics.median(round_s[1:]) / round_s[0] - 1)
        result["metrics"] = {
            name: {"value": layers.get(name, 0), "unit": unit} for name, unit in spans.metric_names()
        }
        out = os.path.join(ROOT, ".perfbench-results")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, "%s-seed%d" % (workload, seed)))
        return result
    done = [t for item in items for t in item["times"]]

    def class_ms(rung):
        # the mean over the class's inputs of each input's median time:
        # inputs of one class differ in cost, so a median pooled over
        # them would jump between inputs from run to run
        return 1000 * statistics.mean(
            statistics.median(item["times"]) for item in items if item["rung"] == rung and item["times"]
        )

    result["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(done) / sum(done), "unit": "1/s"},
        "small_op_ms": {"value": class_ms(0), "unit": "ms"},
        "large_op_ms": {"value": class_ms(top), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("front-rot", "front-moves", "lagr-classical"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
