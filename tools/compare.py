"""Differential runner: the morsebook CLI of two source trees on one input set.

    python3 tools/compare.py ROOT_A ROOT_B --seed 1

Each root is a source checkout with ``src/morsebook``.  The inputs are
built once, by the program of the checkout holding this file, under a
temporary directory:

- ``fixtures``: every subcommand on the bundled example files, and one
  step of every move on each fixture front;
- ``ladder``: the workspaces and scripts of the three benchmark
  workloads for the seed (``perfbench/workloads.py``), with ``check`` on
  each workspace;
- ``walks``: seeded multi-step scripts of every move on the fixture
  fronts;
- ``mutated``: fixtures with the seeded edits of the CLI contract test
  (``tests/test_cli_contract.py``, ``_mutate``), through every
  workspace subcommand and ``moves``;
- ``stretched``: fixture fronts with one cusp or plain vertex moved by
  one or two units in x, plus a seeded fraction half the time, away
  from the vertex before it, so that the segment between them spans
  more than one unit; through ``check``, ``rot`` and ``resolve``;
- ``help``: ``-h`` of ``morsebook`` and of each subcommand, and usage
  errors, each with ``COLUMNS=60`` and with ``COLUMNS`` unset.

Every run is a fresh ``python3`` process per tree, under one fixed
``PYTHONHASHSEED``, in an empty working directory.  The report lists
each run whose exit code, standard output, standard error or written
files differ between the trees, then per family the count of identical
and of differing runs.  The output depends only on the two trees and
the seed.  Exit code 0 when no run differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKERS = 2
MUTATED = 24
STRETCHED = 24
WALKS = 4
WALK_STEPS = 5
MOVES = (
    ("r1", None), ("stabilize", "down"), ("stabilize", "up"), ("k2", "left"), ("k2", "right"),
    ("b1", "down"), ("b1", "up"), ("r1_inv", None), ("s1", None), ("cusp_trace", None), ("k3", None),
)
SUBCOMMANDS = ("check", "homology", "euler", "rot", "tb", "rot-lagr", "resolve", "render", "moves", "fixtures")
USAGE_ERRORS = (
    [],
    ["nonsense"],
    ["check"],
    ["rot", "w.json"],
    ["check", "w.json", "--format", "yaml"],
    ["check", "w.json", "--bogus"],
    ["render", "w.json", "--overlay", "x", "-o", "o.svg"],
    ["moves", "w.json", "--front", "f"],
)


def _import_program():
    for sub in ("src", "perfbench", "tests"):
        path = os.path.join(CHECKOUT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def _write(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def _script(steps):
    from morsebook.fileio import MOVES_FORMAT

    return {"format": MOVES_FORMAT, "steps": steps}


def _move_site(front, move, variant, k):
    """A site for ``move`` on ``front``: the k-th segment, cusp or kink."""
    from morsebook.front import CUSP, PLAIN

    comp = front.components[0]
    n = len(comp.vertices)
    if move in ("s1", "cusp_trace", "k3"):
        cusps = [i for i, v in enumerate(comp.vertices) if v.kind == CUSP] or [0]
        site = {"component": 0, "vertex": cusps[k % len(cusps)]}
        if move != "s1":
            site.update(pair=1 + k % 2, side=("plus", "minus")[k // 2 % 2])
        return site
    if move == "r1_inv":
        kinds = [PLAIN, CUSP, CUSP, PLAIN]
        kinks = [i for i in range(n) if [comp.vertex(i + j).kind for j in range(4)] == kinds] or [0]
        return {"component": 0, "vertex": kinks[k % len(kinks)]}
    site = {"component": 0, "segment": k % n, "u": "1/2"}
    if variant is not None:
        site["variant"] = variant
    return site


def build_runs(seed, inputs):
    """(family, label, argv, environment overrides) of every run, with
    their input files written under ``inputs``."""
    _import_program()
    import contextlib
    import io

    import test_cli_contract as contract
    import workloads
    from morsebook.cli import main
    from morsebook.fileio import parse_workspace
    from morsebook.moves import apply_move
    from morsebook.validation import InvalidInput

    fixtures = os.path.join(inputs, "fixtures")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["fixtures", "--dir", fixtures])
    runs = [("fixtures", "fixtures", ["fixtures", "--dir", "out"], {})]

    def workspace_runs(family, label, path, doc):
        fronts = sorted(doc.get("fronts") or {}) if isinstance(doc, dict) else []
        pages = sorted(doc.get("pages") or {}) if isinstance(doc, dict) else []
        lagrs = sorted(doc.get("lagrangians") or {}) if isinstance(doc, dict) else []
        for cmd in ("check", "homology", "euler"):
            runs.append((family, "%s %s" % (cmd, label), [cmd, path, "--format", "json"], {}))
        runs.append((family, "render %s" % label, ["render", path, "-o", "out.svg"], {}))
        for page in pages[:1]:
            runs.append((family, "check %s --page %s" % (label, page), ["check", path, "--page", page], {}))
            for lagr in lagrs[:1]:
                for cmd in ("tb", "rot-lagr"):
                    argv = [cmd, path, "--page", page, "--lagr", lagr, "--format", "json"]
                    runs.append((family, "%s %s %s %s" % (cmd, label, page, lagr), argv, {}))
        for front in fronts[:2]:
            runs.append((family, "rot %s %s" % (label, front), ["rot", path, "--front", front], {}))
            argv = ["resolve", path, "--front", front, "--out", "res.json", "--svg", "res.svg"]
            runs.append((family, "resolve %s %s" % (label, front), argv, {}))
            argv = ["render", path, "--front", front, "--overlay", "multiplicities", "-o", "out.svg"]
            runs.append((family, "render %s %s" % (label, front), argv, {}))

    docs = {}
    for name in sorted(os.listdir(fixtures)):
        path = os.path.join(fixtures, name)
        with open(path) as handle:
            docs[name] = json.load(handle)
        workspace_runs("fixtures", name, path, docs[name])

    # one step of every move, and seeded walks, on the fixture fronts
    rng = random.Random("compare/%d" % seed)
    for name, doc in sorted(docs.items()):
        with open(os.path.join(fixtures, name), "rb") as handle:
            w = parse_workspace(handle.read())
        for front_name, front in sorted(w.fronts.items()):
            path = os.path.join(fixtures, name)
            for move, variant in MOVES:
                site = _move_site(front, move, variant, 1)
                script = _write(os.path.join(inputs, "step-%s-%s-%s-%s.json" % (name, front_name, move, variant)),
                                _script([{"move": move, "site": site}]))
                label = "moves %s %s %s %s" % (name, front_name, move, variant)
                runs.append(("fixtures", label, ["moves", path, "--front", front_name, "--script", script], {}))
            for walk in range(WALKS):
                steps, cur = [], front
                for _ in range(WALK_STEPS):
                    move, variant = rng.choice(MOVES)
                    site = _move_site(cur, move, variant, rng.randrange(1 << 16))
                    steps.append({"move": move, "site": site})
                    try:
                        cur = apply_move(w.diagram, cur, move, site)
                    except InvalidInput:
                        pass  # the script refuses here; later steps still name sites
                script = _write(os.path.join(inputs, "walk-%s-%s-%d.json" % (name, front_name, walk)), _script(steps))
                label = "moves %s %s walk %d" % (name, front_name, walk)
                runs.append(("walks", label, ["moves", path, "--front", front_name, "--script", script], {}))

    # the benchmark ladders
    for workload, builder in sorted(workloads.BUILDERS.items()):
        workdir = os.path.join(inputs, workload)
        os.makedirs(workdir)
        seen = set()
        for item in builder(seed, workdir):
            for argv in item["argvs"]:
                label = "%s %s" % (workload, " ".join(os.path.basename(a) for a in argv))
                runs.append(("ladder", label, list(argv), {}))
                if argv[1] not in seen:
                    seen.add(argv[1])
                    label = "%s check %s" % (workload, os.path.basename(argv[1]))
                    runs.append(("ladder", label, ["check", argv[1], "--format", "json"], {}))

    # the contract test's seeded edits
    mutated = os.path.join(inputs, "mutated")
    os.makedirs(mutated)
    rng = random.Random("compare-mutated/%d" % seed)
    steps = [{"move": "r1", "site": {"component": 0, "segment": 0}},
             {"move": "k2", "site": {"component": 0, "segment": 0, "variant": "left"}}]
    for i in range(MUTATED):
        name = rng.choice(sorted(docs))
        doc = copy.deepcopy(docs[name])
        for _ in range(rng.randint(1, 2)):
            doc = contract._mutate(rng, doc)
        path = _write(os.path.join(mutated, "%02d-%s" % (i, name)), doc)
        workspace_runs("mutated", os.path.basename(path), path, doc)
        fronts = doc.get("fronts") if isinstance(doc, dict) else None
        if isinstance(fronts, dict) and fronts:
            script = _write(os.path.join(mutated, "%02d-script.json" % i), _script(steps[: 1 + i % 2]))
            for front in sorted(fronts)[:2]:
                argv = ["moves", path, "--front", front, "--script", script]
                runs.append(("mutated", "moves %s %s" % (os.path.basename(path), front), argv, {}))
            empty = _write(os.path.join(mutated, "%02d-empty.json" % i), _script([]))
            argv = ["moves", path, "--front", sorted(fronts)[0], "--script", empty]
            runs.append(("mutated", "moves %s empty script" % os.path.basename(path), argv, {}))

    # fixture fronts with one segment stretched past one unit in x
    stretched = os.path.join(inputs, "stretched")
    os.makedirs(stretched)
    rng = random.Random("compare-stretched/%d" % seed)
    edits = set()
    while len(edits) < STRETCHED:
        name = rng.choice([n for n in sorted(docs) if docs[n].get("fronts")])
        doc = copy.deepcopy(docs[name])
        front = rng.choice(sorted(doc["fronts"]))
        vertices = doc["fronts"][front]["components"][0]["vertices"]
        k = rng.choice([k for k, v in enumerate(vertices) if isinstance(v[3], str)])
        # away from the previous vertex, so the segment from it grows
        x = Fraction(vertices[k][1])
        away = 1 if x >= Fraction(vertices[k - 1][1]) else -1
        dx = away * (rng.choice((1, 2)) + rng.choice((0, Fraction(rng.randrange(1, 64), 64))))
        if (name, front, k, dx) in edits:
            continue
        edits.add((name, front, k, dx))
        vertices[k][1] = str(x + dx)
        path = _write(os.path.join(stretched, "%02d-%s" % (len(edits), name)), doc)
        label = "%s %s vertex %d dx %s" % (os.path.basename(path), front, k, dx)
        runs.append(("stretched", "check " + label, ["check", path, "--format", "json"], {}))
        runs.append(("stretched", "rot " + label, ["rot", path, "--front", front], {}))
        argv = ["resolve", path, "--front", front, "--out", "res.json", "--svg", "res.svg"]
        runs.append(("stretched", "resolve " + label, argv, {}))

    # help and usage errors, with and without a terminal width
    for columns in ("60", None):
        env = {"COLUMNS": columns}
        width = "COLUMNS=%s" % columns if columns else "COLUMNS unset"
        for argv in [["-h"]] + [[cmd, "-h"] for cmd in SUBCOMMANDS] + list(USAGE_ERRORS):
            runs.append(("help", "%s (%s)" % (" ".join(argv) or "(no arguments)", width), argv, env))
    return runs


def run_once(root, argv, env_over, inputs=""):
    """(exit code, stdout, stderr, {file: bytes}) of one fresh process;
    the ``inputs`` directory reads as ``<inputs>`` in its output."""
    env = dict(os.environ)
    for key in ("COLUMNS", "LINES"):
        env.pop(key, None)
    env.update({k: v for k, v in env_over.items() if v is not None})
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"))
    code = "import sys; from morsebook.cli import main; sys.exit(main(sys.argv[1:]))"
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, timeout=600
        )
        files = {}
        for base, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, cwd)] = handle.read()
    mark = (inputs.encode(), b"<inputs>") if inputs else (b"", b"")
    return done.returncode, done.stdout.replace(*mark), done.stderr.replace(*mark), files


def _difference(a, b):
    """A short account of how two run results differ, or None."""
    parts = []
    if a[0] != b[0]:
        parts.append("exit code %d / %d" % (a[0], b[0]))
    for what, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
        if x != y:
            lines = difflib.unified_diff(
                x.decode("utf-8", "replace").splitlines(), y.decode("utf-8", "replace").splitlines(),
                lineterm="", n=0,
            )
            shown = [line for line in lines if line[:1] in "+-" and line[:3] not in ("+++", "---")]
            parts.append("%s:\n      %s" % (what, "\n      ".join(shown[:6])))
    if a[3] != b[3]:
        names = sorted(n for n in set(a[3]) | set(b[3]) if a[3].get(n) != b[3].get(n))
        parts.append("files %s" % ", ".join(names))
    return "\n    ".join(parts) or None


def compare(root_a, root_b, runs, inputs="", out=sys.stdout):
    """Run every run on both trees; print the differences and the
    per-family counts.  Returns the number of differing runs."""
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = [
            (pool.submit(run_once, root_a, argv, env, inputs), pool.submit(run_once, root_b, argv, env, inputs))
            for _, _, argv, env in runs
        ]
        results = [(fa.result(), fb.result()) for fa, fb in futures]
    counts = {}
    differing = 0
    for (family, label, _, _), (a, b) in zip(runs, results):
        same, diff = counts.get(family, (0, 0))
        found = _difference(a, b)
        if found is None:
            counts[family] = (same + 1, diff)
            continue
        counts[family] = (same, diff + 1)
        differing += 1
        out.write("DIFFERS %s: %s\n    %s\n" % (family, label, found))
    for family in sorted(counts):
        out.write("%-9s %4d identical, %d differ\n" % (family, *counts[family]))
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    roots = [os.path.abspath(r) for r in (args.root_a, args.root_b)]
    for root in roots:
        if not os.path.isfile(os.path.join(root, "src", "morsebook", "cli.py")):
            parser.error("no morsebook sources under %s" % root)
    with tempfile.TemporaryDirectory() as inputs:
        runs = build_runs(args.seed, inputs)
        differing = compare(*roots, runs, inputs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
