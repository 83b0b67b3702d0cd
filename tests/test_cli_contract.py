"""The CLI contract on mutated workspaces.

Every run of ``main`` ends in exit code 0, 1 or 2 with at most a
one-line message: no exception escapes, whatever the input file holds.
A failed internal check ends in exit code 1 and ``internal error: ...``.
The workspaces are the bundled fixtures with one or two seeded edits:
a rational nudged, a field or list item deleted or duplicated, or a
value replaced by one of another type.  Replacement values stay small;
a huge ``binding_count`` costs time and memory in proportion, which is
a size problem rather than a contract one.  The
same edits are made to the Lagrangian fixture, run through ``tb``,
``rot-lagr`` and ``check --page``, and to one-step move scripts run
through ``moves``.
"""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from morsebook import cli
from morsebook.cli import main
from morsebook.fileio import MOVES_FORMAT

SEED = 1
WORKSPACES = 100
LAGR_WORKSPACES = 150
SCRIPTS = 60
COMMANDS = ("check", "homology", "euler", "rot", "resolve", "render")
REPLACEMENTS = (
    0, 1, -1, 2, 7, True, None, [], {}, "0", "1/2", "-1/3", "1/0", "x",
    "plus", "minus", "cusp", "teleport", "exit", "enter", ["teleport", 1, "plus", "exit"],
)
# one step each on the disc unknot; cusp_trace names a pair disk_s3 lacks
STEPS = (
    {"move": "r1", "site": {"component": 0, "segment": 0, "u": "1/2"}},
    {"move": "stabilize", "site": {"component": 0, "segment": 0, "u": "1/3", "variant": "up"}},
    {"move": "k2", "site": {"component": 0, "segment": 0, "u": "1/2", "variant": "left"}},
    {"move": "b1", "site": {"component": 0, "segment": 0, "u": "1/2", "variant": "down"}},
    {"move": "s1", "site": {"component": 0, "vertex": 2, "depth": "1/2048"}},
    {"move": "cusp_trace", "site": {"component": 0, "vertex": 2, "pair": 1, "side": "plus"}},
)


def _paths(node, path=()):
    """The path of every value inside a JSON document."""
    items = sorted(node.items()) if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _rational(value):
    """The value of a "p/q" string, else None."""
    if isinstance(value, str) and "/" in value:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return None


def _mutate(rng, doc):
    """One seeded edit of a copy of ``doc``; half of them nudge a rational."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    rationals = [p for p in paths if _rational(_at(doc, p)) is not None]
    if rationals and rng.random() < 0.5:
        path = rng.choice(rationals)
        step = Fraction(rng.choice((-1, 1)), rng.choice((2, 8, 64, 1024)))
        _at(doc, path[:-1])[path[-1]] = str(_rational(_at(doc, path)) + step)
        return doc
    path = rng.choice(paths)
    parent, key = _at(doc, path[:-1]), path[-1]
    op = rng.randrange(3)
    if op == 0:
        del parent[key]
    elif op == 1 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_mutated_workspaces_keep_the_exit_code_contract(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    docs = {p.name: json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))}
    rng = random.Random(SEED)
    target = tmp_path / "mutated.json"
    codes = {}
    for i in range(WORKSPACES):
        name = rng.choice(sorted(docs))
        doc = docs[name]
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(rng, doc)
        target.write_text(json.dumps(doc))
        fronts = doc.get("fronts") if isinstance(doc, dict) else None
        front = min(fronts) if isinstance(fronts, dict) and fronts else "lambda"
        for command in COMMANDS:
            argv = [command, str(target)]
            if command in ("rot", "resolve", "render"):
                argv += ["--front", front]
            if command == "render":
                argv += ["--overlay", "resolution", "-o", str(tmp_path / "render.svg")]
            _run(argv, codes, (i, name))
    # every exit code shows up, so the edits reach past the parser
    assert set(codes) == {0, 1, 2}, codes


def test_mutated_lagrangian_workspaces_and_move_scripts_keep_the_contract(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    lagr = json.loads((tmp_path / "disk_s3_lagr.json").read_text())
    rng = random.Random(SEED)
    target = tmp_path / "mutated.json"
    codes = {}
    for i in range(LAGR_WORKSPACES):
        doc = lagr
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(rng, doc)
        target.write_text(json.dumps(doc))
        for command in ("tb", "rot-lagr", "check"):
            argv = [command, str(target), "--page", "disk"]
            if command != "check":
                argv += ["--lagr", "unknot"]
            _run(argv, codes, i)
    assert set(codes) == {0, 1, 2}, codes

    codes = {}
    for i in range(SCRIPTS):
        doc = {"format": MOVES_FORMAT, "steps": [rng.choice(STEPS)]}
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(rng, doc)
        target.write_text(json.dumps(doc))
        argv = ["moves", str(tmp_path / "disk_s3.json"), "--front", "unknot", "--script", str(target)]
        _run(argv, codes, (i, doc))
    assert set(codes) == {0, 1, 2}, codes


def _run(argv, codes, where):
    """Run ``main`` and check the contract; tally the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (where, argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (where, argv, err.getvalue())
    codes[code] = codes.get(code, 0) + 1


def test_page_listing_one_band_twice_keeps_the_contract(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "disk_s3_lagr.json").read_text())
    band = {"corners": [["1/2", "5"], ["-1/2", "5"], ["-1/2", "8"], ["1/2", "8"]]}
    doc["pages"]["disk"]["bands"] = [band]
    target = tmp_path / "one-band.json"
    for bands, want in ((1, 0), (2, 1)):
        if bands == 2:
            # the list-item duplication of _mutate, on the band list
            bands_list = doc["pages"]["disk"]["bands"]
            bands_list.insert(0, copy.deepcopy(bands_list[0]))
        target.write_text(json.dumps(doc))
        for command in ("tb", "rot-lagr", "check"):
            argv = [command, str(target), "--page", "disk"]
            if command != "check":
                argv += ["--lagr", "unknot"]
            codes = {}
            _run(argv, codes, bands)
            assert codes == {want: 1}, (argv, bands)


def test_a_failed_internal_check_is_one_line_and_exit_1(tmp_path, monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0

    def failing(*args):
        raise AssertionError("resolution curve with |x-winding| >= 2")

    monkeypatch.setattr(cli, "total_resolution", failing)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["resolve", str(tmp_path / "disk_s3.json"), "--front", "unknot"])
    assert code == 1
    assert err.getvalue() == "internal error: resolution curve with |x-winding| >= 2\n"


def test_cusp_between_two_vertical_segments_is_refused(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fig5.json").read_text())
    doc["fronts"]["lambda"]["components"][0]["vertices"][4][1] = "1/8"
    target = tmp_path / "vertical-cusp.json"
    target.write_text(json.dumps(doc))
    for argv in (["check", str(target)], ["rot", str(target), "--front", "lambda"]):
        codes = {}
        _run(argv, codes, argv[0])
        assert codes == {1: 1}, argv


def test_cusp_with_collinear_branches_is_refused(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fig5.json").read_text())
    # both branches of cusp vertex 2 now have slope -1/8 and overlap
    doc["fronts"]["lambda_prime"]["components"][0]["vertices"][1][1] = "3/64"
    target = tmp_path / "collinear-cusp.json"
    target.write_text(json.dumps(doc))
    issue = "cusp vertex 2 has collinear branches (component 0)"
    runs = []
    for argv in (["check", str(target), "--format", "json"], ["rot", str(target), "--front", "lambda_prime"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(argv), out.getvalue(), err.getvalue()))
    (check, report, check_err), (rot, rot_out, message) = runs
    assert (check, check_err) == (1, "")
    assert json.loads(report)["result"]["issues"] == ["front lambda_prime: " + issue]
    assert (rot, rot_out) == (1, "")
    assert message == "error: front invalid: %s; 1 issue(s) total\n" % issue


def test_parse_messages_do_not_depend_on_the_hash_seed(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "disk_s3_lagr.json").read_text())
    doc["pages"]["disk"] = {}  # both required fields missing
    target = tmp_path / "empty-page.json"
    target.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys; from morsebook.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [sys.executable, "-c", script, "check", str(target), "--page", "disk"]
        runs.append(subprocess.run(argv, env=env, capture_output=True, timeout=60))
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr == b"parse error: pages['disk']: missing field 'disc'\n"


def test_one_process_answers_a_run_of_calls_as_fresh_processes_do(tmp_path):
    # main reuses one parser per process; a usage error must leave it as
    # a fresh process would find it
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    lagr = str(tmp_path / "disk_s3_lagr.json")
    argvs = [
        ["rot", str(tmp_path / "disk_s3.json")],
        ["rot", str(tmp_path / "disk_s3.json"), "--front", "unknot"],
        ["tb", lagr, "--page", "disk", "--lagr", "unknot", "--format", "json"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import contextlib, io, json, sys\n"
        "from morsebook.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        runs.append([main(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("COLUMNS", None)

    def calls(argvs):
        argv = [sys.executable, "-c", script, json.dumps(argvs)]
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)
        return json.loads(done.stdout)

    together = calls(argvs)
    apart = [calls([argv])[0] for argv in argvs]
    assert together == apart
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert together[0][2].startswith("usage: morsebook rot [-h]")


def test_plain_check_checks_each_lagrangian_on_every_page(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "disk_s3_lagr.json").read_text())
    doc["lagrangians"]["unknot"]["components"][0][0] = ["0", "40"]
    target = tmp_path / "outside.json"

    def issues(*extra):
        target.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", str(target), "--format", "json", *extra])
        return code, json.loads(out.getvalue())["result"]["issues"]

    code, plain = issues()
    _, named = issues("--page", "disk")
    assert code == 1 and len(plain) == len(named) == 3
    assert plain[0] == "lagrangian unknot on page disk: vertex 0 outside the page (component 0)"
    assert named == [issue.replace(" on page disk", "") for issue in plain]
    # a second page, in name order after the first
    doc["pages"]["wide"] = {"disc": {"center": ["0", "0"], "radius": "50"}, "format": "page/1"}
    code, two = issues()
    assert code == 1 and two == plain
    # with no page, the projection has nothing to be checked against
    doc["pages"] = {}
    assert issues() == (0, [])
