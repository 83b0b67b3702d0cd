"""Golden CLI reports on the bundled fixtures.

Each run calls ``main`` in-process on a file written by ``morsebook
fixtures``, or on one of them with one value edited (``EDITS``); a
``moves`` run also reads a script written just before it.  Each run
hashes what a user sees: the exit code, standard output,
standard error and every file the run writes.  The table holds the
first 16 hex digits of each SHA-256.  A change that moves any of these
bytes must say so and regenerate the table:

    PYTHONPATH=src python tests/test_cli_golden.py

prints a fresh table from the code in ``src/``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from morsebook.cli import main
from morsebook.fileio import MOVES_FORMAT

FRONTS = {
    "disk_s3.json": ("unknot",),
    "disk_s3_lagr.json": (),
    "fig1_torus.json": (),
    "fig5.json": ("lambda", "lambda_prime"),
    "fig6_annulus.json": (),
}
# one-step move scripts: per front, a segment and a cusp vertex that
# every move below accepts
MOVE_SITES = {"unknot": (0, 2), "lambda": (1, 1), "lambda_prime": (0, 2)}
MOVES = (
    ("r1", None), ("stabilize", "up"), ("stabilize", "down"), ("k2", "left"),
    ("k2", "right"), ("b1", "down"), ("b1", "up"), ("s1", None),
)


# multi-step scripts: per front, an r1 kink, a down stabilization, a
# left k2 wrap and a down b1 fold at sites that take them, then r1_inv
# of the first kink; and a script whose second step yields an invalid
# front (the fold meets a trace curve at a vertex)
def _step(move, segment=None, variant=None, vertex=None):
    site = {"component": 0, "u": "1/2"} if vertex is None else {"component": 0, "vertex": vertex}
    if segment is not None:
        site["segment"] = segment
    if variant is not None:
        site["variant"] = variant
    return {"move": move, "site": site}


SCRIPTS = {
    ("disk_s3.json", "unknot", "walk"): (
        _step("r1", 0), _step("stabilize", 5, "down"), _step("k2", 5, "left"),
        _step("b1", 5, "down"), _step("r1_inv", vertex=1),
    ),
    ("fig5.json", "lambda", "walk"): (
        _step("r1", 1), _step("stabilize", 7, "down"), _step("k2", 7, "left"),
        _step("b1", 7, "down"), _step("r1_inv", vertex=2),
    ),
    ("fig5.json", "lambda_prime", "walk"): (
        _step("r1", 0), _step("stabilize", 9, "down"), _step("k2", 10, "left"),
        _step("b1", 9, "down"), _step("r1_inv", vertex=1),
    ),
    ("fig5.json", "lambda_prime", "refused"): (
        _step("r1", 0), _step("b1", 5, "down"), _step("s1", vertex=2),
    ),
    # the input front breaks the slope rule at segment 0
    ("disk_s3_bent.json", "unknot", "r1"): (_step("r1", 1),),
    ("disk_s3_bent.json", "unknot", "empty"): (),
    # the nudged tip lands level with both neighbours' x
    ("disk_s3.json", "unknot", "s1 level"): ({"move": "s1", "site": {"component": 0, "vertex": 0, "depth": "-1/5"}},),
}
# edited fixtures: (written from, path of the edited value, new value)
EDITS = {
    "disk_s3_bent.json": ("disk_s3.json", ("fronts", "unknot", "components", 0, "vertices", 1, 2), "9/10"),
    "disk_s3_lagr_out.json": ("disk_s3_lagr.json", ("lagrangians", "unknot", "components", 0, 0), ["0", "40"]),
    # one vertex moved so that its segments span more than one unit in x
    "fig5_stretched.json": ("fig5.json", ("fronts", "lambda", "components", 0, "vertices", 1, 1), "-1"),
    "disk_s3_stretched.json": ("disk_s3.json", ("fronts", "unknot", "components", 0, "vertices", 0, 1), "-2"),
}
STRETCHED = {"fig5_stretched.json": "lambda", "disk_s3_stretched.json": "unknot"}


def _move_script(front, move, variant):
    segment, cusp = MOVE_SITES[front]
    site = {"component": 0, "segment": segment}
    if move == "s1":
        site = {"component": 0, "vertex": cusp}
    if variant is not None:
        site["variant"] = variant
    return {"format": MOVES_FORMAT, "steps": [{"move": move, "site": site}]}


def _runs():
    """(label, argv, files written, {script file: document}) for every
    golden run."""
    out = []
    for ws in sorted(FRONTS):
        for cmd in ("check", "homology", "euler"):
            out.append(("%s %s" % (cmd, ws), [cmd, ws, "--format", "json"], (), {}))
        out.append(("render %s" % ws, ["render", ws, "-o", "out.svg"], ("out.svg",), {}))
        for front in FRONTS[ws]:
            for fmt in ("json", "text"):
                argv = ["rot", ws, "--front", front, "--format", fmt]
                out.append(("rot %s %s %s" % (ws, front, fmt), argv, (), {}))
            argv = ["resolve", ws, "--front", front, "--out", "res.json", "--svg", "res.svg"]
            out.append(("resolve %s %s" % (ws, front), argv, ("res.json", "res.svg"), {}))
            for overlay in ("resolution", "multiplicities"):
                argv = ["render", ws, "--front", front, "--overlay", overlay, "-o", "out.svg"]
                out.append(("render %s %s %s" % (ws, front, overlay), argv, ("out.svg",), {}))
            for move, variant in MOVES:
                label = " ".join(w for w in ("moves", ws, front, move, variant) if w)
                script = {"script.json": _move_script(front, move, variant)}
                argv = ["moves", ws, "--front", front, "--script", "script.json", "-o", "out.json"]
                out.append((label, argv, ("out.json",), script))
    for cmd in ("tb", "rot-lagr"):
        argv = [cmd, "disk_s3_lagr.json", "--page", "disk", "--lagr", "unknot", "--format", "json"]
        out.append(("%s disk_s3_lagr.json" % cmd, argv, (), {}))
    argv = ["check", "disk_s3_lagr.json", "--page", "disk", "--format", "json"]
    out.append(("check disk_s3_lagr.json --page disk", argv, (), {}))
    for (ws, front, name), steps in SCRIPTS.items():
        script = {"script.json": {"format": MOVES_FORMAT, "steps": list(steps)}}
        argv = ["moves", ws, "--front", front, "--script", "script.json", "-o", "out.json"]
        out.append(("moves %s %s %s" % (ws, front, name), argv, ("out.json",), script))
    for page in ((), ("--page", "disk")):
        argv = ["check", "disk_s3_lagr_out.json", *page, "--format", "json"]
        out.append((" ".join(["check", "disk_s3_lagr_out.json", *page]), argv, (), {}))
    for ws, front in sorted(STRETCHED.items()):
        out.append(("check %s" % ws, ["check", ws, "--format", "json"], (), {}))
        argv = ["resolve", ws, "--front", front, "--out", "res.json", "--svg", "res.svg"]
        out.append(("resolve %s %s" % (ws, front), argv, ("res.json", "res.svg"), {}))
    return out


GOLDEN = {
    "check disk_s3.json": "f5c866e745edcd6d",
    "homology disk_s3.json": "a58cd915f9d3d006",
    "euler disk_s3.json": "218b1062efc24d0a",
    "render disk_s3.json": "78cbf6c21e9b37f6",
    "rot disk_s3.json unknot json": "89b43df6c6dbeefa",
    "rot disk_s3.json unknot text": "0c1b70efbb7951af",
    "resolve disk_s3.json unknot": "bb3c23c92f4c0161",
    "render disk_s3.json unknot resolution": "87ba558a39a68a2f",
    "render disk_s3.json unknot multiplicities": "fdaee7345de289d0",
    "check disk_s3_lagr.json": "7bf213d7d6521cba",
    "homology disk_s3_lagr.json": "08b19970261e4fef",
    "euler disk_s3_lagr.json": "6a8cb07f77d3dccb",
    "render disk_s3_lagr.json": "78cbf6c21e9b37f6",
    "check fig1_torus.json": "341ee1c83b41088e",
    "homology fig1_torus.json": "cdfae00db8fc8a03",
    "euler fig1_torus.json": "4f9528ae1e7a0164",
    "render fig1_torus.json": "47e3b8233aa4b495",
    "check fig5.json": "5b006ed6b3eaaa43",
    "homology fig5.json": "dad3af82d77f3cad",
    "euler fig5.json": "5d3e38909eb93b9b",
    "render fig5.json": "47e3b8233aa4b495",
    "rot fig5.json lambda json": "c411091be1c0fa58",
    "rot fig5.json lambda text": "2aebcce6b965a11b",
    "resolve fig5.json lambda": "f4f78d4df1e1a622",
    "render fig5.json lambda resolution": "d39dacf16c474bec",
    "render fig5.json lambda multiplicities": "b84434c06a054213",
    "rot fig5.json lambda_prime json": "0076cf14dbbd3cc3",
    "rot fig5.json lambda_prime text": "0076cf14dbbd3cc3",
    "resolve fig5.json lambda_prime": "5716ebe948b7541e",
    "render fig5.json lambda_prime resolution": "3d20d103c3fcf0b6",
    "render fig5.json lambda_prime multiplicities": "3d20d103c3fcf0b6",
    "check fig6_annulus.json": "042876d79908428e",
    "homology fig6_annulus.json": "9324d410dfda65e8",
    "euler fig6_annulus.json": "8644563980733e61",
    "render fig6_annulus.json": "5c0ce1a7887b31de",
    "tb disk_s3_lagr.json": "db23599f1c6e01ae",
    "rot-lagr disk_s3_lagr.json": "e168260bfc75c8b5",
    "moves disk_s3.json unknot r1": "03d058f4ffd8195f",
    "moves disk_s3.json unknot stabilize up": "715cda87d6e18b7d",
    "moves disk_s3.json unknot stabilize down": "05cb75d0f227c783",
    "moves disk_s3.json unknot k2 left": "3f9644bcffd103a5",
    "moves disk_s3.json unknot k2 right": "a47677a2ec572b99",
    "moves disk_s3.json unknot b1 down": "0527d10dd0b4e360",
    "moves disk_s3.json unknot b1 up": "d73dbf56ee9e8fb6",
    "moves disk_s3.json unknot s1": "0cf16d4a38bd675d",
    "moves fig5.json lambda r1": "a888da027c803a50",
    "moves fig5.json lambda stabilize up": "f5d79cca15e8976f",
    "moves fig5.json lambda stabilize down": "71ed5e6841423796",
    "moves fig5.json lambda k2 left": "99fa0dbca5fc2e87",
    "moves fig5.json lambda k2 right": "730f5e59c383e0cd",
    "moves fig5.json lambda b1 down": "d7d1d919d250423e",
    "moves fig5.json lambda b1 up": "621e820ddec3c4c7",
    "moves fig5.json lambda s1": "c3c37f134ee4a702",
    "moves fig5.json lambda_prime r1": "f1a1f58717e54971",
    "moves fig5.json lambda_prime stabilize up": "5216110c9a236e93",
    "moves fig5.json lambda_prime stabilize down": "3a1458e77a6cb2b5",
    "moves fig5.json lambda_prime k2 left": "4e5ca937f2218653",
    "moves fig5.json lambda_prime k2 right": "193fbb501a73ef04",
    "moves fig5.json lambda_prime b1 down": "c000e5a354b68807",
    "moves fig5.json lambda_prime b1 up": "32c3988f47baeded",
    "moves fig5.json lambda_prime s1": "ddff3b8f3b988952",
    "check disk_s3_lagr.json --page disk": "7bf213d7d6521cba",
    "moves disk_s3.json unknot walk": "13419645c51c7b94",
    "moves fig5.json lambda walk": "9bcad8c4ff1ca499",
    "moves fig5.json lambda_prime walk": "6310991ea766dcf1",
    "moves fig5.json lambda_prime refused": "efe1c72330d56835",
    "moves disk_s3_bent.json unknot r1": "12222ae0cead177a",
    "moves disk_s3_bent.json unknot empty": "12222ae0cead177a",
    "check disk_s3_lagr_out.json": "058ab8965fc4f5d7",
    "check disk_s3_lagr_out.json --page disk": "6208f01ff57ebd22",
    "moves disk_s3.json unknot s1 level": "0f1e77360dc664b7",
    "check disk_s3_stretched.json": "2e463d08715de5f9",
    "resolve disk_s3_stretched.json unknot": "9df7ed95fa839a55",
    "check fig5_stretched.json": "689dd29204ab5b1f",
    "resolve fig5_stretched.json lambda": "82473c61fdeec272",
}


def _digest(argv, files, inputs):
    """The run's hash, with ``inputs`` written first; the files it wrote
    are read and removed."""
    for name, doc in inputs.items():
        with open(name, "w") as handle:
            json.dump(doc, handle)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = []
    for name in files:  # a run that fails writes nothing: None
        if not os.path.exists(name):
            written.append(None)
            continue
        with open(name, "rb") as handle:
            written.append(hashlib.sha256(handle.read()).hexdigest())
        os.remove(name)
    doc = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def _table(directory):
    """{label: digest} for every run, with the fixtures written to
    ``directory`` and the runs made there."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fixtures", "--dir", "."]) == 0
        for name, (source, path, value) in EDITS.items():
            with open(source) as handle:
                doc = json.load(handle)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            with open(name, "w") as handle:
                json.dump(doc, handle)
        return {label: _digest(*run) for label, *run in _runs()}
    finally:
        os.chdir(here)


def test_fixture_reports_match_the_golden_table(tmp_path):
    got = _table(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(label for label in got if got[label] != GOLDEN[label])
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        for label, digest in _table(directory).items():
            sys.stdout.write("    %r: %r,\n" % (label, digest))
