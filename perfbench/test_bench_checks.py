"""Tests of the benchmark's own checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from morsebook import fixtures as fx
from morsebook.cli import main
from morsebook.fileio import Workspace, serialize_workspace
from morsebook.moves import apply_move

import oracles
import workloads


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _workspace(tmp_path, d, **sections):
    text = serialize_workspace(Workspace(d, sections.get("fronts", {}), sections.get("pages", {}),
                                         sections.get("lagrangians", {}), b""))
    path = tmp_path / "ws.json"
    path.write_text(text)
    return str(path), text.encode("utf-8")


def _tamper(text, key, delta):
    doc = json.loads(text)
    doc["result"][key] = doc["result"][key] + delta
    return json.dumps(doc)


def test_plane_oracle_on_the_lagrangian_fixture():
    page, curve = fx.disk_s3_lagr()
    got = oracles.plane_oracle(curve, page.marked_points)
    assert (got["tb"], got["rot"]) == (-1, 0)
    assert got["windings"] == [1]


@pytest.mark.parametrize("bands", [0, 1, 2])
def test_constructed_projections_match_the_oracle(bands):
    rng = random.Random(bands)
    page = workloads.PageModel((0, 0), 10, workloads.PAGES[bands])
    for target in (10, 16, 40):
        curve, want = workloads.lagr_polygon(rng, bands, target)
        assert oracles.plane_oracle(curve, page.marked_points) == want


def test_front_counters_match_the_fixtures():
    unknot = oracles.front_counts(oracles.front_from_model(fx.disk_s3_unknot()))
    assert unknot == {"D": 1, "U": 1, "lk": 0, "x": 0}
    owner = oracles.front_counts(oracles.front_from_model(fx.fig5_lambda()))
    assert (owner["D"], owner["U"], owner["lk"]) == (1, 1, 0)
    reversed_unknot = oracles.front_counts(oracles.front_from_model(fx.disk_s3_unknot().reversed()))
    assert (reversed_unknot["D"], reversed_unknot["U"]) == (1, 1)


def test_front_counters_follow_the_documented_trades():
    d, f = fx.disk_s3(), fx.disk_s3_unknot()
    site = {"component": 0, "segment": 0, "u": F(1, 2)}
    before = oracles.front_counts(oracles.front_from_model(f))
    for move, variant in (("r1", None), ("stabilize", "down"), ("stabilize", "up"), ("k2", "left"), ("b1", "down")):
        step = dict(site, variant=variant) if variant else site
        after = oracles.front_counts(oracles.front_from_model(apply_move(d, f, move, step)))
        trade = tuple(after[k] - before[k] for k in ("D", "U", "lk", "x"))
        assert trade == oracles.MOVE_TRADES[(move, variant)], move


def test_rot_check_passes_and_catches_wrong_reports(tmp_path):
    d, f = fx.fig5_diagram(), fx.fig5_lambda()
    path, raw = _workspace(tmp_path, d, fronts={"front": f})
    text = _run(["rot", path, "--front", "front", "--format", "json"])
    item = {"raw": raw, "front": f, "seed_front": "lambda", "want": dict(workloads.SEED_FRONTS["lambda"][2])}
    assert oracles.check_rot([text], item) == []
    for key in ("rot", "D", "U", "lk_B", "L0_dot_H", "L_dot_H"):
        assert oracles.check_rot([_tamper(text, key, 1)], item), key
    assert oracles.check_rot([text], dict(item, raw=raw + b" ")), "hash"


def test_rot_check_recounts_the_horizontal_term_on_disc_fronts(tmp_path):
    d = fx.disk_s3()
    f = apply_move(d, fx.disk_s3_unknot(), "k2", {"component": 0, "segment": 0, "u": F(1, 2), "variant": "left"})
    path, raw = _workspace(tmp_path, d, fronts={"front": f})
    text = _run(["rot", path, "--front", "front", "--format", "json"])
    want = {"rot": 0, "DU": 2, "L0": -1, "L": -1}
    item = {"raw": raw, "front": f, "seed_front": "disk", "want": want}
    assert oracles.check_rot([text], item) == []
    wrong = dict(item, counts=None, want=dict(want, L0=0))
    assert oracles.check_rot([text], wrong)


def test_moves_check_passes_and_catches_wrong_fronts(tmp_path):
    d, f = fx.disk_s3(), fx.disk_s3_unknot()
    path, raw = _workspace(tmp_path, d, fronts={"front": f})
    r1 = {"move": "r1", "site": {"component": 0, "segment": 0, "u": "1/2"}}
    cases = {
        "trade": [r1, {"move": "b1", "site": {"component": 0, "segment": 4, "u": "1/2", "variant": "down"}}],
        "undo": [r1, {"move": "r1_inv", "site": {"component": 0, "vertex": 1}}],
    }
    for kind, steps in cases.items():
        script = tmp_path / ("%s.json" % kind)
        script.write_text(json.dumps({"format": "moves/1", "steps": steps}))
        text = _run(["moves", path, "--front", "front", "--script", str(script)])
        item = {"raw": raw, "front": f, "seed_front": "disk", "kind": kind, "steps": steps}
        assert oracles.check_moves([text], item) == [], kind
        doc = json.loads(text)
        vertex = doc["components"][0]["vertices"][1]
        vertex[2] = str(F(vertex[2]) + F(1, 1024))
        vertex[3] = "cusp" if vertex[3] == "plain" else "plain"
        assert oracles.check_moves([json.dumps(doc)], dict(item, want=None)), kind


def test_lagr_check_passes_and_catches_wrong_reports(tmp_path):
    page = workloads.PageModel((0, 0), 10, workloads.PAGES[1])
    curve, want = workloads.lagr_polygon(random.Random(5), 1, 16)
    path, raw = _workspace(tmp_path, fx.disk_s3(), pages={"page": page}, lagrangians={"curve": curve})
    argv = [path, "--page", "page", "--lagr", "curve", "--format", "json"]
    texts = [_run(["tb"] + argv), _run(["rot-lagr"] + argv)]
    item = {"raw": raw, "page": page, "curve": curve, "want": want}
    assert oracles.check_lagr(texts, item) == []
    assert oracles.check_lagr([_tamper(texts[0], "tb", 1), texts[1]], item)
    for key in ("rot", "rot_V0", "L_dot_H"):
        assert oracles.check_lagr([texts[0], _tamper(texts[1], key, 1)], item), key
    doc = json.loads(texts[1])
    doc["result"]["windings"][0] += 1
    assert oracles.check_lagr([texts[0], json.dumps(doc)], item)
    assert oracles.check_lagr(texts, dict(item, oracle=None, want=dict(want, tb=want["tb"] + 2)))
    assert hashlib.sha256(raw).hexdigest() == json.loads(texts[0])["input_sha256"]


def test_traced_metrics_match_the_benchmark_file():
    import os

    import spans

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as handle:
        listed = [(m["name"], m["unit"]) for m in json.load(handle)["per_layer"]]
    assert listed == spans.metric_names()
