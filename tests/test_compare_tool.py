"""``tools/compare.py`` finds no difference between a tree and itself."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from morsebook.cli import main
from morsebook.fileio import MOVES_FORMAT

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself_differs_nowhere(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    steps = [{"move": "r1", "site": {"component": 0, "segment": 0}},
             {"move": "r1_inv", "site": {"component": 0, "vertex": 1}}]
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"format": MOVES_FORMAT, "steps": steps}))
    disk = str(tmp_path / "disk_s3.json")
    runs = [
        ("fixtures", "check", ["check", disk, "--format", "json"], {}),
        ("fixtures", "moves", ["moves", disk, "--front", "unknot", "--script", str(script), "-o", "out.json"], {}),
        ("fixtures", "rot", ["rot", str(tmp_path / "fig5.json"), "--front", "lambda"], {}),
        ("help", "-h", ["rot", "-h"], {"COLUMNS": "60"}),
        ("help", "usage error", ["check"], {}),
    ]
    out = io.StringIO()
    assert _tool().compare(str(ROOT), str(ROOT), runs, str(tmp_path), out) == 0
    assert out.getvalue() == "fixtures     3 identical, 0 differ\nhelp         2 identical, 0 differ\n"
