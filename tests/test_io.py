import json
import re
from fractions import Fraction as F

import pytest

from morsebook import fixtures as fx
from morsebook.cli import main
from morsebook.fileio import (
    ParseError,
    Workspace,
    front_doc,
    parse_front,
    parse_workspace,
    serialize_workspace,
)


def roundtrip_workspace(d, fronts=None, pages=None, lagrangians=None):
    w = Workspace(d, fronts or {}, pages or {}, lagrangians or {}, b"")
    text = serialize_workspace(w)
    w2 = parse_workspace(text)
    text2 = serialize_workspace(w2)
    assert text == text2
    return w2


def test_fixture_documents_roundtrip():
    roundtrip_workspace(fx.disk_s3(), {"unknot": fx.disk_s3_unknot()})
    roundtrip_workspace(fx.fig6_annulus())
    roundtrip_workspace(fx.fig1_torus())
    roundtrip_workspace(
        fx.fig5_diagram(),
        {"lambda": fx.fig5_lambda(), "lambda_prime": fx.fig5_lambda_prime()},
    )
    page, lagr = fx.disk_s3_lagr()
    roundtrip_workspace(fx.disk_s3(), {}, {"disk": page}, {"unknot": lagr})


def test_parsed_fixture_matches_source_values():
    w = roundtrip_workspace(fx.fig1_torus())
    assert w.diagram.k == 2
    assert len(w.diagram.trace_pairs[0].teleports) == 1
    from morsebook.diagram import h1_presentation

    assert h1_presentation(w.diagram).describe() == "Z"


def test_empty_diagram_document():
    doc = {"format": "morse-diagram/1", "binding_count": 1, "trace_pairs": []}
    w = parse_workspace(json.dumps(doc))
    assert w.diagram.k == 0


def test_unknown_field_is_an_error_with_path():
    doc = {
        "format": "morse-diagram/1",
        "binding_count": 1,
        "trace_pairs": [],
        "surprise": 1,
    }
    with pytest.raises(ParseError, match="surprise"):
        parse_workspace(json.dumps(doc))


def test_malformed_rational_is_an_error():
    doc = {
        "format": "morse-diagram/1",
        "binding_count": 1,
        "trace_pairs": [
            {
                "id": 1,
                "plus": [[[0, "1/0", "0"], [0, "1/8", "1"]]],
                "minus": [[[0, "5/8", "0"], [0, "5/8", "1"]]],
            }
        ],
    }
    with pytest.raises(ParseError, match="rational"):
        parse_workspace(json.dumps(doc))


def test_dangling_teleport_target_is_an_error():
    doc = {
        "format": "morse-diagram/1",
        "binding_count": 1,
        "trace_pairs": [
            {
                "id": 1,
                "plus": [[[0, "1/8", "0"], [0, "1/8", "1"]]],
                "minus": [[[0, "5/8", "0"], [0, "5/8", "1"]]],
                "teleports": [
                    {
                        "t": "1/2",
                        "side": "plus",
                        "target_pair": 9,
                        "target_side": "plus",
                        "orientation_sign": 1,
                    }
                ],
            }
        ],
    }
    with pytest.raises(ParseError, match="target_pair"):
        parse_workspace(json.dumps(doc))


def test_front_teleport_to_missing_pair_is_an_error():
    base = json.loads(
        serialize_workspace(Workspace(fx.fig1_torus(), {}, {}, {}, b""))
    )
    bad_front = front_doc(fx.fig5_lambda())
    for comp in bad_front["components"]:
        for v in comp["vertices"]:
            if isinstance(v[3], list):
                v[3][1] = 42
    base["fronts"] = {"bad": bad_front}
    with pytest.raises(ParseError, match="nonexistent pair"):
        parse_workspace(json.dumps(base))


def test_wrongly_typed_containers_are_parse_errors():
    page, lagr = fx.disk_s3_lagr()
    base = json.loads(
        serialize_workspace(
            Workspace(
                fx.fig5_diagram(), {"lambda": fx.fig5_lambda()}, {"disk": page}, {"c": lagr}, b""
            )
        )
    )
    edits = {
        "trace_pairs": lambda doc: doc.update(trace_pairs=1),
        "teleports": lambda doc: doc["trace_pairs"][0].update(teleports=None),
        "target_pair": lambda doc: doc["trace_pairs"][0]["teleports"][0].update(target_pair="1/2"),
        "fronts": lambda doc: doc.update(fronts="lambda"),
        "components": lambda doc: doc["fronts"]["lambda"].update(components=7),
        "vertices": lambda doc: doc["fronts"]["lambda"]["components"][0].update(vertices=None),
        "pages": lambda doc: doc.update(pages=[]),
        "corners": lambda doc: doc["pages"]["disk"].update(bands=[{"corners": [1, 2, 3, 4]}]),
        "lagrangians": lambda doc: doc.update(lagrangians=0),
        "components[0]": lambda doc: doc["lagrangians"]["c"].update(components=[3]),
    }
    for where, edit in edits.items():
        doc = json.loads(json.dumps(base))
        edit(doc)
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_workspace(json.dumps(doc))


def test_page_radius_must_be_positive(fixture_dir, capsys):
    doc = json.loads((fixture_dir / "disk_s3_lagr.json").read_text())
    target = fixture_dir / "radius.json"
    for radius in ("-10", "0", "-1/2"):
        doc["pages"]["disk"]["disc"]["radius"] = radius
        target.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape("pages['disk'].disc.radius: must be positive")):
            parse_workspace(target.read_text())
        for argv in (["check", "--page", "disk"], ["tb", "--page", "disk", "--lagr", "unknot"]):
            assert main([argv[0], str(target)] + argv[1:]) == 2
            err = capsys.readouterr().err
            assert err == "parse error: pages['disk'].disc.radius: must be positive\n"
    # a positive radius that is not an integer still parses
    doc["pages"]["disk"]["disc"]["radius"] = "21/2"
    target.write_text(json.dumps(doc))
    assert main(["tb", str(target), "--page", "disk", "--lagr", "unknot"]) == 0
    assert "tb: -1" in capsys.readouterr().out


def _fig5_workspace_doc():
    """fig. 5 with its owner front, the disc page and the disc curve."""
    page, lagr = fx.disk_s3_lagr()
    w = Workspace(fx.fig5_diagram(), {"lambda": fx.fig5_lambda()}, {"disk": page}, {"c": lagr}, b"")
    return json.loads(serialize_workspace(w))


def _teleport_vertex(doc):
    comp = doc["fronts"]["lambda"]["components"][0]
    return next(v for v in comp["vertices"] if isinstance(v[3], list))


def test_booleans_are_not_integers():
    edits = {
        "diagram.binding_count": lambda doc: doc.update(binding_count=True),
        "trace_pairs[0].id": lambda doc: doc["trace_pairs"][0].update(id=True),
        "teleports[0].target_pair": lambda doc: doc["trace_pairs"][0]["teleports"][0].update(
            target_pair=True
        ),
        "teleports[0].orientation_sign": lambda doc: doc["trace_pairs"][0]["teleports"][0].update(
            orientation_sign=True
        ),
        "plus[0][0]: torus": lambda doc: doc["trace_pairs"][0]["plus"][0][0].__setitem__(0, False),
        "vertices[0]: torus": lambda doc: doc["fronts"]["lambda"]["components"][0]["vertices"][
            0
        ].__setitem__(0, False),
        "bad annotation": lambda doc: _teleport_vertex(doc)[3].__setitem__(1, True),
        "crossing references": lambda doc: doc["lagrangians"]["c"]["crossings"][0].update(
            over=[False, 6]
        ),
        "expected a rational string, got True": lambda doc: doc["pages"]["disk"]["disc"].update(
            radius=True
        ),
    }
    for where, edit in edits.items():
        doc = _fig5_workspace_doc()
        edit(doc)
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_workspace(json.dumps(doc))


def test_rationals_are_ascii_p_over_q():
    good = {"-0": 0, "007/010": F(7, 10), "-3": -3, "12/8": F(3, 2), 5: 5}
    bad = ("1.5", " 1/2 ", "+3/4", "3/-4", "1e3", "1_000", "\u0663/4", "1/0", "1/", "/2", "")
    for value, want in list(good.items()) + [(v, None) for v in bad]:
        doc = _fig5_workspace_doc()
        doc["pages"]["disk"]["disc"]["center"][0] = value
        if want is None:
            with pytest.raises(ParseError, match=re.escape("malformed rational %r" % (value,))):
                parse_workspace(json.dumps(doc))
        else:
            assert parse_workspace(json.dumps(doc)).pages["disk"].center[0] == want


def test_boolean_decimal_and_padded_values_exit_2(fixture_dir, capsys):
    doc = json.loads((fixture_dir / "disk_s3_lagr.json").read_text())
    target = fixture_dir / "strict.json"
    radius = "pages['disk'].disc.radius: malformed rational "
    cases = (
        ("binding_count", True, "diagram.binding_count: must be a positive integer"),
        ("radius", "1.5", radius + "'1.5'"),
        ("radius", " 1/2 ", radius + "' 1/2 '"),
    )
    for key, value, message in cases:
        edited = json.loads(json.dumps(doc))
        node = edited["pages"]["disk"]["disc"] if key == "radius" else edited
        node[key] = value
        target.write_text(json.dumps(edited))
        for argv in (["homology"], ["tb", "--page", "disk", "--lagr", "unknot"]):
            assert main([argv[0], str(target)] + argv[1:]) == 2, (key, value, argv)
            assert capsys.readouterr().err == "parse error: %s\n" % message


def test_bad_version_is_an_error():
    doc = {"format": "morse-diagram/2", "binding_count": 1, "trace_pairs": []}
    with pytest.raises(ParseError, match="format"):
        parse_workspace(json.dumps(doc))


@pytest.fixture()
def fixture_dir(tmp_path):
    assert main(["fixtures", "--dir", str(tmp_path)]) == 0
    return tmp_path


def test_cli_homology_fig1(fixture_dir, capsys):
    code = main(["homology", str(fixture_dir / "fig1_torus.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "h1: Z" in out


def test_cli_euler_reports_zero_class(fixture_dir, capsys):
    code = main(["euler", str(fixture_dir / "fig1_torus.json"), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["euler_class"] == [0, 0]
    assert out["format"] == "report/1"
    assert len(out["input_sha256"]) == 64


def test_cli_rot_requires_auxiliary_link(fixture_dir, capsys):
    code = main(
        ["rot", str(fixture_dir / "fig5.json"), "--front", "lambda_prime", "--aux", "none"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "auxiliary link X" in err


def test_cli_usage_error_exit_code(fixture_dir, capsys):
    assert main(["rot", str(fixture_dir / "fig5.json")]) == 2
    assert main(["homology", str(fixture_dir / "missing.json")]) == 2


def test_cli_tb_and_rot_lagr(fixture_dir, capsys):
    code = main(
        ["tb", str(fixture_dir / "disk_s3_lagr.json"), "--page", "disk", "--lagr", "unknot"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "tb: -1" in out
    code = main(
        [
            "rot-lagr",
            str(fixture_dir / "disk_s3_lagr.json"),
            "--page",
            "disk",
            "--lagr",
            "unknot",
            "--format",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["result"]["rot"] == 0


def test_cli_resolve_and_render_deterministic(fixture_dir, tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code = main(
            [
                "render",
                str(fixture_dir / "fig5.json"),
                "--front",
                "lambda",
                "--overlay",
                "resolution",
                "-o",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    res_path = tmp_path / "res.json"
    code = main(
        [
            "resolve",
            str(fixture_dir / "fig5.json"),
            "--front",
            "lambda",
            "--out",
            str(res_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(res_path.read_text())
    assert doc["format"] == "resolution/1"
    assert doc["multiplicities"]["1/plus"][1][2] == 1


def test_cli_moves_script(fixture_dir, tmp_path, capsys):
    script = {
        "format": "moves/1",
        "steps": [
            {
                "move": "r1",
                "site": {"component": 0, "segment": 0, "u": "1/2"},
            }
        ],
    }
    spath = tmp_path / "script.json"
    spath.write_text(json.dumps(script))
    out = tmp_path / "moved.json"
    code = main(
        [
            "moves",
            str(fixture_dir / "disk_s3.json"),
            "--front",
            "unknot",
            "--script",
            str(spath),
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    moved = parse_front(json.loads(out.read_text()))
    assert len(moved.components[0].vertices) == 8


def test_check_command_flags_invalid_front(fixture_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "disk_s3.json").read_text())
    # break the unknot: give it a positive-slope segment
    doc["fronts"]["unknot"]["components"][0]["vertices"][1][1] = "1/100"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "slope" in out or "cusp" in out or "vertex" in out
