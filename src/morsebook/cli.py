"""Command-line interface.

Subcommands: check, homology, euler, rot, tb, rot-lagr, resolve,
render, moves, fixtures.  Exit codes: 0 success, 1 validation or
computation error on well-formed input, 2 usage or parse error.  A
failed internal check (an ``AssertionError`` or a ``DegenerateGeometry``
that the library lets escape) prints ``internal error: <msg>`` and
exits 1.  Reports carry the format version and the input file's hash.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import h1_presentation, validate_diagram
from .fileio import (
    REPORT_FORMAT,
    ParseError,
    front_doc,
    parse_moves,
    parse_workspace,
    resolution_doc,
    serialize_workspace,
    Workspace,
)
from .front import validate_front
from .geometry import DegenerateGeometry
from .invariants import euler_class, rot_front
from .lagrangian import rot_lagrangian, tb_writhe, validate_lagrangian
from .moves import apply_script
from .resolution import multiplicities, total_resolution
from .svg import render_svg
from .validation import InvalidInput


def _report(args, workspace, command, result):
    doc = {
        "format": REPORT_FORMAT,
        "command": command,
        "input_sha256": workspace.sha256(),
        "result": result,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for key, value in sorted(result.items()):
            print("%s: %s" % (key, value))
    return 0


def _load(path):
    with open(path, "rb") as handle:
        return parse_workspace(handle.read())


def _pick(mapping, name, what):
    if name not in mapping:
        raise InvalidInput("no %s named %r in the workspace" % (what, name))
    return mapping[name]


def cmd_check(args):
    w = _load(args.workspace)
    issues = []
    rep = validate_diagram(w.diagram)
    issues.extend(("diagram", loc, msg) for loc, msg in rep)
    if rep.ok:
        for name, f in sorted(w.fronts.items()):
            for loc, msg in validate_front(w.diagram, f):
                issues.append(("front %s" % name, loc, msg))
    for name, c in sorted(w.lagrangians.items()):
        if args.page is not None:
            page = _pick(w.pages, args.page, "page")
            for loc, msg in validate_lagrangian(page, c):
                issues.append(("lagrangian %s" % name, loc, msg))
    result = {
        "ok": not issues,
        "issues": ["%s: %s (%s)" % (kind, msg, loc) for kind, loc, msg in issues],
    }
    _report(args, w, "check", result)
    return 0 if not issues else 1


def cmd_homology(args):
    w = _load(args.workspace)
    group = h1_presentation(w.diagram)
    result = {
        "h1": group.describe(),
        "invariant_factors": group.invariant_factors,
        "free_rank": group.free_rank,
        "generators": [p.id for p in w.diagram.trace_pairs],
    }
    return _report(args, w, "homology", result)


def cmd_euler(args):
    w = _load(args.workspace)
    rep = euler_class(w.diagram)
    return _report(args, w, "euler", rep.as_dict())


def cmd_rot(args):
    w = _load(args.workspace)
    f = _pick(w.fronts, args.front, "front")
    f_x = None
    if args.aux and args.aux != "none":
        f_x = _pick(w.fronts, args.aux, "front")
    rep = rot_front(w.diagram, f, f_x)
    return _report(args, w, "rot", rep.as_dict())


def cmd_tb(args):
    w = _load(args.workspace)
    page = _pick(w.pages, args.page, "page")
    c = _pick(w.lagrangians, args.lagr, "lagrangian diagram")
    return _report(args, w, "tb", {"tb": tb_writhe(page, c)})


def cmd_rot_lagr(args):
    w = _load(args.workspace)
    page = _pick(w.pages, args.page, "page")
    c = _pick(w.lagrangians, args.lagr, "lagrangian diagram")
    rep = rot_lagrangian(page, c)
    return _report(args, w, "rot-lagr", rep.as_dict())


def cmd_resolve(args):
    w = _load(args.workspace)
    f = _pick(w.fronts, args.front, "front")
    res = total_resolution(w.diagram, f)
    doc = resolution_doc(res)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.svg:
        data = render_svg(w.diagram, [f], resolution=res, multiplicities=res.assignment)
        with open(args.svg, "wb") as handle:
            handle.write(data)
    summary = {
        "curves": len(res.curves),
        "horizontal_sum": res.horizontal_sum(),
        "counts": res.counts(),
    }
    return _report(args, w, "resolve", summary)


def cmd_render(args):
    w = _load(args.workspace)
    fronts = []
    res = None
    mult = None
    if args.front:
        f = _pick(w.fronts, args.front, "front")
        fronts = [f]
        if args.overlay == "resolution":
            res = total_resolution(w.diagram, f)
            mult = res.assignment
        elif args.overlay == "multiplicities":
            mult = multiplicities(w.diagram, f)
    data = render_svg(w.diagram, fronts, resolution=res, multiplicities=mult)
    with open(args.out, "wb") as handle:
        handle.write(data)
    return _report(args, w, "render", {"written": args.out, "bytes": len(data)})


def cmd_moves(args):
    w = _load(args.workspace)
    f = _pick(w.fronts, args.front, "front")
    with open(args.script, "rb") as handle:
        steps = parse_moves(handle.read())
    out = apply_script(w.diagram, f, steps)
    doc = front_doc(out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    else:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_fixtures(args):
    from . import fixtures as fx

    files = {
        "disk_s3.json": (fx.disk_s3(), {"unknot": fx.disk_s3_unknot()}, {}, {}),
        "fig6_annulus.json": (fx.fig6_annulus(), {}, {}, {}),
        "fig1_torus.json": (fx.fig1_torus(), {}, {}, {}),
        "fig5.json": (
            fx.fig5_diagram(),
            {"lambda": fx.fig5_lambda(), "lambda_prime": fx.fig5_lambda_prime()},
            {},
            {},
        ),
    }
    page, lagr = fx.disk_s3_lagr()
    files["disk_s3_lagr.json"] = (fx.disk_s3(), {}, {"disk": page}, {"unknot": lagr})
    import os

    os.makedirs(args.dir, exist_ok=True)
    written = []
    for name, (d, fronts, pages, lagrs) in sorted(files.items()):
        w = Workspace(d, fronts, pages, lagrs, b"")
        text = serialize_workspace(w)
        path = os.path.join(args.dir, name)
        with open(path, "w") as handle:
            handle.write(text)
        written.append(path)
    for path in written:
        print(path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morsebook",
        description="Legendrian invariants from Morse diagrams of open books",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="validate a workspace")
    p.add_argument("workspace")
    p.add_argument("--page", default=None)

    p = add("homology", cmd_homology, help="H_1 of the ambient manifold")
    p.add_argument("workspace")

    p = add("euler", cmd_euler, help="Euler class of the contact structure")
    p.add_argument("workspace")

    p = add("rot", cmd_rot, help="rotation number of a front")
    p.add_argument("workspace")
    p.add_argument("--front", required=True)
    p.add_argument("--aux", default="none", help="auxiliary link front or 'none'")

    p = add("tb", cmd_tb, help="Thurston-Bennequin number from a page projection")
    p.add_argument("workspace")
    p.add_argument("--page", required=True)
    p.add_argument("--lagr", required=True)

    p = add("rot-lagr", cmd_rot_lagr, help="rotation number from a page projection")
    p.add_argument("workspace")
    p.add_argument("--page", required=True)
    p.add_argument("--lagr", required=True)

    p = add("resolve", cmd_resolve, help="total resolution of a front")
    p.add_argument("workspace")
    p.add_argument("--front", required=True)
    p.add_argument("--out", default=None, help="write resolution/1 JSON here")
    p.add_argument("--svg", default=None, help="write an SVG overlay here")

    p = add("render", cmd_render, help="deterministic SVG of the workspace")
    p.add_argument("workspace")
    p.add_argument("--front", default=None)
    p.add_argument("--overlay", choices=("resolution", "multiplicities"), default=None)
    p.add_argument("-o", "--out", required=True)

    p = add("moves", cmd_moves, help="apply a move script to a front")
    p.add_argument("workspace")
    p.add_argument("--front", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("-o", "--out", default=None)

    p = add("fixtures", cmd_fixtures, help="write the bundled example files")
    p.add_argument("--dir", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print("parse error: %s" % (e,), file=sys.stderr)
        return 2
    except InvalidInput as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 1
    except OSError as e:
        print("io error: %s" % (e,), file=sys.stderr)
        return 2
    except (AssertionError, DegenerateGeometry) as e:
        print("internal error: %s" % (e,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
