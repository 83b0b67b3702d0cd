"""The benchmark tracer still finds every function it wraps.

``perfbench/spans.py`` wraps the functions it names by attribute
lookup; a function renamed or removed under ``src/`` would make
``perfbench/run.py --trace 1`` fail, while the metric names it reports
stay the same.  The file is loaded read-only, by path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_still_in_its_module():
    spans = _spans()
    missing = [
        "%s.%s" % (mod, fn)
        for table in (spans.SPANNED, spans.COUNTED)
        for mod, fns in table.items()
        for fn in fns
        if not callable(getattr(importlib.import_module("morsebook." + mod), fn, None))
    ]
    assert missing == []
