"""Every report of ``scripts/dump_reports.py``, pinned line by line.

``tests/data/reports_dump.jsonl.gz`` holds the script's output (901 JSON
lines: relation verdicts, coefficients, witnesses, dim V3 and the
closed-form verdict of a fixed corpus).  The corpus is regenerated here in
process, and the first input whose line differs is named.  After a change
that is meant to alter a report, regenerate the file with

    python3 scripts/dump_reports.py | gzip -n -9 > tests/data/reports_dump.jsonl.gz
"""

import gzip
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "reports_dump.jsonl.gz"


def load_dump_script():
    spec = importlib.util.spec_from_file_location(
        "dump_reports", ROOT / "scripts" / "dump_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_pinned_dump():
    dump = load_dump_script()
    pinned = gzip.decompress(PINNED.read_bytes()).decode().splitlines()
    expected = iter(pinned)
    seen = 0
    for label, obj in dump.corpus():
        line = json.dumps(dump.record(label, obj))
        assert line == next(expected, None), f"first differing input: {label}"
        seen += 1
    assert seen == len(pinned) == 901
