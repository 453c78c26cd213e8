"""The committed count ledger, COST_LEDGER.json, against the library.

tools/cost_ledger.py counts the find_root solves of each of the 24 runs of
tools/report_digests.py (the 13 L3 cases and 11 configurations), their
summed max-row nfev and their summed objective rows. The counts repeat exactly on
every machine, so a count above the record is root-solve work a change
added; a change that lowers a count rewrites the record with --write.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cost_ledger", os.path.join(ROOT, "tools", "cost_ledger.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_no_ledger_count_rises_above_the_record():
    tool = _tool()
    with open(os.path.join(ROOT, "COST_LEDGER.json")) as fh:
        recorded = json.load(fh)
    counts = {label: c for label, (c, _) in tool.ledger().items()}
    assert len(counts) == 24
    rises, _ = tool.compare(recorded, counts)
    assert rises == []


def test_ledger_compare_names_each_rise_and_fall():
    compare = _tool().compare
    was = {"a": dict(solves=2, nfev=30, rows=100),
           "b": dict(solves=1, nfev=10, rows=50)}
    now = {"a": dict(solves=2, nfev=31, rows=90),
           "c": dict(solves=1, nfev=10, rows=50)}
    rises, falls = compare(was, now)
    assert rises == ["b: recorded, not run", "c: not recorded", "a: nfev 30 -> 31"]
    assert falls == ["a: rows 100 -> 90"]
    assert compare(was, was) == ([], [])
