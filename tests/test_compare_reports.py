"""tools/compare_reports.py on in-memory reports."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from framekit import canonical_report_json, emit_report, parse_scenario, run_suite

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


@pytest.fixture(scope="module")
def report():
    return run_suite(parse_scenario("""
frames: [identity, {name: constant_rotation, params: {axis: [0, 0, 1], rate: 2.0}}]
fields: [taylor_green, gaussian_T]
checks: [div_invariance, velgrad_relation, scalar_grad_invariance]
samples: 5
"""))


def edited(text, index, **values):
    """text's report with row index updated by values, written as framekit does."""
    doc = json.loads(text)
    doc["results"][index].update(values)
    return json.dumps(doc, indent=2) + "\n"


def test_a_report_against_itself_changes_nothing(report):
    text = emit_report(report, "json")
    lines, verdict_changed = compare_reports.compare(text, text)
    assert not verdict_changed
    assert lines[0] == "rows: 6 -> 6; added 0, removed 0, changed 0"
    assert "status changes: 0" in lines
    assert "largest |d max_abs_err| / tol: 0" in lines
    assert "largest |d mean_abs_err| / tol: 0" in lines


def test_a_nudged_value_names_its_row_and_scaled_change(report):
    text = emit_report(report, "json")
    row = report.results[3]
    nudged = edited(text, 3, max_abs_err=row["max_abs_err"] + 0.25 * row["tol"])
    lines, verdict_changed = compare_reports.compare(text, nudged)
    assert not verdict_changed
    name = f"{row['frame']} x {row['field']} x {row['check']}"
    assert lines[0] == "rows: 6 -> 6; added 0, removed 0, changed 1"
    assert f"  changed: {name}" in lines
    assert f"largest |d max_abs_err| / tol: 0.25 ({name})" in lines
    assert "largest |d mean_abs_err| / tol: 0" in lines


def test_a_flipped_status_exits_nonzero(report, tmp_path, capsys):
    text = emit_report(report, "json")
    paths = tmp_path / "a.json", tmp_path / "b.json"
    paths[0].write_text(text)
    paths[1].write_text(edited(text, 0, status="fail"))
    assert compare_reports.main([str(p) for p in paths]) == 1
    out = capsys.readouterr().out.splitlines()
    row = report.results[0]
    assert "status changes: 1" in out
    assert f"  {row['frame']} x {row['field']} x {row['check']}: pass -> fail" in out


def test_rows_are_keyed_by_rank_among_repeated_names(report):
    text = emit_report(report, "json")
    doc = json.loads(text)
    doc["results"].append(doc["results"][0])
    lines, _ = compare_reports.compare(text, json.dumps(doc, indent=2))
    row = report.results[0]
    assert f"  added: {row['frame']} x {row['field']} x {row['check']} #2" in lines


def test_canonical_md5_drops_the_wall_time(report):
    digest = hashlib.md5(canonical_report_json(report).encode()).hexdigest()
    assert compare_reports.canonical_md5(emit_report(report, "json")) == digest
    assert compare_reports.canonical_md5(canonical_report_json(report)) == digest
