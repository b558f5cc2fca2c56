"""Compare two framekit JSON reports: rows, verdicts and values.

    python tools/compare_reports.py A.json B.json

Prints the rows added, removed and changed from A to B, every status change,
the largest |d max_abs_err| / tol and |d mean_abs_err| / tol with the row of
each, and the md5 prefix of each report's canonical text (the report without
its wall_time_s line, as canonical_report_json writes it).  Exits 1 if any
verdict changed (a row's status or the suite verdict), 2 if a file cannot be
read as a report, and 0 otherwise.  A row is keyed by (frame, field, check)
and its rank among rows with that key, since a scenario may list one frame or
field name twice with different params.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from collections import Counter

_WALL_TIME = re.compile(r',\n  "wall_time_s": [^\n]*\n')


def canonical_md5(text: str) -> str:
    """md5 hex digest of a report's canonical text: its wall_time_s dropped."""
    return hashlib.md5(_WALL_TIME.sub("\n", text).encode("utf-8")).hexdigest()


def _rows(report: dict) -> dict:
    keyed, seen = {}, Counter()
    for row in report["results"]:
        triple = (row["frame"], row["field"], row["check"])
        keyed[triple + (seen[triple],)] = row
        seen[triple] += 1
    return keyed


def _scaled_change(a, b, tol) -> float:
    """|a - b| / tol; a null on one side only (an error row, an overflow) is inf."""
    if a == b:
        return 0.0
    if a is None or b is None or not tol:
        return math.inf
    return abs(a - b) / tol


def _name(key) -> str:
    frame, field, check, rank = key
    return f"{frame} x {field} x {check}" + (f" #{rank + 1}" if rank else "")


def compare(text_a: str, text_b: str) -> tuple[list[str], bool]:
    """The lines that describe how report text_b differs from report text_a,
    and whether any verdict changed."""
    a, b = json.loads(text_a), json.loads(text_b)
    rows_a, rows_b = _rows(a), _rows(b)
    added = [k for k in rows_b if k not in rows_a]
    removed = [k for k in rows_a if k not in rows_b]
    common = [k for k in rows_a if k in rows_b]
    changed = [k for k in common if rows_a[k] != rows_b[k]]
    flips = [k for k in common if rows_a[k]["status"] != rows_b[k]["status"]]
    lines = [f"rows: {len(rows_a)} -> {len(rows_b)}; added {len(added)}, "
             f"removed {len(removed)}, changed {len(changed)}"]
    lines += [f"  added: {_name(k)}" for k in added]
    lines += [f"  removed: {_name(k)}" for k in removed]
    lines += [f"  changed: {_name(k)}" for k in changed]
    lines.append(f"status changes: {len(flips)}")
    lines += [f"  {_name(k)}: {rows_a[k]['status']} -> {rows_b[k]['status']}" for k in flips]
    for value in ("max_abs_err", "mean_abs_err"):
        scaled = {k: _scaled_change(rows_a[k][value], rows_b[k][value], rows_a[k]["tol"])
                  for k in common}
        worst = max(scaled, key=scaled.get, default=None)
        size = scaled.get(worst, 0.0)
        where = f" ({_name(worst)})" if size else ""
        lines.append(f"largest |d {value}| / tol: {size:.3g}{where}")
    verdicts = a["suite_verdict"], b["suite_verdict"]
    lines.append(f"suite verdict: {verdicts[0]} -> {verdicts[1]}")
    lines.append(f"canonical md5: {canonical_md5(text_a)[:8]} -> {canonical_md5(text_b)[:8]}")
    return lines, bool(flips) or verdicts[0] != verdicts[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        texts = []
        for path in argv:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        lines, verdict_changed = compare(*texts)
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"compare_reports: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if verdict_changed else 0


if __name__ == "__main__":
    sys.exit(main())
