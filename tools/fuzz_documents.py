"""Fuzz scenario documents against the CLI's exit contract.

    python tools/fuzz_documents.py [--examples N] [--seed S]

Generates scenario documents with hypothesis: catalog frames and fields whose
params are drawn from the value set of the number rule's property test
(``tests/test_number_rule.py``: finite floats with their extremes, numpy's
scalars, NaN, infinities, booleans, a string, bytes, None and nested lists of
these), about a third with an ``fd`` step drawn from the same params and
an order of 2 or 4, about a third with a ``box`` (far from the origin too),
``material`` keys and a ``pressure`` field, about a third with one to three
``tolerances`` from the same params, some with unknown keys, some with
YAML aliases or merge keys.  Each document runs through ``framekit.cli.main``
at ``samples: 2`` with every warning shown, and one whose keys are all
``Scenario`` fields is also made as ``Scenario(**yaml.safe_load(text))``, the
library's path.  A run keeps the contract if the library's path raises
``ScenarioError`` with the CLI's stderr text exactly when the CLI exits 2, and if it

- exits 0 or 1 with a JSON report that parses, no ``error`` row, nothing on
  stderr, and the overflow message on every row with a non-finite
  ``max_abs_err`` or ``mean_abs_err``; or
- exits 2 with one line on stderr and nothing on stdout.

Anything else, a traceback above all, is a violation.  Prints the count of
each outcome class, the rows whose residual overflowed, and the first
document of each violation class; exits 1 if there is any violation.  It is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

import yaml
from hypothesis import HealthCheck, Phase, given, seed, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from framekit import CHECK_IDS, FIELD_CATALOG, FRAME_CATALOG, Scenario, ScenarioError  # noqa: E402
from framekit.cli import main as cli_main  # noqa: E402
from test_number_rule import VALUES, plain, valid_params  # noqa: E402

OVERFLOW = "non-finite residual: the check's arithmetic overflowed"
# A param's value: one of VALUES, or as often one of its finite floats (the
# extremes among them too), so that many documents run rather than exit 2.
PARAMS = st.one_of(VALUES, st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308]))

# A box end far from the origin, up to the largest floats, of either sign.
FAR = st.sampled_from([1.0, 1e3, 1e100, 1e300, 1e307, 1e308, 1.7e308]).flatmap(
    lambda v: st.sampled_from([v, -v]))
MATERIAL = {"mu": PARAMS, "rho": PARAMS, "g": st.lists(PARAMS, min_size=3, max_size=3),
            "conductivity": PARAMS}
SCALARS = {name: FIELD_CATALOG[name] for name in ("gaussian_T", "linear_T")}
FIELDS = {f.name for f in dataclasses.fields(Scenario)}


@st.composite
def entries(draw, catalog):
    """A catalog entry: valid params with up to two drawn from PARAMS, and
    now and then an unknown param."""
    name = draw(st.sampled_from(sorted(catalog)))
    params = valid_params(name)
    for key in draw(st.lists(st.sampled_from(sorted(params)), max_size=2, unique=True)
                    if params else st.just([])):
        params[key] = plain(draw(PARAMS))
    if draw(st.integers(0, 9)) == 0:
        params["not_a_param"] = 1.0
    return {"name": name, "params": params}


@st.composite
def boxes(draw):
    """A box: [lo, hi] or three pairs, each pair two of PARAMS or two ends
    that FAR draws, in order."""
    def pair():
        if draw(st.booleans()):
            return sorted(draw(st.tuples(FAR, FAR)))
        return [plain(draw(PARAMS)), plain(draw(PARAMS))]
    return pair() if draw(st.booleans()) else [pair() for _ in range(3)]


def flow(value) -> str:
    """value in YAML's flow style, on one line."""
    return yaml.safe_dump([value], default_flow_style=True, width=1 << 20).strip()[1:-1]


@st.composite
def documents(draw) -> str:
    """A whole document's text at samples: 2; its frames list may repeat an
    entry through an alias, or merge one entry's params into the next."""
    doc = {"frames": draw(st.lists(entries(FRAME_CATALOG), min_size=1, max_size=2)),
           "fields": draw(st.lists(entries(FIELD_CATALOG), min_size=1, max_size=2)),
           "checks": draw(st.lists(st.sampled_from(CHECK_IDS), min_size=1, max_size=3,
                                   unique=True)),
           "samples": 2}
    if draw(st.integers(0, 2)) == 0:   # about a third: one fd step from PARAMS, an order
        doc["fd"] = {draw(st.sampled_from(["h", "ht"])): plain(draw(PARAMS)),
                     "order": draw(st.sampled_from([2, 4]))}
    if draw(st.integers(0, 2)) == 0:   # about a third: a box, material keys, a pressure field
        doc["box"] = draw(boxes())
        keys = draw(st.lists(st.sampled_from(sorted(MATERIAL)), max_size=2, unique=True))
        doc["material"] = {key: plain(draw(MATERIAL[key])) for key in keys}
        doc["pressure"] = draw(entries(SCALARS))
    if draw(st.integers(0, 2)) == 0:   # about a third: one to three tolerances from PARAMS
        ids = draw(st.lists(st.sampled_from(CHECK_IDS), min_size=1, max_size=3, unique=True))
        doc["tolerances"] = {check_id: plain(draw(PARAMS)) for check_id in ids}
    if draw(st.integers(0, 9)) == 0:
        doc["not_a_key"] = 0
    shape = draw(st.sampled_from(["plain", "plain", "plain", "alias", "merge"]))
    if shape == "alias":   # the same object twice: safe_dump writes an anchor and an alias
        doc["frames"].append(doc["frames"][0])
    if shape != "merge":
        return yaml.safe_dump(doc)
    first = doc.pop("frames")[0]
    key, value = draw(st.sampled_from(sorted(first["params"]) or ["rate"])), draw(PARAMS)
    name = flow(first["name"])
    return (f"frames:\n- {{name: {name}, params: &p {flow(first['params'])}}}\n"
            f"- {{name: {name}, params: {{<<: *p, {key}: {flow(plain(value))}}}}}\n"
            + yaml.safe_dump(doc))


def made(doc) -> str | None:
    """The CLI's stderr for the ScenarioError that Scenario(**doc) raises, else None."""
    try:
        Scenario(**doc)
    except ScenarioError as exc:
        return f"framekit: error: {exc}\n"
    return None


def outcome(path: Path, text: str) -> tuple[str, int]:
    """The outcome class of one run of the document, and its overflow rows."""
    path.write_text(text, encoding="utf-8")
    out, err, doc = io.StringIO(), io.StringIO(), yaml.safe_load(text)
    library = set(doc) <= FIELDS   # its keys are Scenario's keywords
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            code = cli_main(["verify", "--scenario", str(path), "--format", "json"])
            error = made(doc) if library else None
    except Exception:   # anything the CLI or a Scenario lets out is a traceback for its user
        return "VIOLATION traceback: " + traceback.format_exc().splitlines()[-1], 0
    if library and error != (err.getvalue() if code == 2 else None):
        return "VIOLATION Scenario(**document) differs from the CLI", 0
    if code == 2:
        one_line = len(err.getvalue().splitlines()) == 1 and not out.getvalue()
        return ("exit 2" if one_line else "VIOLATION exit 2 without one line on stderr"), 0
    if err.getvalue():
        return "VIOLATION stderr on exit 0 or 1: " + err.getvalue().splitlines()[0], 0
    try:
        rows = json.loads(out.getvalue())["results"]
    except (ValueError, KeyError, TypeError):
        return "VIOLATION report is not JSON", 0
    if any(row["status"] == "error" for row in rows):
        return "VIOLATION error row", 0
    overflowed = [row for row in rows if None in (row["max_abs_err"], row["mean_abs_err"])]
    if any(row.get("message") != OVERFLOW for row in overflowed):
        return "VIOLATION non-finite residual without the overflow message", 0
    return f"exit {code}" + (" with overflow rows" if overflowed else ""), len(overflowed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=3000, help="documents to run")
    parser.add_argument("--seed", type=int, default=0, help="hypothesis's seed")
    args = parser.parse_args(argv)
    counts, overflow_rows, first = Counter(), 0, {}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"

        @seed(args.seed)
        @settings(max_examples=args.examples, database=None, deadline=None,
                  phases=[Phase.generate], suppress_health_check=list(HealthCheck))
        @given(documents())
        def run(text):
            nonlocal overflow_rows
            kind, rows = outcome(path, text)
            counts[kind] += 1
            overflow_rows += rows
            first.setdefault(kind, text)

        run()

    for kind, n in sorted(counts.items()):
        print(f"{n:6d}  {kind}")
    print(f"{sum(counts.values()):6d}  documents; "
          f"{overflow_rows} rows with an overflowed residual")
    violations = sorted(kind for kind in counts if kind.startswith("VIOLATION"))
    for kind in violations:
        print(f"\nfirst document of {kind}:\n{first[kind]}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
