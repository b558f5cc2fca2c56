"""The scenario table: one row per document key, in the order of the fields
it fills, and a parser and CLI that survive any value for any row."""

import contextlib
import dataclasses
import io
import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from framekit import CHECK_IDS, Scenario, ScenarioError, parse_scenario
from framekit import scenario as sc
from framekit.cli import main
from framekit.diffops import FdConfig

MINIMAL = """
frames: [identity]
fields: [uniform]
checks: [div_invariance]
"""

TABLES = {"scenario": (Scenario, sc._SCENARIO), "material": (sc.Material, sc._MATERIAL),
          "fd": (FdConfig, sc._FD)}


class TestTable:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_one_row_per_field_in_field_order(self, name):
        cls, table = TABLES[name]
        assert ([sc._FIELD.get(key, key) for key in table]
                == [f.name for f in dataclasses.fields(cls)])

    def test_tolerance_rows_are_the_check_ids(self):
        assert list(sc._TOLERANCES) == sorted(CHECK_IDS)

    def test_echo_keys_are_the_table_keys(self):
        echo = sc._echo(parse_scenario(MINIMAL))
        assert list(echo) == list(sc._SCENARIO)
        assert list(echo["fd"]) == list(sc._FD)
        assert list(echo["material"]) == list(sc._MATERIAL)

    def test_defaults_are_the_dataclass_defaults(self):
        assert parse_scenario(MINIMAL) == Scenario(
            frames=(("identity", {}),), fields=(("uniform", {}),),
            checks=("div_invariance",))

    def test_echo_is_a_document_of_the_same_scenario(self):
        s = parse_scenario(MINIMAL + "tolerances: {div_invariance: 1.0e-7}\n"
                           "fd: {ht: 2.0e-5}\nmaterial: {g: [0, 1, 2]}\n")
        assert parse_scenario(yaml.safe_dump(sc._echo(s))) == s


# --------------------------------------------------------------------------
# Fuzzing: every table key is absent, valid, or junk
# --------------------------------------------------------------------------

# A valid value for every key: the echo of a document that sets every
# tolerance, so that the tolerance rows are drawn too.
VALID = sc._echo(parse_scenario(
    MINIMAL + yaml.safe_dump({"tolerances": dict.fromkeys(CHECK_IDS, 1.0e-6)})))
JUNK = (None, True, "junk", [[1.0], [2.0, []]], math.nan, 1e308, 10**400, -1.0, -3)
ABSENT = object()


def odd_value(valid):
    """A value other than valid: absent, junk, or valid with unknown sub-keys
    (of two types, which do not sort together); a mapping may also keep its
    keys and have one or two of them drawn."""
    unknown = {"not_a_key": 1, 0: 0}
    options = [st.just(ABSENT), st.sampled_from(JUNK),
               st.just({**(valid if isinstance(valid, dict) else {}), **unknown})]
    if isinstance(valid, dict) and valid:
        options.append(mapping_for(valid))
    return st.one_of(options)


@st.composite
def mapping_for(draw, valid: dict, odd: str = ""):
    """valid with the key at the dotted path odd (drawn if empty) and perhaps
    one more key given an odd value; the others stay valid, so that the odd
    value is reached."""
    key, _, rest = (odd or draw(st.sampled_from(list(valid)))).partition(".")
    other = draw(st.sampled_from(list(valid)))
    values = dict(valid)
    values[key] = draw(mapping_for(valid[key], rest) if rest else odd_value(valid[key]))
    if other != key:
        values[other] = draw(odd_value(valid[other]))
    return {k: v for k, v in values.items() if v is not ABSENT}


# Every key of the table, and every key of a mapping-valued one.
PATHS = [key for key in sc._SCENARIO] + [
    f"{key}.{sub}" for key in sc._SCENARIO if isinstance(VALID[key], dict)
    for sub in VALID[key]]
# The suite's profile is quiet (see conftest.py): a failure names its
# document itself.
FUZZ = settings(max_examples=10)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


FIELDS = {f.name for f in dataclasses.fields(Scenario)}


def read(make):
    """make()'s Scenario, or the message of the ScenarioError it raises."""
    try:
        return make()
    except ScenarioError as exc:
        return str(exc)


@pytest.mark.parametrize("path", PATHS)
@FUZZ
@given(data=st.data())
def test_parser_and_cli_on_an_odd_value(path, data, scenario_path):
    """parse_scenario returns a Scenario or raises ScenarioError, and a Scenario
    made of the loaded mapping gives the same; the CLI rejects what it raises on
    with exit code 2 and one line on stderr."""
    text = yaml.safe_dump(data.draw(mapping_for(VALID, path)))
    doc = yaml.safe_load(text)
    try:
        parsed = read(lambda: parse_scenario(text))
        made = read(lambda: Scenario(**doc)) if set(doc) <= FIELDS else parsed
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__}: {exc}, on\n{text}") from exc
    assert made == parsed, text   # the one path: an equal Scenario, or the same message
    if isinstance(parsed, Scenario):
        return   # accepted: running the suite is not under test here
    scenario_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--scenario", str(scenario_path)])
    assert code == 2, text
    assert out.getvalue() == "", text
    assert len(err.getvalue().splitlines()) == 1, text
    assert "Traceback" not in err.getvalue(), text
