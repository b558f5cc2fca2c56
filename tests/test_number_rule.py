"""One number rule for library callers and scenario documents.

A number is a finite int or float, numpy's real scalars included; never a
bool, a string, bytes, None, a NaN or an inf (``tensor_core.is_number``).
Every catalog constructor reads its parameters by that rule, so a direct
call refuses what a document is refused for.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from framekit import (FIELD_CATALOG, FRAME_CATALOG, Scenario, ScenarioError, UsageError,
                      parse_scenario)
from framekit import tensor_core as tc

# Valid values of the parameters that have no default.
REQUIRED = {
    "uniform_translation": {"velocity": [0.7, -0.3, 0.25]},
    "accelerated_translation": {"coeffs": [[0.0, 0.4, 0.8], [0.0, -0.2], [0.1]]},
    "constant_rotation": {"axis": [0.0, 0.0, 1.0], "rate": 2.0},
    "wobble": {"angles_x": [0.0, 0.9], "angles_y": [0.3, 0.7], "angles_z": [0.0, 1.1]},
    "screw": {"axis": [0.0, 0.0, 1.0], "rate": 1.5, "velocity": [0.0, 0.0, 0.6]},
}
CATALOGS = {"frame": FRAME_CATALOG, "field": FIELD_CATALOG}
# A Scenario's lists, with a check for a flow and one for a scalar field.
ENTRIES = {"frames": (("identity", {}),), "fields": (("uniform", {}),),
           "checks": ("div_invariance", "scalar_grad_invariance")}


def valid_params(name):
    """Every parameter of a catalog constructor, each with a valid value."""
    catalog = FRAME_CATALOG if name in FRAME_CATALOG else FIELD_CATALOG
    signature = inspect.signature(catalog[name])
    return {key: REQUIRED.get(name, {}).get(key, p.default)
            for key, p in signature.parameters.items()}


CASES = [(noun, name, key) for noun, catalog in CATALOGS.items()
         for name in catalog for key in valid_params(name)]


def with_value(valid, value):
    """valid with value in its place; in a vector or list, in place of its
    first entry."""
    if isinstance(valid, (list, tuple)):
        return [with_value(valid[0], value), *valid[1:]]
    return value


def build(noun, name, key, value):
    return CATALOGS[noun][name](**{**valid_params(name), key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"],
                         ids=["nan", "inf", "true", "string"])
@pytest.mark.parametrize("noun, name, key", CASES)
def test_every_catalog_parameter_refuses_what_is_no_number(noun, name, key, value):
    with pytest.raises(UsageError):
        build(noun, name, key, with_value(valid_params(name)[key], value))


@pytest.mark.parametrize("value, number", [
    (0, True), (-3, True), (2.5, True), (5e-324, True), (np.float32(0.5), True),
    (np.int64(7), True), (np.uint8(3), True), (10**400, False), (True, False),
    (np.bool_(False), False), (math.nan, False), (-math.inf, False), (np.float64("nan"), False),
    (np.float32("inf"), False), (np.longdouble("1e400"), False),
    ("1", False), (b"1", False), (None, False), (1j, False), ([1.0], False)])
def test_is_number(value, number):
    assert tc.is_number(value) is number


# The value set of the property below: finite floats, the extremes among them,
# numpy's scalars, non-finite floats, booleans, a string, bytes, None, and
# nested lists of these.
LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.bool_(True),
                     "1", b"1", None]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=6)


def plain(value):
    """value as YAML writes it: numpy's scalars as Python's."""
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def library_rejects(noun, name, params) -> bool:
    """Whether the library refuses params: the constructor raises, or a Scenario
    of the entry, which a document's parse also makes, at the default fd and box."""
    try:
        CATALOGS[noun][name](**params)
        Scenario(**{**ENTRIES, f"{noun}s": ((name, params),)})
    except UsageError:   # a ScenarioError too
        return True
    return False


@pytest.mark.parametrize("noun, name, key", CASES)
@settings(max_examples=12)
@given(value=VALUES)
# Finite values whose arithmetic at construction overflows: an axis's norm,
# and an angle polynomial's rates.
@example(value=[1e308, 1e308, 0.0])
@example(value=[1e308, -1e308, 1e308, -1e308])
# A trajectory finite over [0, 1] that overflows within the time stencil's reach past it.
@example(value=[1.7976931348623157e308, 0.0, 0.0])
def test_catalog_builds_or_raises_usage_error(noun, name, key, value):
    """A constructor given any value builds or raises UsageError, never any
    other exception or warning; and a value that parse_scenario refuses in a
    document, the library refuses too."""
    params = {**valid_params(name), key: plain(value)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build(noun, name, key, value)
        except UsageError:
            pass
        doc = {"frames": ["identity"], "fields": ["uniform"], "checks": list(ENTRIES["checks"]),
               f"{noun}s": [{"name": name, "params": params}]}
        try:
            parse_scenario(yaml.safe_dump(doc))
        except ScenarioError:
            assert library_rejects(noun, name, params), params


ACCESSORS = ("state", "y", "alpha", "dy_dt", "d2y_dt2", "dalpha_dt", "d2alpha_dt2")


@pytest.mark.parametrize("times", [[True], np.array(["0.5"]), None, 1 + 2j, [0.5, math.inf],
                                   np.array([0.5, math.nan])],
                         ids=["bool", "string", "none", "complex", "inf", "float-nan"])
@pytest.mark.parametrize("accessor", ACCESSORS)
@pytest.mark.parametrize("name", ["identity", "wobble"])
def test_a_frame_reads_its_times_by_the_number_rule(name, accessor, times):
    """Times that are no numbers, or not finite, are refused by any accessor, of
    a constant frame too; a float array is checked when it is first read."""
    frame = FRAME_CATALOG[name](**REQUIRED.get(name, {}))
    with pytest.raises(UsageError):
        getattr(frame, accessor)(times)


@pytest.mark.parametrize("times", [[0, 1], (0.0, 1), np.array([0, 1]),
                                   np.array([0.0, 1.0], np.float32)])
def test_a_frame_reads_number_times_as_floats(times):
    frame = FRAME_CATALOG["wobble"](**REQUIRED["wobble"])
    want = frame.alpha(np.array([0.0, 1.0]))
    assert np.array_equal(frame.alpha(times), want)
    assert np.array_equal(frame.alpha(1), want[1])
