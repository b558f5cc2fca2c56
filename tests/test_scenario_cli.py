"""Scenario parsing, suite determinism, report emission, CLI contract."""

import dataclasses
import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from framekit import (CHECK_IDS, InvariantViolationError, Report, ScenarioError,
                      canonical_report_json, emit_report, make_field, make_frame,
                      parse_scenario, run_suite)
from framekit import objectivity as obj
from framekit import scenario as fs
from framekit.cli import main

MINIMAL = """
frames: [identity]
fields: [uniform]
checks: [div_invariance]
"""


class TestParseScenario:
    def test_minimal_document_gets_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.frames == (("identity", {}),)
        assert s.fields == (("uniform", {}),)
        assert s.checks == ("div_invariance",)
        assert s.box == ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        assert s.samples == 100
        assert s.fd.h == 1e-3 and s.fd.h_t == 1e-5 and s.fd.order == 4

    def test_zero_samples_rejected(self):
        with pytest.raises(ScenarioError, match=">= 1"):
            parse_scenario(MINIMAL + "samples: 0\n")

    def test_samples_bound_parses(self):
        # Parsed only: a run this size needs about 3 GB.
        assert parse_scenario(MINIMAL + "samples: 1000000\n").samples == 1_000_000

    def test_unknown_check_lists_valid_ids(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("""
frames: [identity]
fields: [uniform]
checks: [divergence]
""")
        for check_id in CHECK_IDS:
            assert check_id in str(err.value)

    def test_unknown_frame_lists_catalog(self):
        with pytest.raises(ScenarioError, match="valid"):
            parse_scenario(MINIMAL.replace("identity", "spinning_top"))

    def test_strict_mode_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="plot"):
            parse_scenario(MINIMAL + "plot: true\n")
        with pytest.raises(ScenarioError, match="fd"):
            parse_scenario(MINIMAL + "fd: {dx: 0.1}\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="checks"):
            parse_scenario("frames: [identity]\nfields: [uniform]\n")

    def test_params_and_overrides(self):
        s = parse_scenario("""
frames:
  - name: constant_rotation
    params: {axis: [0, 0, 1], rate: 2.0}
fields: [taylor_green]
checks: [strain_rate_invariance]
samples: 7
seed: 5
box: [-0.5, 0.5]
fd: {h: 1.0e-2, ht: 1.0e-4, order: 2}
tolerances: {strain_rate_invariance: 1.0e-3}
""")
        assert s.frames[0][1] == {"axis": [0, 0, 1], "rate": 2.0}
        assert s.box == ((-0.5, 0.5),) * 3
        assert s.samples == 7 and s.seed == 5
        assert s.fd.order == 2
        assert s.tolerance("strain_rate_invariance") == 1e-3
        assert s.tolerance("div_invariance") == 1e-6

    def test_exponent_without_a_dot_is_a_float(self):
        # YAML 1.1 reads 1e-6 and 1.0e308 as strings; a scenario reads them,
        # like YAML 1.2, as floats, and echoes them as floats.
        s = parse_scenario(document(fields="[{name: shear, params: {rate: 3e0}}]")
                           + "samples: 2\nfd: {h: 1E-3}\ntolerances: {div_invariance: 1e-6}\n")
        assert s.fields == (("shear", {"rate": 3.0}),)
        assert s.fd.h == 1e-3 and s.tolerance("div_invariance") == 1e-6
        echo = json.loads(emit_report(run_suite(s), "json"))["scenario"]
        assert echo["fields"] == [{"name": "shear", "params": {"rate": 3.0}}]
        assert echo["tolerances"] == {"div_invariance": 1e-6}
        # The float rule is the scenario loader's own.
        assert yaml.safe_load("1e-6") == "1e-6"

    def test_null_params_mean_no_params(self):
        s = parse_scenario(document(frames="[{name: identity, params: null}]",
                                    fields="[{name: uniform, params: null}]")
                           + "pressure: {name: gaussian_T, params: null}\n")
        assert s.frames == (("identity", {}),) and s.fields == (("uniform", {}),)
        assert s.pressure == ("gaussian_T", {})


def document(frames="[identity]", fields="[uniform]", checks="[div_invariance]"):
    """A whole scenario document: MINIMAL with one of its lists replaced."""
    return f"frames: {frames}\nfields: {fields}\nchecks: {checks}\n"


def nested_aliases(levels=9):
    """A flow list of anchored lists, each holding ten aliases of the one
    before: about 60 bytes a level, and 10**levels numbers once expanded."""
    lists = ["&a0 [" + ", ".join(["1.0"] * 10) + "]"]
    lists += [f"&a{k} [" + ", ".join([f"*a{k - 1}"] * 10) + "]" for k in range(1, levels)]
    return "[" + ", ".join(lists) + "]"


# Whole documents.  A case that breaks one of MINIMAL's own keys replaces it
# rather than repeating it, since a repeated key is an error of its own.
MALFORMED = {case: MINIMAL + tail for case, tail in {
    "non_numeric_tolerance": "tolerances: {div_invariance: abc}\n",
    "non_numeric_fd_step": "fd: {h: abc}\n",
    "boolean_samples": "samples: true\n",
    "too_many_samples": "samples: 1000001\n",
    "fractional_fd_order": "fd: {order: 4.7}\n",
    "nan_tolerance": "tolerances: {div_invariance: .nan}\n",
    "negative_tolerance": "tolerances: {div_invariance: -1.0e-6}\n",
    "short_gravity_vector": "material: {g: [0, 1]}\n",
    "flow_as_pressure": "pressure: {name: taylor_green}\n",
    "huge_box": "box: [-1.0e308, 1.0e308]\n",
    "mapping_as_pressure_name": "pressure: {name: {a: 1}}\n",
    "yaml_syntax_error": "box: [0, 1\n",
    "yaml_control_character": "box: \"\x01\"\n",
    "duplicate_key": "samples: 5\nsamples: 7\n",
    "duplicate_nested_key": "fd: {h: 1.0e-3, order: 2, h: 2.0e-3}\n",
    "unhashable_key": "? [1, 2]\n: 3\n",
    "fd_order_three": "fd: {order: 3}\n",
    "false_pressure_params": "pressure: {name: gaussian_T, params: false}\n",
    "boolean_pressure_param": "pressure: {name: gaussian_T, params: {width: yes}}\n",
    "boolean_box": "box: [no, yes]\n",
    "self_containing_box": "box: &box [*box, 1]\n",
    "self_containing_box_at_its_end": "box: &b [0.0, *b]\n",
    "nested_aliases_box": f"box: {nested_aliases()}\n",
    # A quoted number is a string wherever a number is expected.
    "quoted_fd_step": "fd: {h: '1.0e-3'}\n",
    "quoted_box_bound": "box: ['-1', 1]\n",
    "quoted_tolerance": "tolerances: {div_invariance: '1e-6'}\n",
    "quoted_viscosity": "material: {mu: '1.0'}\n",
    "quoted_gravity_entry": "material: {g: [0, 0, '-9.81']}\n",
    "quoted_pressure_param": "pressure: {name: gaussian_T, params: {width: '0.8'}}\n",
    # Bytes, which float() would read as a number; in params they would
    # reach the report, which JSON cannot write.
    "binary_tolerance": "tolerances: {div_invariance: !!binary MQ==}\n",
    # Steps whose stencil reaches past the largest float: x + 2h at order 4.
    "fd_step_reach_overflowing": "fd: {h: 1.0e+308}\n",
    "fd_time_step_reach_overflowing": "fd: {ht: 1.0e+308}\n",
}.items()} | {
    "non_numeric_frame_rate": document(
        frames="[{name: constant_rotation, params: {axis: [0, 0, 1], rate: abc}}]"),
    "nan_frame_rate": document(
        frames="[{name: constant_rotation, params: {axis: [0, 0, 1], rate: .nan}}]"),
    "infinite_shear_rate": document(fields="[{name: shear, params: {rate: .inf}}]"),
    # Finite at x = 0, t = 0, so only the parse-time walk of params rejects it.
    "inf_param": document(fields="[{name: gaussian_T, params: {width: .inf}}]"),
    "empty_angle_polynomial": document(
        frames="[{name: wobble, params: {angles_x: [0.0], angles_y: [0.0], angles_z: []}}]"),
    "list_as_frame_name": document(frames="[{name: [screw]}]"),
    "list_as_check_id": document(checks="[[div_invariance]]"),
    "false_frame_params": document(frames="[{name: identity, params: false}]"),
    "zero_frame_params": document(frames="[{name: identity, params: 0}]"),
    "empty_list_field_params": document(fields="[{name: uniform, params: []}]"),
    "empty_string_field_params": document(fields="[{name: uniform, params: ''}]"),
    "yes_as_frame_rate": document(
        frames="[{name: constant_rotation, params: {axis: [0, 0, 1], rate: yes}}]"),
    "boolean_field_velocity": document(
        fields="[{name: uniform, params: {velocity: [true, 0, 0]}}]"),
    # A mapping iterates as its keys, so the catalog would read true as 1.
    "boolean_coefficient_key": document(
        frames="[{name: accelerated_translation, params: {coeffs: {true: 0, 2: 0, 3: 0}}}]"),
    # A mapping of numbers, which would run as the coefficients 1, 2, 3.
    "mapping_of_coefficients": document(
        frames="[{name: accelerated_translation, params: {coeffs: {1: 2, 2: 3, 3: 4}}}]"),
    "self_containing_field_velocity": document(
        fields="[{name: uniform, params: {velocity: &v [*v, 0, 0]}}]"),
    "nested_aliases_field_velocity": document(
        fields=f"[{{name: uniform, params: {{velocity: {nested_aliases()}}}}}]"),
    # Values that contain themselves, after a number: the walk stops at its budget.
    "self_containing_field_velocity_at_its_end": document(
        fields="[{name: uniform, params: {velocity: &v [1.0, *v]}}]"),
    "self_containing_coefficient_mapping": document(
        frames="[{name: accelerated_translation, params: {coeffs: &c {1: [0.0, *c]}}}]"),
    "quoted_frame_rate": document(
        frames="[{name: constant_rotation, params: {axis: [0, 0, 1], rate: '0.5'}}]"),
    "quoted_angle_coefficient": document(
        frames="[{name: wobble, params: {angles_x: '0.5', angles_y: [0], angles_z: [0]}}]"),
    "quoted_axis_coefficient": document(
        frames="[{name: accelerated_translation, params: {coeffs: [['1', 2], [0], [0]]}}]"),
    "quoted_field_velocity": document(fields="[{name: uniform, params: {velocity: ['1', 0, 0]}}]"),
    "binary_frame_rate": document(
        frames="[{name: constant_rotation, params: {axis: [0, 0, 1], rate: !!binary MQ==}}]"),
    # Finite params whose field is not finite where the parse probes it.
    "underflowing_gaussian_width": document(
        fields="[{name: gaussian_T, params: {width: 1.0e-200}}]"),
    # Finite params whose frame is finite at t = 0 but not over the time
    # window [0, 1]: at its end, and only where a rate or the trajectory peaks.
    "angle_rate_overflowing_in_window": document(
        frames="[{name: wobble, params: {angles_x: [0.0, 0.0, 1.0e174], "
               "angles_y: [0.3, 0.7], angles_z: [0.0, 1.1]}}]"),
    "angle_rate_overflowing_at_its_peak": document(
        frames="[{name: wobble, params: {angles_x: [0.0, 0.0, 2.0e160, -1.3333333333333333e160], "
               "angles_y: [0.0], angles_z: [0.0]}}]"),
    "trajectory_overflowing_at_its_peak": document(
        frames="[{name: accelerated_translation, "
               "params: {coeffs: [[1.7e308, 4.0e307, -4.0e307], [0.0], [0.0]]}}]"),
    # Finite params whose frame is finite over [0, 1] but not at every time
    # a check reads it: the time stencil reaches 2 ht past the window.
    "trajectory_overflowing_in_time_stencil_reach": document(
        frames="[{name: uniform_translation, params: {velocity: [1.0e306, 0, 0]}}]",
        fields="[taylor_green]", checks="[acceleration_decomposition]") + "fd: {ht: 1000.0}\n",
    "angles_overflowing_in_time_stencil_reach": document(
        frames="[{name: wobble, params: {angles_x: [0.0, 0.9, 0.4, 0.0], "
               "angles_y: [0.3, 0.7, 0.0, 0.2], angles_z: [0.0, 1.1, -0.3, 0.0]}}]",
        fields="[taylor_green]", checks="[acceleration_decomposition]") + "fd: {ht: 1.0e300}\n",
    # Finite params within the bound's headroom of the largest float: the
    # trajectory's rate, and primed stencil points far from the origin, by a
    # large step or a box near the float range's end.
    "velocity_within_headroom_of_overflow": document(
        frames="[{name: uniform_translation, params: {velocity: [1.0e308, 0, 0]}}]")
        + "fd: {h: 5.0e+307}\n",
    "box_far_out_with_a_large_step": document()
        + "box: [1.0e+308, 1.5e+308]\nfd: {h: 5.0e+307}\n",
    "box_far_out_under_rotating_frames": document(
        frames="[{name: wobble, params: {angles_x: [0.0, 0.9], angles_y: [0.3, 0.7], "
               "angles_z: [0.0, 1.1]}}, {name: screw, params: {axis: [0, 0, 1], rate: 1.5, "
               "velocity: [0, 0, 0.6]}}]",
        fields="[taylor_green]", checks="[div_invariance, velgrad_relation]")
        + "box: [1.0e+307, 1.7e+308]\n",
    # Checks that apply to none of the fields: a pass of 0 triples would prove nothing.
    "no_check_applies": document(checks="[scalar_grad_invariance]"),
}

# What each case that the duplicate-key check could mask is rejected for:
# the documents that replace one of MINIMAL's keys, and an unhashable key,
# which the loader must still report as such; a false params value, which
# must not read as no params; and a boolean (YAML reads yes/no/on/off as one)
# where a number is expected, which must not read as 0 or 1.
OWN_REASON = {
    "non_numeric_frame_rate": "bad parameters for frame 'constant_rotation'",
    "nan_frame_rate": "bad parameters for frame 'constant_rotation'",
    "infinite_shear_rate": "bad parameters for field 'shear'",
    "inf_param": "bad parameters for field 'gaussian_T'",
    "empty_angle_polynomial": "bad parameters for frame 'wobble'",
    "list_as_frame_name": "unknown frame id ['screw']",
    "list_as_check_id": "unknown check id ['div_invariance']",
    "unhashable_key": "found unhashable key",
    "fd_order_three": "'fd.order' must be one of [2, 4]",
    "false_pressure_params": "'params' for field 'gaussian_T' must be a mapping",
    "false_frame_params": "'params' for frame 'identity' must be a mapping",
    "zero_frame_params": "'params' for frame 'identity' must be a mapping",
    "empty_list_field_params": "'params' for field 'uniform' must be a mapping",
    "empty_string_field_params": "'params' for field 'uniform' must be a mapping",
    "yes_as_frame_rate": "bad parameters for frame 'constant_rotation'",
    "boolean_field_velocity": "bad parameters for field 'uniform'",
    "boolean_coefficient_key": "bad parameters for frame 'accelerated_translation'",
    "mapping_of_coefficients": "expected polynomial coefficients for 3 axes, as a list",
    "boolean_pressure_param": "bad parameters for field 'gaussian_T'",
    "boolean_box": "'box' must be [lo, hi]",
    "nested_aliases_box": "'box' must be [lo, hi]",
    "nested_aliases_field_velocity":
        "bad parameters for field 'uniform': more than 64 numbers, lists and mappings",
    "self_containing_box": "'box' must be [lo, hi]",
    "self_containing_box_at_its_end": "'box' must be [lo, hi]",
    "self_containing_field_velocity":
        "bad parameters for field 'uniform': more than 64 numbers, lists and mappings",
    "self_containing_field_velocity_at_its_end":
        "bad parameters for field 'uniform': more than 64 numbers, lists and mappings",
    "self_containing_coefficient_mapping":
        "bad parameters for frame 'accelerated_translation': more than 64 numbers, lists and",
    "too_many_samples": "'samples' must be an integer >= 1 and <= 1,000,000, got 1000001",
    "quoted_fd_step": "'fd.h' must be a finite number > 0, got '1.0e-3'",
    "quoted_box_bound": "'box' must be [lo, hi]",
    "quoted_tolerance": "'tolerances.div_invariance' must be a finite number >= 0, got '1e-6'",
    "quoted_viscosity": "'material.mu' must be a finite number >= 0, got '1.0'",
    "quoted_gravity_entry": "'material.g' entry must be a finite number, got '-9.81'",
    "quoted_pressure_param": "bad parameters for field 'gaussian_T'",
    "quoted_frame_rate": "bad parameters for frame 'constant_rotation'",
    "quoted_angle_coefficient": "bad parameters for frame 'wobble'",
    "quoted_axis_coefficient": "bad parameters for frame 'accelerated_translation'",
    "quoted_field_velocity": "bad parameters for field 'uniform'",
    "underflowing_gaussian_width": "non-finite value at x = 0, t = 0",
    "angle_rate_overflowing_in_window": "bad parameters for frame 'wobble': non-finite entries",
    "angle_rate_overflowing_at_its_peak": "bad parameters for frame 'wobble': non-finite entries",
    "trajectory_overflowing_at_its_peak":
        "bad parameters for frame 'accelerated_translation': non-finite entries",
    "trajectory_overflowing_in_time_stencil_reach":
        "bad parameters for frame 'uniform_translation': non-finite entries",
    "angles_overflowing_in_time_stencil_reach": "bad parameters for frame 'wobble': non-finite",
    "velocity_within_headroom_of_overflow":
        "bad parameters for frame 'uniform_translation': non-finite",
    "box_far_out_with_a_large_step": "'box' and 'fd.h' put a primed stencil point of frame 'identity'",
    "box_far_out_under_rotating_frames": "'box' and 'fd.h' put a primed stencil point of frame 'wobble'",
    "fd_step_reach_overflowing":
        "finite-difference step h = 1e+308 reaches past the largest float at stencil order 4",
    "fd_time_step_reach_overflowing":
        "finite-difference step h_t = 1e+308 reaches past the largest float at stencil order 4",
    "binary_tolerance": "'tolerances.div_invariance' must be a finite number >= 0, got b'1'",
    "binary_frame_rate": "bad parameters for frame 'constant_rotation': parameter values must",
    "no_check_applies": "no check in 'checks' applies to a field in 'fields'",
}


class TestMalformedScenario:
    """Every malformed value is rejected at parse time with a one-line
    message and exit code 2, never a traceback or an error row."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_parse_rejects(self, case):
        with pytest.raises(ScenarioError):
            parse_scenario(MALFORMED[case])

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_exit_two_one_line(self, case, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(MALFORMED[case])
        assert main(["verify", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", sorted(OWN_REASON))
    def test_fails_for_its_own_reason(self, case):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MALFORMED[case])
        assert OWN_REASON[case] in str(err.value)
        assert "duplicate" not in str(err.value)

    @pytest.mark.parametrize("case, key", [("duplicate_key", "samples"),
                                           ("duplicate_nested_key", "h")])
    def test_duplicate_key_is_named(self, case, key):
        with pytest.raises(ScenarioError, match=f"found duplicate key '{key}'"):
            parse_scenario(MALFORMED[case])

    @pytest.mark.parametrize("case", ["nested_aliases_box", "nested_aliases_field_velocity"])
    def test_nested_aliases_stop_the_walk(self, case):
        # 10**9 values once expanded: the walk stops after the first 64, so
        # the parse takes about a millisecond, not minutes.
        start = time.perf_counter()
        with pytest.raises(ScenarioError):
            parse_scenario(MALFORMED[case])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("numbers, reason", [(62, "expected shape (3,), got (62,)"),
                                                 (63, "more than 64 numbers, lists and mappings")])
    def test_walk_stops_after_64_entries(self, numbers, reason):
        # The params' values are walked as one list: with the velocity list,
        # 62 numbers are 64 entries and reach the catalog; 63 are one too many.
        velocity = ", ".join(["0"] * numbers)
        with pytest.raises(ScenarioError, match=re.escape(reason)):
            parse_scenario(document(fields=f"[{{name: uniform, params: {{velocity: [{velocity}]}}}}]"))

    def test_merged_key_may_be_overridden(self):
        s = parse_scenario(document(frames=(
            "[{name: constant_rotation, params: &spin {axis: [0, 0, 1], rate: 2.0}},"
            " {name: screw, params: {<<: *spin, rate: 1.5, velocity: [0.6, 0, 0]}}]")))
        assert s.frames[1][1] == {"axis": [0, 0, 1], "rate": 1.5,
                                  "velocity": [0.6, 0, 0]}


# A null value keeps the default of these keys ...
NULL_IS_DEFAULT = ("box", "fd", "tolerances", "material", "pressure")
# ... and is an error for these.
NULL_IS_ERROR = ("samples", "seed", "frames", "fields", "checks")


@pytest.mark.parametrize("key", NULL_IS_DEFAULT + NULL_IS_ERROR)
def test_null_value(key, tmp_path, capsys):
    if key in ("frames", "fields", "checks"):
        text = document(**{key: "null"})
    else:
        text = MINIMAL + f"{key}: null\n"
    if key in NULL_IS_DEFAULT:
        assert parse_scenario(text) == parse_scenario(MINIMAL)
        return
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["verify", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"'{key}'" in captured.err


class TestRunSuite:
    def test_determinism_byte_identical(self):
        s = parse_scenario(MINIMAL + "seed: 42\nsamples: 10\n")
        r1, r2 = run_suite(s), run_suite(s)
        assert canonical_report_json(r1) == canonical_report_json(r2)

    def test_determinism_on_rotating_frames(self):
        s = parse_scenario(f"""
frames:
  - name: wobble
    params: {{angles_x: [0.0, 0.9, 0.4], angles_y: [0.3, 0.7], angles_z: [0.0, 1.1, -0.3]}}
  - name: screw
    params: {{axis: [0, 0, 1], rate: 1.5, velocity: [0.0, 0.0, 0.6]}}
fields:
  - name: taylor_green
    params: {{mod_amp: 0.3, mod_freq: 2.0}}
checks: [{", ".join(CHECK_IDS)}]
samples: 20
""")
        r1, r2 = run_suite(s), run_suite(s)
        assert len(r1.results) == 2 * (len(CHECK_IDS) - 1)   # no scalar check
        assert canonical_report_json(r1) == canonical_report_json(r2)

    def test_non_finite_residual_row_explains_itself(self):
        s = parse_scenario("""
frames: [identity]
fields:
  - name: shear
    params: {rate: 1.0e308}
checks: [div_invariance]
samples: 5
""")
        report = run_suite(s)
        row = json.loads(emit_report(report, "json"))["results"][0]
        assert row["status"] == "fail"
        assert row["max_abs_err"] is None
        message = "non-finite residual: the check's arithmetic overflowed"
        assert row["message"] == message
        assert f"\n    {message}\n" in emit_report(report, "table")

    def test_an_overflowed_mean_carries_the_message(self):
        # Each residual finite, but not their mean: the row says so as well.
        s = parse_scenario(document(fields="[{name: taylor_green, params: {mod_amp: 1.0e+308}}]",
                                    checks="[vorticity_relation]")
                           + "samples: 2\nfd: {h: 1.0e+300, order: 2}\n")
        row = json.loads(emit_report(run_suite(s), "json"))["results"][0]
        assert row["max_abs_err"] is not None and row["mean_abs_err"] is None
        assert row["message"] == "non-finite residual: the check's arithmetic overflowed"

    def test_overflow_rows_do_not_depend_on_the_warnings_filter(self):
        # An overflow is reported by its row, so a caller's -W error or
        # np.seterr(all="raise") must not turn that row into an "error" row:
        # an overflowing field (its FD strain rate and Newtonian stress too),
        # then a finite one whose Newtonian stress overflows.
        documents = {
            "fields: [{name: shear, params: {rate: 1.0e308}}]\n"
            "checks: [div_invariance, ns_rhs_equivalence, strain_rate_invariance,"
            " constitutive_invariance]\n": 4,
            "fields: [taylor_green]\nchecks: [constitutive_invariance]\n"
            "material: {mu: 1.0e308}\n": 1,
        }
        for text, rows in documents.items():
            s = parse_scenario(f"frames: [identity]\n{text}samples: 5\n")

            def report(numpy_policy, warnings_policy):
                with warnings.catch_warnings(), np.errstate(all=numpy_policy):
                    warnings.simplefilter(warnings_policy)
                    return run_suite(s)

            quiet = report("warn", "ignore")
            message = "non-finite residual: the check's arithmetic overflowed"
            assert [(r["status"], r["message"]) for r in quiet.results] == [("fail", message)] * rows
            for loud in (report("warn", "error"), report("raise", "ignore")):
                assert canonical_report_json(loud) == canonical_report_json(quiet)

    def test_scalar_checks_apply_to_scalar_fields_only(self):
        s = parse_scenario("""
frames: [identity]
fields: [uniform, gaussian_T]
checks: [div_invariance, scalar_grad_invariance]
samples: 5
""")
        rows = run_suite(s).results
        assert {(r["field"], r["check"]) for r in rows} == {
            ("uniform", "div_invariance"),
            ("gaussian_T", "scalar_grad_invariance")}

    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_every_check_runs_from_the_table(self, check_id):
        # One flow and one scalar field: each check applies to exactly one.
        s = parse_scenario(f"""
frames:
  - name: wobble
    params: {{angles_x: [0.0, 0.9], angles_y: [0.3, 0.7], angles_z: [0.0, 1.1]}}
fields: [taylor_green, gaussian_T]
checks: [{check_id}]
samples: 5
tolerances: {{{check_id}: 1.0e-3}}
""")
        rows = run_suite(s).results
        assert len(rows) == 1
        assert rows[0]["check"] == check_id
        assert rows[0]["status"] == "pass"
        assert rows[0]["samples"] == 5
        assert rows[0]["tol"] == 1e-3

    def test_each_row_is_its_public_check_called_directly(self):
        # The suite's dispatch: a row is the CheckResult of its check's public
        # function, given the field (none for a frame-only check), the needs,
        # the triple's generator and the scenario's box, fd, samples and tol.
        s = parse_scenario(f"""
frames:
  - identity
  - name: wobble
    params: {{angles_x: [0.0, 0.9], angles_y: [0.3, 0.7], angles_z: [0.0, 1.1]}}
fields: [taylor_green, gaussian_T]
checks: [{", ".join(CHECK_IDS)}]
box: [[-0.5, 0.5], [0.0, 1.0], [-2.0, -1.5]]
samples: 7
seed: 3
fd: {{h: 2.0e-4, order: 4}}
tolerances: {{velgrad_relation: 1.0e-3}}
material: {{mu: 0.7, rho: 1.2}}
pressure: linear_T
""")
        values = {"p_field": make_field(s.pressure[0], **s.pressure[1]),
                  "mu": s.material.mu,
                  "force": obj.BodyForce(g=np.asarray(s.material.g), rho=s.material.rho)}
        rows = run_suite(s).results
        assert len(rows) == len(s.frames) * len(CHECK_IDS)   # 8 on the flow, 1 on the scalar
        for row in rows:
            fi = [name for name, _ in s.frames].index(row["frame"])
            gi = [name for name, _ in s.fields].index(row["field"])
            ci = s.checks.index(row["check"])
            (fname, fparams), (gname, gparams) = s.frames[fi], s.fields[gi]
            spec = obj.CHECKS[row["check"]]
            field = make_field(gname, **gparams)
            res = getattr(obj, spec.function)(
                make_frame(fname, **fparams), *([field] if spec.field else []),
                *(values[name] for name in spec.needs), box=s.box, fd=s.fd,
                samples=s.samples, rng=np.random.default_rng([s.seed, fi, gi, ci]),
                tol=s.tolerance(row["check"]))
            assert res.check_id == row["check"]
            assert {k: row[k] for k in ("samples", "max_abs_err", "mean_abs_err", "tol",
                                        "witness", "status")} == {
                "samples": res.samples, "max_abs_err": res.max_abs_err,
                "mean_abs_err": res.mean_abs_err, "tol": res.tol, "witness": res.witness,
                "status": "pass" if res.passed else "fail"}

    def test_failure_path_with_unreachable_tolerance(self):
        s = parse_scenario("""
frames:
  - name: wobble
    params: {angles_x: [0.0, 0.9], angles_y: [0.0], angles_z: [0.0, 1.1]}
fields: [taylor_green]
checks: [velgrad_relation]
samples: 10
tolerances: {velgrad_relation: 1.0e-18}
""")
        report = run_suite(s)
        assert not report.passed
        row = report.results[0]
        assert row["status"] == "fail"
        assert row["max_abs_err"] > 1e-18

    def test_construction_errors_raise_before_any_triple(self):
        s = parse_scenario(MINIMAL + "samples: 5\n")
        with pytest.raises(ScenarioError, match="bad parameters for field 'gaussian_T'"):
            # construction errors surface when the Scenario is made, before any triple
            dataclasses.replace(s, fields=(("gaussian_T", {"width": -1.0}),),
                                checks=("scalar_grad_invariance",))

    def test_a_raising_check_gives_one_error_row(self, monkeypatch):
        s = parse_scenario(document(
            frames="[identity, {name: uniform_translation, params: {velocity: [1, 0, 0]}}]",
            checks="[div_invariance, velgrad_relation]")
            + "samples: 5\ntolerances: {div_invariance: 1.0e-7}\n")
        clean = json.loads(emit_report(run_suite(s), "json"))["results"]
        check = obj.check_divergence_invariance

        def raising(frame, *args, **kwargs):
            if frame.name == "uniform_translation":
                raise InvariantViolationError("alpha is not a rotation")
            return check(frame, *args, **kwargs)

        monkeypatch.setattr(obj, "check_divergence_invariance", raising)
        report = json.loads(emit_report(run_suite(s), "json"))
        assert report["suite_verdict"] == "fail"
        assert len(report["results"]) == len(clean) == 4
        for row, before in zip(report["results"], clean):
            if (row["frame"], row["check"]) != ("uniform_translation", "div_invariance"):
                assert row == before
                continue
            assert row == {"frame": "uniform_translation", "field": "uniform",
                           "check": "div_invariance", "samples": 0, "max_abs_err": None,
                           "mean_abs_err": None, "tol": 1e-7, "witness": None,
                           "status": "error",
                           "message": "InvariantViolationError: alpha is not a rotation"}

    def test_a_check_raising_on_one_field_gives_that_triple_its_error_row(self, monkeypatch):
        # The check runs once per frame on all three flows, which raises; each
        # flow is then run alone, and only shear's triples get an error row.
        s = parse_scenario(document(
            frames="[identity, {name: uniform_translation, params: {velocity: [1, 0, 0]}}]",
            fields="[uniform, shear, taylor_green]",
            checks="[div_invariance, velgrad_relation]") + "samples: 5\n")
        clean = json.loads(emit_report(run_suite(s), "json"))["results"]
        check, groups = obj.check_velocity_gradient_relation, []

        def raising(frame, fields, *args, **kwargs):
            names = [f.name for f in (fields if isinstance(fields, list) else [fields])]
            groups.append(names)
            if "shear" in names:
                raise InvariantViolationError("shear is refused")
            return check(frame, fields, *args, **kwargs)

        monkeypatch.setattr(obj, "check_velocity_gradient_relation", raising)
        report = json.loads(emit_report(run_suite(s), "json"))
        assert groups == [["uniform", "shear", "taylor_green"],
                          ["uniform"], ["shear"], ["taylor_green"]] * 2
        assert report["suite_verdict"] == "fail"
        assert len(report["results"]) == len(clean) == 12
        for row, before in zip(report["results"], clean):
            if (row["field"], row["check"]) != ("shear", "velgrad_relation"):
                assert row == before
                continue
            assert row == {**{k: before[k] for k in ("frame", "field", "check", "tol")},
                           "samples": 0, "max_abs_err": None, "mean_abs_err": None,
                           "witness": None, "status": "error",
                           "message": "InvariantViolationError: shear is refused"}

    def test_a_group_holds_at_most_group_samples(self, monkeypatch):
        # Five flows at 100 samples: one call of all five, or, with room for
        # 250 samples a call, calls of 2, 2 and 1 flows, or, with room for
        # fewer than 100, one flow a call; the same report bytes.
        s = parse_scenario(document(
            fields="[uniform, shear, rigid_rotation, taylor_green, poly_linear]")
            + "samples: 100\n")
        check, sizes = obj.check_divergence_invariance, []

        def recording(frame, fields, *args, rng, **kwargs):
            sizes.append(len(rng))
            return check(frame, fields, *args, rng=rng, **kwargs)

        monkeypatch.setattr(obj, "check_divergence_invariance", recording)
        whole = canonical_report_json(run_suite(s))
        monkeypatch.setattr(fs, "GROUP_SAMPLES", 250)
        assert canonical_report_json(run_suite(s)) == whole
        monkeypatch.setattr(fs, "GROUP_SAMPLES", 99)
        assert canonical_report_json(run_suite(s)) == whole
        assert sizes == [5, 2, 2, 1, 1, 1, 1, 1, 1]

    def test_suite_verdict_matches_rows(self):
        s = parse_scenario(MINIMAL + "samples: 5\n")
        report = run_suite(s)
        assert report.passed == all(r["status"] == "pass" for r in report.results)


class TestEmitReport:
    def run_small(self):
        return run_suite(parse_scenario(MINIMAL + "samples: 5\n"))

    def test_json_round_trip_preserves_residuals(self):
        report = self.run_small()
        parsed = json.loads(emit_report(report, format="json"))
        for row, orig in zip(parsed["results"], report.results):
            assert row["max_abs_err"] == orig["max_abs_err"]
            assert row["mean_abs_err"] == orig["mean_abs_err"]

    def test_json_has_stable_key_order(self):
        report = self.run_small()
        assert emit_report(report, "json") == emit_report(report, "json")
        keys = list(json.loads(emit_report(report, "json")))
        assert keys == ["version", "scenario", "results", "suite_verdict",
                        "wall_time_s"]

    def test_empty_report_valid_json(self):
        empty = Report(scenario={}, results=(), passed=True, wall_time_s=0.0)
        parsed = json.loads(emit_report(empty, format="json"))
        assert parsed["results"] == []
        assert parsed["suite_verdict"] == "pass"

    @staticmethod
    def one_row_report(scenario=None, **values):
        row = {"frame": "identity", "field": "shear", "check": "div_invariance",
               "samples": 1, "max_abs_err": 0.0, "mean_abs_err": 0.0, "tol": 1e-6,
               "witness": None, "status": "fail"} | values
        return Report(scenario=scenario or {}, results=(row,), passed=False,
                      wall_time_s=0.0)

    def test_non_finite_residual_is_null(self):
        # Built directly: running an overflowing scenario under
        # -W error::RuntimeWarning would give an error row instead.
        report = self.one_row_report(scenario={"box": [(float("nan"), 1.0)]},
                                     max_abs_err=float("nan"), mean_abs_err=float("inf"))
        for text in (emit_report(report, "json"), canonical_report_json(report)):
            parsed = json.loads(text)
            assert parsed["results"][0]["max_abs_err"] is None
            assert parsed["results"][0]["mean_abs_err"] is None
            assert parsed["scenario"]["box"] == [[None, 1.0]]

    def test_float_text_is_its_repr(self):
        # The shortest text that reads back as the same float.
        text = emit_report(self.one_row_report(tol=1e-6, max_abs_err=-1.0), "json")
        assert '\n      "tol": 1e-06,\n' in text
        assert '\n      "max_abs_err": -1.0,\n' in text

    def test_unknown_format_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown report format 'xml'"):
            emit_report(self.one_row_report(), "xml")

    def test_table_contains_verdict_row(self):
        text = emit_report(self.run_small(), format="table")
        assert "pass" in text and "div_invariance" in text

    def test_canonical_form_excludes_wall_time(self):
        report = self.run_small()
        assert "wall_time_s" not in canonical_report_json(report)
        assert "wall_time_s" in emit_report(report, "json")


class TestCli:
    def write_scenario(self, tmp_path, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, MINIMAL + "samples: 5\n")
        assert main(["verify", "--scenario", path]) == 0
        assert "pass" in capsys.readouterr().out

    def test_exit_one_on_failure(self, tmp_path):
        path = self.write_scenario(tmp_path, """
frames: [identity]
fields: [taylor_green]
checks: [div_invariance]
samples: 5
tolerances: {div_invariance: 1.0e-30}
""")
        assert main(["verify", "--scenario", path]) == 1

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, MINIMAL + "samples: 0\n")
        assert main(["verify", "--scenario", path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--samples", "0"],
                                      ["--samples", "1000001"]])
    def test_exit_two_on_bad_override(self, flag, tmp_path, capsys):
        path = self.write_scenario(tmp_path, MINIMAL)
        assert main(["verify", "--scenario", path] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_exit_two_on_missing_file(self, tmp_path):
        assert main(["verify", "--scenario", str(tmp_path / "nope.yaml")]) == 2

    def test_exit_two_on_a_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        assert main(["verify", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "UTF-8" in captured.err

    def test_seed_and_samples_overrides(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, MINIMAL)
        assert main(["verify", "--scenario", path, "--seed", "7",
                     "--samples", "3", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["scenario"]["seed"] == 7
        assert parsed["scenario"]["samples"] == 3

    def test_out_file(self, tmp_path):
        path = self.write_scenario(tmp_path, MINIMAL + "samples: 3\n")
        out = tmp_path / "report.json"
        assert main(["verify", "--scenario", path, "--out", str(out),
                     "--format", "json"]) == 0
        assert json.loads(out.read_text())["suite_verdict"] == "pass"

    def test_list_enumerates_catalogs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for check_id in CHECK_IDS:
            assert check_id in out
        assert "wobble" in out and "taylor_green" in out

    def test_cli_determinism(self, tmp_path):
        path = self.write_scenario(tmp_path, MINIMAL + "samples: 5\nseed: 3\n")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--scenario", path, "--out", str(out1), "--format", "json"])
        main(["verify", "--scenario", path, "--out", str(out2), "--format", "json"])
        strip = lambda p: "\n".join(l for l in p.read_text().splitlines()
                                    if "wall_time_s" not in l)
        assert strip(out1) == strip(out2)


class TestScenarioIsBuilt:
    """A Scenario builds and checks its frames and fields once, when it is made."""

    # The documents that overflowed a primed stencil point in a run, as a library
    # caller writes them: each gave an 'error' row before the Scenario checked itself.
    PRIMED_OVERFLOWS = [
        dict(frames=(("uniform_translation", {"velocity": [1.0e308, 0.0, 0.0]}),),
             fd=fs.FdConfig(h=5.0e307)),
        dict(frames=(("uniform_translation", {"velocity": [1.0e308, 0.0, 0.0]}),),
             fd=fs.FdConfig(h=1.0e308, order=2)),
        dict(frames=(("identity", {}),), box=((1.0e308, 1.5e308),) * 3,
             fd=fs.FdConfig(h=5.0e307)),
    ]

    @pytest.mark.parametrize("case", range(len(PRIMED_OVERFLOWS)))
    def test_a_library_scenario_is_checked(self, case):
        with pytest.raises(ScenarioError, match="non-finite|primed stencil point"):
            fs.Scenario(**self.PRIMED_OVERFLOWS[case], fields=(("uniform", {}),),
                        checks=("div_invariance",))

    def test_one_parse_and_run_builds_each_entry_once(self, monkeypatch):
        built = {"frame": 0, "field": 0}
        for noun, catalog in (("frame", fs.FRAME_CATALOG), ("field", fs.FIELD_CATALOG)):
            for name, make in list(catalog.items()):
                def counted(*args, noun=noun, make=make, **kwargs):
                    built[noun] += 1
                    return make(*args, **kwargs)
                monkeypatch.setitem(catalog, name, counted)
        s = fs.load_scenario(Path(__file__).parent.parent / "scenarios" / "full_matrix.yaml")
        assert run_suite(s).passed
        assert built == {"frame": len(s.frames), "field": len(s.fields) + 1} == {
            "frame": 6, "field": 8}

    def test_a_scenario_run_twice_gives_the_same_report(self):
        # Its frames, and so their memos, outlive one run.
        s = parse_scenario(document(
            frames="[identity, {name: wobble, params: {angles_x: [0.0, 0.9], "
                   "angles_y: [0.3, 0.7], angles_z: [0.0, 1.1]}}]",
            fields="[taylor_green, gaussian_T]",
            checks="[div_invariance, scalar_grad_invariance, acceleration_decomposition]")
            + "samples: 7\n")
        first = canonical_report_json(run_suite(s))
        assert canonical_report_json(run_suite(s)) == first
        again = parse_scenario(yaml.safe_dump(fs._echo(s)))
        assert canonical_report_json(run_suite(again)) == first


class TestOnePath:
    """A Scenario made in Python is read as a document is: the same rules, the
    same one-line ScenarioError, the same stored form."""

    LIBRARY = dict(frames=(("identity", {}),), fields=(("uniform", {}),),
                   checks=("div_invariance",))
    # Each ended in a bare exception, an 'error' row, a silent accept or a report
    # that JSON could not write before the Scenario read its own fields.
    REFUSED = {
        "zero_samples": dict(samples=0),
        "string_samples": dict(samples="5"),
        "string_tolerance": dict(tolerances={"div_invariance": "abc"}),
        "unknown_tolerance": dict(tolerances={"nope": 1.0}),
        "reversed_box": dict(box=((1.0, -1.0),) * 3),
        "negative_seed": dict(seed=-1),
        "fractional_seed": dict(seed=1.5),
        "string_viscosity": dict(material=fs.Material(mu="x")),
        "unknown_check": dict(checks=("nope",)),
        "no_frames": dict(frames=()),
        "array_param": dict(frames=(("constant_rotation",
                                     {"axis": np.array([0.0, 0.0, 1.0]), "rate": 2.0}),)),
        "array_box": dict(box=np.array([-1.0, 1.0])),
        "array_gravity": dict(material=fs.Material(g=np.array([0.0, 0.0, -9.81]))),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_when_made(self, case):
        with pytest.raises(ScenarioError) as err:
            fs.Scenario(**{**self.LIBRARY, **self.REFUSED[case]})
        assert len(str(err.value).splitlines()) == 1

    # A value in a document's form, and the document line that gives it (none:
    # MINIMAL's own frames).
    DOCUMENT_FORMS = [(dict(frames=("identity",)), ""),
                      (dict(box=(-1.0, 1.0)), "box: [-1.0, 1.0]\n"),
                      (dict(fd={"h": 1e-3}), "fd: {h: 1.0e-3}\n"),
                      (dict(material={"mu": 1.0}), "material: {mu: 1.0}\n"),
                      (dict(pressure="gaussian_T"), "pressure: gaussian_T\n")]

    @pytest.mark.parametrize("value, line", DOCUMENT_FORMS)
    def test_a_document_form_is_read_as_the_document(self, value, line):
        assert fs.Scenario(**{**self.LIBRARY, **value}) == parse_scenario(MINIMAL + line)

    @pytest.mark.parametrize("name", ["minimal.yaml", "full_matrix.yaml"])
    def test_a_stored_scenario_reads_as_itself(self, name):
        s = fs.load_scenario(Path(__file__).parent.parent / "scenarios" / name)
        assert dataclasses.replace(s) == s

    def test_tolerances_are_stored_sorted(self):
        s = fs.Scenario(**self.LIBRARY, tolerances={"velgrad_relation": 1, "div_invariance": 2.0})
        assert list(s.tolerances.items()) == [("div_invariance", 2.0), ("velgrad_relation", 1.0)]

    @pytest.mark.parametrize("rate, plain", [(np.int64(2), 2), (np.float32(2.0), 2.0)])
    def test_a_numpy_scalar_param_reports_as_its_python_number(self, rate, plain):
        def emitted(value):
            s = fs.Scenario(**{**self.LIBRARY, "samples": 5, "frames": (
                ("constant_rotation", {"axis": [0, 0, 1], "rate": value}),)})
            return emit_report(dataclasses.replace(run_suite(s), wall_time_s=0.0), "json")
        assert emitted(rate) == emitted(plain)

    @pytest.mark.parametrize("rate, plain", [(np.int64(2), 2), (np.float32(2.0), 2.0),
                                             (np.longdouble(2.0), 2.0)])
    def test_a_numpy_scalar_is_stored_as_its_python_number(self, rate, plain):
        """The Scenario keeps Python numbers, so its report's scenario is plain data
        that json and yaml's safe dumper write as they would the plain value's."""
        def suite(value, order):
            return run_suite(fs.Scenario(**{
                **self.LIBRARY, "samples": 5, "fd": {"order": order},
                "frames": (("constant_rotation", {"axis": [np.int64(0), 0, 1], "rate": value}),),
                "checks": (np.str_("div_invariance"),)}))
        report, expected = suite(rate, np.int64(2)), suite(plain, 2)
        assert json.dumps(report.scenario) == json.dumps(expected.scenario)
        assert yaml.safe_dump(report.scenario) == yaml.safe_dump(expected.scenario)
        assert (emit_report(dataclasses.replace(report, wall_time_s=0.0), "json")
                == emit_report(dataclasses.replace(expected, wall_time_s=0.0), "json"))
