"""Per-check behavior: invariance residuals, variance corrections,
stress/traction machinery, constitutive laws."""

import importlib.util
import inspect
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings, strategies as st

from framekit import (AngularVelocity, BodyForce, FlowField, InvariantViolationError,
                      RigidFrameMotion, ScalarField, UsageError,
                      cauchy_traction,
                      make_field, make_frame, map_position_to_prime,
                      newtonian_stress, omega_from_alpha, parse_scenario,
                      pull_back_velocity, run_suite)
from framekit import diffops, objectivity as obj, scenario as fs
from framekit import tensor_core as tc

from conftest import builtin_flows, builtin_frames, builtin_scalars


def seeded():
    return np.random.default_rng(99)


class TestDivergenceInvariance:
    def test_taylor_green_under_wobble(self):
        r = obj.check_divergence_invariance(
            builtin_frames()["wobble"], builtin_flows()["taylor_green"],
            rng=seeded())
        assert r.passed and r.max_abs_err <= 1e-6

    def test_poly_linear_under_rotation_div_three(self):
        frame = builtin_frames()["constant_rotation"]
        flow = make_field("poly_linear")
        observed = pull_back_velocity(frame, flow)
        xp = map_position_to_prime(frame, np.array([0.3, -0.2, 0.5]), 0.7)
        div_obs = diffops.divergence(diffops.fd_jacobian(observed, xp, 0.7))
        assert div_obs == pytest.approx(3.0, abs=1e-9)

    def test_identity_frame_fd_noise_only(self):
        r = obj.check_divergence_invariance(
            make_frame("identity"), builtin_flows()["taylor_green"],
            rng=seeded())
        assert r.max_abs_err <= 1e-10


class TestScalarGradientInvariance:
    def test_linear_scalar_any_frame(self):
        r = obj.check_scalar_gradient_invariance(
            builtin_frames()["wobble"], builtin_scalars()["linear_T"],
            rng=seeded())
        assert r.max_abs_err <= 1e-11   # affine: stencils are exact

    def test_constant_scalar_both_gradients_zero(self):
        constant = make_field("linear_T", coeffs=[0.0, 0.0, 0.0], offset=5.0)
        r = obj.check_scalar_gradient_invariance(
            builtin_frames()["constant_rotation"], constant, rng=seeded())
        assert r.max_abs_err <= 1e-12

    def test_gaussian_under_screw(self):
        r = obj.check_scalar_gradient_invariance(
            builtin_frames()["screw"], builtin_scalars()["gaussian_T"],
            samples=100, rng=seeded())
        assert r.passed


class TestVelocityGradientRelation:
    def test_identity_frame_zero_correction(self):
        frame = make_frame("identity")
        assert np.max(np.abs(obj.velocity_gradient_correction(frame, 0.5))) == 0.0
        r = obj.check_velocity_gradient_relation(
            frame, builtin_flows()["taylor_green"], rng=seeded())
        assert r.passed and r.witness == 0.0

    def test_uniform_flow_rotating_frame_exact_cancellation(self):
        # grad v = 0, so the observed gradient equals minus the correction
        frame = builtin_frames()["constant_rotation"]
        flow = make_field("uniform", velocity=[1.0, 0, 0])
        observed = pull_back_velocity(frame, flow)
        t = 0.6
        alpha = frame.alpha(t)
        xp = map_position_to_prime(frame, np.array([0.2, 0.4, -0.1]), t)
        j_obs = diffops.fd_jacobian(observed, xp, t)
        corr = obj.velocity_gradient_correction(frame, t)
        assert np.max(np.abs(alpha @ j_obs @ alpha.T + corr)) <= 1e-10

    def test_wobble_taylor_green_variance_witnessed(self):
        r = obj.check_velocity_gradient_relation(
            builtin_frames()["wobble"], builtin_flows()["taylor_green"],
            rng=seeded())
        assert r.passed
        assert r.witness > 0.1

    def test_correction_is_minus_spin(self):
        # correction = alpha alpha_dot^T = -(alpha_dot alpha^T), rotational
        # content 2*omega
        frame = builtin_frames()["wobble"]
        t = 0.8
        corr = obj.velocity_gradient_correction(frame, t)
        omega = omega_from_alpha(frame, t).omega
        assert np.allclose(corr, tc.skew(-omega), atol=1e-12)
        assert np.allclose(diffops.curl(corr), 2 * omega, atol=1e-12)


class TestStrainRateInvariance:
    def test_shear_under_rotation_matches_transform(self):
        # oracle: transform_tensor2 of the hand-computed strain rate
        frame = builtin_frames()["constant_rotation"]
        flow = make_field("shear", rate=3.0)
        observed = pull_back_velocity(frame, flow)
        t = 0.45
        s_hand = np.zeros((3, 3))
        s_hand[0, 1] = s_hand[1, 0] = 1.5
        xp = map_position_to_prime(frame, np.array([0.3, 0.2, 0.0]), t)
        s_obs = diffops.strain_rate(diffops.fd_jacobian(observed, xp, t))
        assert np.max(np.abs(s_obs - tc.transform_tensor2(s_hand, frame.alpha(t)))) <= 1e-10

    def test_rigid_rotation_zero_strain_any_frame(self):
        r = obj.check_strain_rate_invariance(
            builtin_frames()["wobble"], builtin_flows()["rigid_rotation"],
            rng=seeded())
        assert r.max_abs_err <= 1e-9

    def test_identity_frame(self):
        r = obj.check_strain_rate_invariance(
            make_frame("identity"), builtin_flows()["taylor_green"],
            rng=seeded())
        assert r.max_abs_err <= 1e-10


class TestVorticityRelation:
    def test_corotating_rigid_rotation(self):
        # curl v = 2*Omega; observed curl is 0; correction supplies 2*omega
        r = obj.check_vorticity_relation(
            builtin_frames()["constant_rotation"],
            builtin_flows()["rigid_rotation"], rng=seeded())
        assert r.passed
        assert r.witness == pytest.approx(4.0, abs=1e-12)

    def test_irrotational_flow_sees_minus_two_omega(self):
        frame = builtin_frames()["constant_rotation"]
        flow = make_field("uniform", velocity=[1.0, 0, 0])
        observed = pull_back_velocity(frame, flow)
        t = 0.3
        omega = omega_from_alpha(frame, t).omega
        xp = map_position_to_prime(frame, np.array([0.5, -0.5, 0.2]), t)
        curl_obs = diffops.curl(diffops.fd_jacobian(observed, xp, t))
        assert np.allclose(frame.alpha(t) @ curl_obs, -2 * omega, atol=1e-10)

    def test_identity_frame_reduces_to_consistency(self):
        r = obj.check_vorticity_relation(
            make_frame("identity"), builtin_flows()["taylor_green"],
            rng=seeded())
        assert r.max_abs_err <= 1e-10 and r.witness == 0.0


class TestCauchyTraction:
    def test_coordinate_face_gives_column(self):
        tau = np.arange(9.0).reshape(3, 3)
        assert np.allclose(cauchy_traction(tau, [1, 0, 0]), tau[:, 0])

    def test_isotropic_stress(self):
        tau = -2.5 * np.eye(3)
        n = np.array([1.0, 2.0, 2.0]) / 3.0
        assert np.allclose(cauchy_traction(tau, n), -2.5 * n)

    def test_tau21_face_definition(self):
        tau = np.zeros((3, 3))
        tau[1, 0] = 5.0
        assert np.array_equal(cauchy_traction(tau, [1, 0, 0]), [0.0, 5.0, 0.0])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(UsageError):
            cauchy_traction(np.eye(3), [1.0, 1.0, 0.0])

    def test_slightly_non_unit_normal_normalized_with_warning(self):
        n = np.array([1.0 + 5e-7, 0.0, 0.0])
        with pytest.warns(UserWarning):
            t = cauchy_traction(2 * np.eye(3), n)
        assert np.allclose(t, [2.0, 0.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("tau", [np.eye(3), np.zeros((0, 3, 3))])
    def test_empty_batch_of_normals_gives_no_tractions(self, tau):
        # As every other transform does for an empty batch.
        assert cauchy_traction(tau, np.zeros((0, 3))).shape == (0, 3)


class TestStressTransform:
    @pytest.mark.parametrize("tau, alpha", [(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))),
                                            (np.eye(3), np.zeros((0, 3, 3))),
                                            (np.zeros((0, 3, 3)), np.eye(3))],
                             ids=["both", "no-alpha", "no-tau"])
    def test_empty_stack_is_refused_in_one_line(self, tau, alpha):
        # A residual over no samples has no maximum.
        with pytest.raises(UsageError, match="at least one") as refused:
            obj.check_stress_tensor_transform(tau, alpha)
        assert "\n" not in str(refused.value)

    def test_identity_rotation_zero_residual(self):
        tau = np.arange(9.0).reshape(3, 3)
        r = obj.check_stress_tensor_transform(tau, np.eye(3))
        assert r.max_abs_err == 0.0

    def test_diagonal_under_rz90(self):
        c, s = 0.0, 1.0
        alpha = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        tau = np.diag([1.0, 2.0, 3.0])
        r = obj.check_stress_tensor_transform(tau, alpha)
        assert r.passed
        assert np.allclose(tc.transform_tensor2(tau, alpha),
                           np.diag([2.0, 1.0, 3.0]), atol=1e-15)

    def test_random_stresses(self):
        rng = seeded()
        frame = builtin_frames()["wobble"]
        r = obj.check_stress_transform_random(frame, samples=100, rng=rng)
        assert r.passed and r.max_abs_err <= 1e-12

    @pytest.mark.parametrize("drift", [4e-10, 3e-8, 2e-7])
    def test_drifted_alpha_is_repaired_to_round_off(self, drift):
        # A relative drift of 4e-10 leaves a residual of 8e-10: were it taken
        # as a rotation, the check would fail at 6.9e-10 and cauchy_traction
        # would warn about a non-unit face normal.
        wobble = builtin_frames()["wobble"]
        frame = RigidFrameMotion("drift", y=np.zeros(3),
                                 alpha=lambda t: wobble.alpha(t) * (1.0 + drift))
        assert np.max(tc.check_orthogonality(frame.alpha(np.linspace(0.0, 1.0, 50)))) <= 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = obj.check_stress_transform_random(frame, samples=100, rng=seeded())
        assert r.passed and r.max_abs_err <= 1e-12

    def test_drifted_caller_alpha_is_repaired_for_both_routes(self):
        # The caller's own alpha, not a frame's: taken as a rotation as it is,
        # it fails at 6.3e-10 and cauchy_traction warns about a non-unit face.
        rng = seeded()
        alpha = builtin_frames()["wobble"].alpha(rng.uniform(0.0, 1.0, 100)) * (1.0 + 4e-10)
        tau = rng.uniform(-1.0, 1.0, size=(100, 3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = obj.check_stress_tensor_transform(tau, alpha)
        assert r.passed and r.max_abs_err <= 1e-12

    @pytest.mark.parametrize("alpha", [2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0])])
    def test_non_rotation_raises(self, alpha):
        with pytest.raises(InvariantViolationError):
            obj.check_stress_tensor_transform(np.eye(3), alpha)


class TestNewtonianStress:
    def test_static_fluid(self):
        tau = newtonian_stress(2.0, 0.9, np.zeros((3, 3)))
        assert np.allclose(tau, -2.0 * np.eye(3))

    def test_shear_stress(self):
        j = make_field("shear", rate=3.0).jacobian(np.zeros(3), 0.0)
        tau = newtonian_stress(0.0, 1.0, j)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 3.0
        assert np.allclose(tau, expected)

    def test_rigid_rotation_no_viscous_stress(self):
        j = make_field("rigid_rotation", omega=[0, 0, 2.0]).jacobian(
            np.array([0.4, 0.1, 0.0]), 0.0)
        tau = newtonian_stress(1.5, 7.0, j)
        assert np.allclose(tau, -1.5 * np.eye(3), atol=1e-14)

    def test_trace_identity(self):
        rng = seeded()
        j = rng.normal(size=(3, 3))
        tau = newtonian_stress(0.8, 1.3, j)
        assert np.isclose(np.trace(tau), -3 * 0.8 + 2 * 1.3 * np.trace(j))
        assert np.max(np.abs(tau - tau.T)) <= 1e-12

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.7, 1.3, 4.0, 1e3])
    def test_built_from_the_strain_rate(self, mu):
        # -p I + 2 mu D has the bits of -p I + mu (J + J.T).
        rng = seeded()
        j, p = rng.normal(size=(1000, 3, 3)), rng.normal(size=1000)
        want = -p[:, None, None] * np.eye(3) + mu * (j + j.swapaxes(-1, -2))
        assert np.array_equal(newtonian_stress(p, mu, j), want)

    def test_negative_viscosity_rejected(self):
        with pytest.raises(UsageError):
            newtonian_stress(1.0, -0.1, np.zeros((3, 3)))


class TestConstitutiveInvariance:
    def test_identity_frame(self):
        r = obj.check_constitutive_frame_invariance(
            make_frame("identity"), builtin_flows()["taylor_green"],
            builtin_scalars()["gaussian_T"], 0.7, rng=seeded())
        assert r.max_abs_err <= 1e-9

    def test_shear_under_rotation(self):
        r = obj.check_constitutive_frame_invariance(
            builtin_frames()["constant_rotation"], builtin_flows()["shear"],
            builtin_scalars()["gaussian_T"], 0.7, rng=seeded())
        assert r.passed

    def test_rigid_rotation_under_wobble_gives_pressure_only(self):
        frame = builtin_frames()["wobble"]
        flow = builtin_flows()["rigid_rotation"]
        p_field = builtin_scalars()["gaussian_T"]
        observed = pull_back_velocity(frame, flow)
        t, x = 0.5, np.array([0.2, 0.3, -0.1])
        xp = map_position_to_prime(frame, x, t)
        j_obs = diffops.fd_jacobian(observed, xp, t)
        tau_sp = newtonian_stress(p_field.value(x, t), 4.0, j_obs)
        assert np.max(np.abs(tau_sp + p_field.value(x, t) * np.eye(3))) <= 1e-9


class TestRotationEntersOnce:
    CHECKS = {
        "stress": lambda frame: obj.check_stress_transform_random(frame, rng=seeded()),
        "strain": lambda frame: obj.check_strain_rate_invariance(
            frame, builtin_flows()["taylor_green"], rng=seeded()),
        "constitutive": lambda frame: obj.check_constitutive_frame_invariance(
            frame, builtin_flows()["taylor_green"], builtin_scalars()["gaussian_T"],
            0.7, rng=seeded()),
    }

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
    def test_each_alpha_is_validated_once(self, monkeypatch, check):
        # Every validation of a rotation is the one orthonormalized where it
        # enters (the frame's miss, the stress check's caller's alpha); the
        # checks apply it without validating it again.
        frame, calls = builtin_frames()["wobble"], Counter()
        for name in ("check_orthogonality", "orthonormalized"):
            def counted(alpha, name=name, original=getattr(tc, name)):
                calls[name] += 1
                return original(alpha)
            monkeypatch.setattr(tc, name, counted)
        assert check(frame).passed
        assert calls["orthonormalized"] > 0
        assert calls["check_orthogonality"] == calls["orthonormalized"]


def check_inputs(check_id):
    """check_id's inputs after the frame, as a list: taylor_green (gaussian_T
    for a scalar check, no field for a frame-only check), then the scenario
    defaults as its needs."""
    spec = obj.CHECKS[check_id]
    fields = {FlowField: builtin_flows()["taylor_green"],
              ScalarField: builtin_scalars()["gaussian_T"]}
    values = {"p_field": builtin_scalars()["gaussian_T"], "mu": 0.7,
              "force": BodyForce(g=np.array([0.0, 0.0, -9.81]), rho=1.0)}
    field = [fields[spec.field]] if spec.field else []
    return field + [values[name] for name in spec.needs]


def _misread_inputs():
    """Per case, a call of a public check, given its generator, on an input of
    the wrong kind, a misread number or a wrong count of inputs: the driver
    refuses it before it samples."""
    frame, flow = builtin_frames()["wobble"], builtin_flows()["taylor_green"]
    pressure, force = builtin_scalars()["gaussian_T"], BodyForce(g=np.zeros(3), rho=1.0)
    return {
        "frame-none": lambda rng: obj.check_divergence_invariance(
            None, flow, samples=3, rng=rng),
        "frame-a-matrix": lambda rng: obj.check_stress_transform_random(
            np.eye(3), samples=3, rng=rng),
        "fd-a-mapping": lambda rng: obj.check_divergence_invariance(
            frame, flow, samples=3, rng=rng, fd={"h": 1e-3}),
        "p-field-a-flow": lambda rng: obj.check_constitutive_frame_invariance(
            frame, flow, flow, 0.7, samples=3, rng=rng),
        "force-a-mapping": lambda rng: obj.check_ns_rhs_equivalence(
            frame, flow, pressure, {"g": np.zeros(3), "rho": 1.0}, 0.7, samples=3, rng=rng),
        # A single call is a group of one: its field is of the check's kind too.
        "single-scalar-for-a-flow-check": lambda rng: obj.check_divergence_invariance(
            frame, pressure, samples=3, rng=rng),
        "single-flow-for-a-scalar-check": lambda rng: obj.check_scalar_gradient_invariance(
            frame, flow, samples=3, rng=rng),
        "single-no-generator": lambda rng: obj.check_divergence_invariance(
            frame, flow, samples=3, rng=None),
        **_misread_numbers_and_counts(),
    }


def _misread_numbers_and_counts():
    """Per case, a call of a public check, given its generator, on a tol or mu
    that is no number >= 0, or with an input after the frame too few or too
    many: each check that takes the input, with its other inputs valid."""
    frame, pressure = builtin_frames()["wobble"], builtin_scalars()["gaussian_T"]

    def call(check_id, inputs, **kwargs):
        check = getattr(obj, obj.CHECKS[check_id].function)
        return lambda rng: check(frame, *inputs, samples=3, rng=rng, **kwargs)

    calls = {}
    for check_id, spec in obj.CHECKS.items():
        inputs = check_inputs(check_id)
        for case, tol in {"string": "x", "negative": -1.0, "nan": float("nan")}.items():
            calls[f"{check_id}-tol-{case}"] = call(check_id, inputs, tol=tol)
        if "mu" in spec.needs:
            at = len(inputs) - len(spec.needs) + spec.needs.index("mu")
            for case, mu in {"string": "abc", "true": True, "negative": -1.0}.items():
                calls[f"{check_id}-mu-{case}"] = call(
                    check_id, inputs[:at] + [mu] + inputs[at + 1:])
        if inputs:
            calls[f"{check_id}-missing-input"] = call(check_id, inputs[:-1])
        calls[f"{check_id}-extra-input"] = call(check_id, inputs + [pressure])
    return calls


def _bad_inputs():
    """A call of a public function on an input it must reject, per case."""
    tensors = {"nan": np.full((3, 3), np.nan),
               "inf": np.stack([np.eye(3), np.diag([np.inf, 1.0, 1.0])]),
               "shape": np.ones((3, 2))}
    rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    functions = {"transform": lambda t: tc.transform_tensor2(t, rotation),
                 "untransform": lambda t: tc.untransform_tensor2(t, rotation),
                 "newtonian": lambda t: newtonian_stress(1.0, 0.5, t),
                 "divergence": diffops.divergence, "curl": diffops.curl,
                 "strain_rate": diffops.strain_rate}
    cases = [pytest.param(lambda fn=fn, tensor=tensor: fn(tensor), id=f"{f}-{t}")
             for f, fn in functions.items() for t, tensor in tensors.items()]
    frame, flow = builtin_frames()["wobble"], builtin_flows()["taylor_green"]
    pressure, force = builtin_scalars()["gaussian_T"], BodyForce(g=np.zeros(3), rho=1.0)
    nan, zeros = float("nan"), np.zeros((3, 3))
    calls = {
        "constitutive-negative-mu": lambda: obj.check_constitutive_frame_invariance(
            frame, flow, builtin_scalars()["gaussian_T"], -0.1, samples=5, rng=seeded()),
        "inertial-ns-rhs-mu-true": lambda: obj.inertial_ns_rhs(
            flow, pressure, force, True, np.zeros(3), 0.5),
        # Each range check is written so that NaN fails it, as the parser's do.
        "fd-h-nan": lambda: diffops.FdConfig(h=nan),
        "fd-h-inf": lambda: diffops.FdConfig(h=np.inf),
        "fd-h_t-nan": lambda: diffops.FdConfig(h_t=nan),
        "fd-h_t-inf": lambda: diffops.FdConfig(h_t=np.inf),
        # A step whose order-4 stencil reaches past the largest float.
        "fd-h-reach": lambda: diffops.FdConfig(h=1e308),
        "fd-h_t-reach": lambda: diffops.FdConfig(h_t=1e308),
        "density-nan": lambda: BodyForce(g=np.zeros(3), rho=nan),
        "density-inf": lambda: BodyForce(g=np.zeros(3), rho=np.inf),
        "newtonian-mu-nan": lambda: newtonian_stress(1.0, nan, zeros),
        "newtonian-mu-inf": lambda: newtonian_stress(1.0, np.inf, zeros),
        "gaussian-width-nan": lambda: make_field("gaussian_T", width=nan),
        # No number by the package's one rule (tensor_core.is_number).
        "fd-h-true": lambda: diffops.FdConfig(h=True),
        "fd-order-float": lambda: diffops.FdConfig(order=4.0),
        "density-true": lambda: BodyForce(g=np.zeros(3), rho=True),
        "gravity-string": lambda: BodyForce(g="abc", rho=1.0),
        "newtonian-mu-true": lambda: newtonian_stress(1.0, True, zeros),
        "newtonian-p-true": lambda: newtonian_stress(True, 0.5, np.eye(3)),
        "divergence-bool-and-string": lambda: diffops.divergence(
            [[True, 0, 0], [0, "1", 0], [0, 0, 1]]),
        # Stacks whose batch shapes do not broadcast against each other.
        **{f"{name}-batch-shapes": call for name, call in _unbroadcast_calls().items()},
    }
    # The viscosity by the number rule, as the constitutive check reads it:
    # a boolean, a negative, a NaN and a string are refused, not run.
    for case, mu in {"true": True, "negative": -1.0, "nan": nan, "string": "0.7"}.items():
        calls[f"ns-rhs-mu-{case}"] = lambda mu=mu: obj.check_ns_rhs_equivalence(
            frame, flow, pressure, force, mu, samples=3, rng=seeded())
    for n in (0, -1):
        calls[f"divergence-samples{n}"] = lambda n=n: obj.check_divergence_invariance(
            frame, flow, samples=n, rng=seeded())
        calls[f"stress-random-samples{n}"] = lambda n=n: obj.check_stress_transform_random(
            frame, samples=n, rng=seeded())
    # A group call: as many fields of the check's kind as generators, at least one.
    scalar = builtin_scalars()["linear_T"]
    groups = {"fewer-fields": ([flow], [seeded(), seeded()]),
              "more-fields": ([flow, flow], [seeded()]),
              "empty": ([], []),
              "one-field-not-a-sequence": (flow, [seeded()]),
              "field-of-another-kind": ([flow, scalar], [seeded(), seeded()]),
              "no-generator": ([flow], [None])}
    for case, (fields, rngs) in groups.items():
        calls[f"group-{case}"] = lambda fields=fields, rngs=rngs: (
            obj.check_divergence_invariance(frame, fields, samples=3, rng=rngs))
    calls["group-stress-random-empty"] = lambda: obj.check_stress_transform_random(
        frame, samples=3, rng=[])
    calls["group-scalar-of-another-kind"] = lambda: obj.check_scalar_gradient_invariance(
        frame, [scalar, flow], samples=3, rng=[seeded(), seeded()])
    calls.update({case: partial(call, seeded()) for case, call in _misread_inputs().items()})
    return cases + [pytest.param(call, id=case) for case, call in calls.items()]


def _unbroadcast_calls():
    """A call of each public tensor-law function on stacks of 4 and of 3."""
    taus, alphas = np.zeros((4, 3, 3)), np.stack([np.eye(3)] * 3)
    return {"transform": lambda: tc.transform_tensor2(taus, alphas),
            "untransform": lambda: tc.untransform_tensor2(taus, alphas),
            "traction": lambda: obj.cauchy_traction(taus, np.tile([1.0, 0.0, 0.0], (3, 1))),
            "stress-transform": lambda: obj.check_stress_tensor_transform(taus, alphas),
            "newtonian": lambda: newtonian_stress(np.zeros(4), 1.0, np.zeros((3, 3, 3)))}


@pytest.mark.parametrize("name", _unbroadcast_calls())
def test_unbroadcast_batch_shapes_are_named_in_one_line(name):
    with pytest.raises(UsageError, match=r"^batch shapes \(4,\), \(3,\) do not broadcast$"):
        _unbroadcast_calls()[name]()


def test_batch_shapes_that_broadcast_still_do():
    # One alpha for many tensors, one normal for many stresses, one pressure.
    taus = np.arange(36.0).reshape(4, 3, 3)
    assert np.array_equal(tc.transform_tensor2(taus, np.eye(3)), taus)
    assert np.array_equal(tc.untransform_tensor2(taus, np.eye(3)[None]), taus)
    assert np.array_equal(obj.cauchy_traction(taus, [1.0, 0.0, 0.0]), taus[..., 0])
    assert obj.check_stress_tensor_transform(taus, np.eye(3)).samples == 4
    assert newtonian_stress(2.0, 1.0, np.zeros((3, 3, 3))).shape == (3, 3, 3)


@pytest.mark.parametrize("call", _bad_inputs())
def test_public_boundary_rejects_bad_input(call):
    # The checks skip validating their own arrays; a caller's still raises,
    # and so does a parameter or sample count out of range.
    with pytest.raises(UsageError):
        call()


@pytest.mark.parametrize("case", _misread_inputs())
def test_an_input_of_the_wrong_kind_is_refused_before_sampling(case):
    # One line, and the generator has drawn nothing.
    rng = seeded()
    drawn = rng.bit_generator.state
    with pytest.raises(UsageError) as refused:
        _misread_inputs()[case](rng)
    assert "\n" not in str(refused.value)
    assert rng.bit_generator.state == drawn


def test_fd_step_is_refused_by_its_reach_not_its_size():
    # At order 2 the stencil reaches one step, so 1e308 is a valid step;
    # at order 4 it reaches two, the largest valid step half the largest float.
    assert diffops.FdConfig(h=1e308, h_t=1e308, order=2).reach(1e308) == 1e308
    half = np.finfo(float).max / 2
    assert diffops.FdConfig(h=half, h_t=half).reach(half) == np.finfo(float).max
    assert parse_scenario("frames: [identity]\nfields: [uniform]\nchecks: [div_invariance]\n"
                          "fd: {h: 1.0e+308, order: 2}\n").fd.h == 1e308


def public_check(check_id, members=0, **kwargs):
    """check_id's public check at 5 samples (unless kwargs say otherwise)
    under wobble, on its ``check_inputs``; with members, a group call on that
    many copies of the field, each with its own generator."""
    spec, inputs = obj.CHECKS[check_id], check_inputs(check_id)
    if members and spec.field:
        inputs[0] = [inputs[0]] * members
    return getattr(obj, spec.function)(
        builtin_frames()["wobble"], *inputs,
        rng=[seeded() for _ in range(members)] if members else seeded(),
        **{"samples": 5, **kwargs})


def _bad_tols_and_boxes():
    """Each public check on each bad tol, box and sample count, and the
    two-route stress check on each bad tol."""
    nan, unit = float("nan"), (-1.0, 1.0)
    bad = {"tol-nan": {"tol": nan}, "tol-negative": {"tol": -1.0},
           "tol-inf": {"tol": np.inf}, "tol-true": {"tol": True},
           "samples-true": {"samples": True}, "samples-fractional": {"samples": 2.5},
           "samples-string": {"samples": "3"},
           "box-nan": {"box": ((nan, 1.0), unit, unit)},
           "box-true": {"box": ((True, 2.0), unit, unit)},
           "box-inverted": {"box": (unit, (1.0, -1.0), unit)},
           "box-zero-width": {"box": (unit, unit, (0.5, 0.5))},
           "box-overflowing-width": {"box": ((-1e308, 1e308), unit, unit)}}
    cases = [pytest.param(partial(public_check, check_id, **kwargs), id=f"{check_id}-{case}")
             for check_id in obj.CHECK_IDS for case, kwargs in bad.items()]
    return cases + [
        pytest.param(partial(obj.check_stress_tensor_transform, np.eye(3), np.eye(3), **kwargs),
                     id=f"stress_tensor_transform-{case}")
        for case, kwargs in bad.items() if "tol" in kwargs]


@pytest.mark.parametrize("call", _bad_tols_and_boxes())
def test_every_check_rejects_a_bad_tol_or_box(call):
    # A NaN, negative, infinite or boolean tol would report a silent false
    # verdict; a box with a NaN, a boolean, an empty or an overflowing width
    # cannot be sampled, nor can a sample count that is no integer.
    with pytest.raises(UsageError):
        call()


# The registry as the checks declare it, in order: (tol, field kind, needs).
REGISTRY = {
    "div_invariance": (1e-6, FlowField, ()),
    "scalar_grad_invariance": (1e-6, ScalarField, ()),
    "velgrad_relation": (1e-6, FlowField, ()),
    "strain_rate_invariance": (1e-6, FlowField, ()),
    "vorticity_relation": (1e-6, FlowField, ()),
    "stress_transform": (1e-12, None, ()),
    "constitutive_invariance": (1e-6, FlowField, ("p_field", "mu")),
    "acceleration_decomposition": (1e-5, FlowField, ()),
    "ns_rhs_equivalence": (1e-4, FlowField, ("p_field", "force", "mu")),
}


def test_registry_order_specs_and_public_checks():
    # Ids in order, each spec's tol, field kind and needs; the public function
    # a spec names is the one of that name, and its default tol is the spec's.
    assert obj.CHECK_IDS == tuple(obj.CHECKS) == tuple(REGISTRY)
    assert list(obj.DEFAULT_TOLERANCES) == list(REGISTRY)
    for check_id, (tol, field, needs) in REGISTRY.items():
        spec = obj.CHECKS[check_id]
        assert (spec.tol, spec.field, spec.needs) == (tol, field, needs)
        check = getattr(obj, spec.function)
        assert check.__name__ == spec.function
        default = inspect.signature(check).parameters["tol"].default
        assert default == obj.DEFAULT_TOLERANCES[check_id] == spec.tol
    two_route = inspect.signature(obj.check_stress_tensor_transform).parameters["tol"]
    assert two_route.default == REGISTRY["stress_transform"][0]


class TestOneSampleDriver:
    @pytest.mark.parametrize("check_id", obj.CHECK_IDS)
    def test_each_check_samples_once_through_the_driver(self, monkeypatch, check_id):
        calls = Counter()

        def counted(*args, original=obj.sample_points):
            calls["sample_points"] += 1
            return original(*args)

        monkeypatch.setattr(obj, "sample_points", counted)
        assert public_check(check_id).passed
        assert calls["sample_points"] == 1

    @pytest.mark.parametrize("check_id", obj.CHECK_IDS)
    def test_a_group_call_samples_and_reads_its_box_once(self, monkeypatch, check_id):
        # All three members' points are drawn in one call, which reads the box once.
        calls = Counter()

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        for name in ("sample_points", "box_pairs"):
            monkeypatch.setattr(obj, name, counted(name, getattr(obj, name)))
        results = public_check(check_id, members=3)
        assert len(results) == 3 and all(r.passed for r in results)
        assert calls == {"sample_points": 1, "box_pairs": 1}

    def test_stress_check_ignores_box_and_fd(self):
        # The stresses are drawn after the points, whose number of draws the
        # box does not change, and no finite difference is taken.
        frame = builtin_frames()["wobble"]
        rngs = seeded(), seeded()
        default = obj.check_stress_transform_random(frame, samples=20, rng=rngs[0])
        other = obj.check_stress_transform_random(
            frame, samples=20, rng=rngs[1], box=((-3.0, 5.0), (0.0, 0.5), (2.0, 2.5)),
            fd=diffops.FdConfig(h=1e-2))
        assert other == default and default.samples == 20
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("frame_name", sorted(builtin_frames()))
    def test_stress_check_draws_points_but_maps_none(self, monkeypatch, frame_name):
        # The frame-only kernel reads no point: it still draws them, so its
        # stresses are the ones that follow the points in the stream, but it
        # maps none to primed coordinates.
        frame, calls = builtin_frames()[frame_name], Counter()

        def counted(*args, original=obj.map_position_to_prime):
            calls["map_position_to_prime"] += 1
            return original(*args)

        monkeypatch.setattr(obj, "map_position_to_prime", counted)
        got = obj.check_stress_transform_random(frame, samples=20, rng=seeded())
        rng = seeded()
        _, ts = obj.sample_points(obj.DEFAULT_BOX, 20, [rng])
        want = obj.check_stress_tensor_transform(rng.uniform(-1.0, 1.0, size=(20, 3, 3)),
                                                 frame.alpha(ts))
        assert got == want and calls["map_position_to_prime"] == 0


@pytest.mark.parametrize("box", (obj.DEFAULT_BOX, ((0.0, 2.0), (-3.0, -1.0), (5.0, 7.5)),
                                 ((-1e3, 1e-3), (0.1, 0.2), (-7.0, 13.0))))
@pytest.mark.parametrize("seed", (0, 1, 42, 2027))
def test_sample_points_are_rng_uniform_bit_for_bit(box, seed):
    # The driver draws with uniform's own formula, so points, times and the
    # stresses drawn after them equal rng.uniform's, bit for bit.
    lo, hi = np.array(box).T
    for n in (1, 2, 7, 100, 150):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        xs, ts = obj.sample_points(box, n, [mine])
        assert np.array_equal(xs, theirs.uniform(lo, hi, size=(n, 3)))
        assert np.array_equal(ts, theirs.uniform(*obj.TIME_WINDOW, size=n))
        assert np.array_equal(mine.uniform(-1.0, 1.0, size=(n, 3, 3)),
                              theirs.uniform(-1.0, 1.0, size=(n, 3, 3)))


class TestAccelerationDecomposition:
    def test_fluid_at_rest_in_rotating_frame(self):
        # rigid-rotation flow seen co-rotating: everything reduces to the
        # centrifugal term omega x (omega x X) = (-4, 0, 0) at X=(1,0,0)
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        assert np.allclose(
            obj.inertial_acceleration(flow, np.array([1.0, 0, 0]), 0.0),
            [-4.0, 0.0, 0.0], atol=1e-14)
        r = obj.check_acceleration_decomposition(
            builtin_frames()["constant_rotation"], flow, rng=seeded())
        assert r.passed

    def test_galilean_degenerate_case(self):
        r = obj.check_acceleration_decomposition(
            make_frame("uniform_translation", velocity=[1.0, 0, 0]),
            make_field("uniform", velocity=[1.0, 0, 0]), rng=seeded())
        assert r.max_abs_err <= 1e-10

    def test_coriolis_case(self):
        r = obj.check_acceleration_decomposition(
            builtin_frames()["constant_rotation"],
            make_field("uniform", velocity=[1.0, 0, 0]),
            samples=100, rng=seeded())
        assert r.passed


class TestNsRhsEquivalence:
    FORCE = BodyForce(g=np.array([0.0, 0.0, -9.81]), rho=1.2)

    def test_identity_frame_fd_noise(self):
        r = obj.check_ns_rhs_equivalence(
            make_frame("identity"), builtin_flows()["taylor_green"],
            builtin_scalars()["gaussian_T"], self.FORCE, 0.7,
            samples=25, rng=seeded())
        assert r.max_abs_err <= 1e-5

    def test_poly_linear_reduces_to_pressure_gradient(self):
        # second derivatives vanish, so the check degenerates to
        # grad p = grad' p
        r = obj.check_ns_rhs_equivalence(
            builtin_frames()["wobble"], builtin_flows()["poly_linear"],
            builtin_scalars()["gaussian_T"], self.FORCE, 0.7,
            samples=25, rng=seeded())
        assert r.passed

    def test_taylor_green_under_rotation(self):
        r = obj.check_ns_rhs_equivalence(
            builtin_frames()["constant_rotation"],
            builtin_flows()["taylor_green"],
            builtin_scalars()["gaussian_T"], self.FORCE, 0.7,
            samples=50, rng=seeded())
        assert r.passed and r.max_abs_err <= 1e-4

    def test_body_force_needs_positive_density(self):
        with pytest.raises(UsageError):
            BodyForce(g=np.zeros(3), rho=0.0)


class TestConsistencyLadder:
    def test_constitutive_bounded_by_strain_residual(self):
        # the constitutive check is algebraically downstream of the
        # strain-rate check: residual <= 2 mu * strain residual + transform eps
        frame = builtin_frames()["wobble"]
        flow = builtin_flows()["taylor_green"]
        mu = 0.7
        r_s = obj.check_strain_rate_invariance(frame, flow, rng=seeded())
        r_c = obj.check_constitutive_frame_invariance(
            frame, flow, builtin_scalars()["gaussian_T"], mu, rng=seeded())
        assert r_c.max_abs_err <= 2 * mu * r_s.max_abs_err + 1e-10


class TestSensitivity:
    """Each check must fail when the physics it guards is broken."""

    ROTATING = ("constant_rotation", "wobble", "screw")

    def run(self, check, frame_name, flow_name):
        return check(builtin_frames()[frame_name], builtin_flows()[flow_name],
                     rng=seeded())

    @pytest.mark.parametrize("frame_name", ROTATING)
    def test_negated_velocity_gradient_correction(self, monkeypatch, frame_name):
        check = obj.check_velocity_gradient_relation
        assert self.run(check, frame_name, "taylor_green").passed
        correct = obj.velocity_gradient_correction
        monkeypatch.setattr(obj, "velocity_gradient_correction",
                            lambda frame, t: -correct(frame, t))
        assert not self.run(check, frame_name, "taylor_green").passed

    @pytest.mark.parametrize("frame_name", ROTATING)
    def test_halved_omega(self, monkeypatch, frame_name):
        checks = (obj.check_vorticity_relation,
                  obj.check_acceleration_decomposition)
        for check in checks:
            assert self.run(check, frame_name, "taylor_green").passed
        correct = obj.omega_from_alpha

        def halved(frame, t):
            ang = correct(frame, t)
            return AngularVelocity(omega=0.5 * ang.omega,
                                   domega_dt=ang.domega_dt)

        monkeypatch.setattr(obj, "omega_from_alpha", halved)
        for check in checks:
            assert not self.run(check, frame_name, "taylor_green").passed

    @pytest.mark.parametrize("flow_name", ("shear", "taylor_green"))
    @pytest.mark.parametrize("frame_name", ROTATING)
    def test_untransform_with_transposed_alpha(self, monkeypatch, frame_name,
                                               flow_name):
        check = obj.check_strain_rate_invariance
        assert self.run(check, frame_name, flow_name).passed
        correct = tc.congruence
        monkeypatch.setattr(tc, "congruence",
                            lambda t_p, alpha: correct(t_p, tc.transpose(alpha)))
        assert not self.run(check, frame_name, flow_name).passed

    @pytest.mark.parametrize("frame_name", ROTATING)
    def test_stress_transformed_as_vector(self, monkeypatch, frame_name):
        frame = builtin_frames()[frame_name]
        check = obj.check_stress_transform_random
        assert check(frame, rng=seeded()).passed
        # The algebraic route is congruence(tau, alpha.T); as a vector, alpha.T @ tau.
        monkeypatch.setattr(tc, "congruence", lambda tau, alpha_t: alpha_t @ tau)
        assert not check(frame, rng=seeded()).passed

    @pytest.mark.parametrize("frame_name", ("identity",) + ROTATING)
    @pytest.mark.parametrize("module, name", ((obj, "cauchy_traction"),
                                              (tc, "congruence")),
                             ids=("traction", "transform"))
    def test_transposed_stress(self, monkeypatch, module, name, frame_name):
        # Only a non-symmetric stress tells tau from its transpose.
        frame = builtin_frames()[frame_name]
        check = obj.check_stress_transform_random
        assert check(frame, rng=seeded()).passed
        correct = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda tau, other: correct(tc.transpose(tc.mat3(tau)), other))
        assert not check(frame, rng=seeded()).passed

    @pytest.mark.parametrize("frame_name", ROTATING)
    def test_dropped_euler_term(self, monkeypatch, frame_name):
        check = obj.check_acceleration_decomposition
        assert self.run(check, frame_name, "taylor_green").passed
        correct = obj.omega_from_alpha

        def no_euler(frame, t):
            ang = correct(frame, t)
            return AngularVelocity(omega=ang.omega,
                                   domega_dt=np.zeros_like(ang.domega_dt))

        monkeypatch.setattr(obj, "omega_from_alpha", no_euler)
        # At a constant rate domega_dt is 0, so only wobble can show the mutation.
        passed = self.run(check, frame_name, "taylor_green").passed
        assert passed == (frame_name != "wobble")

    @pytest.mark.parametrize("flow_name", ("taylor_green", "shear", "rigid_rotation"))
    def test_origin_moving_off_the_rotation_axis(self, flow_name):
        # The catalog screw moves along its own axis, where omega x y = 0, so
        # the sign of y in X = x - y(t) goes unseen there.  Moving across the
        # axis makes it count: X = x + y fails this check with an error of 2.7.
        frame = make_frame("screw", axis=[0, 0, 1], rate=1.5, velocity=[0.6, 0, 0])
        r = obj.check_acceleration_decomposition(
            frame, builtin_flows()[flow_name], samples=50, rng=seeded())
        assert r.passed


def benchmark_module(name):
    """perfbench/<name>.py, loaded by path as benchmark_<name>."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, the seeded scenario generators of the benchmark."""
    return benchmark_module("workloads")


def test_traced_full_matrix_calls_every_tracer_target(workloads):
    """A traced benchmark run fails when a tracer target records no call (a
    caller that bypasses the patched name): parse -> run -> emit of the
    benchmark's full_matrix, at 2 samples, must call every target."""
    tracing = benchmark_module("tracer")
    doc = yaml.safe_load(workloads.full_matrix(42))
    doc["samples"] = 2
    tracer = tracing.Tracer()
    tracer.install()
    try:   # looked up at call time, so that the tracer's wrappers run
        fs.emit_report(fs.run_suite(fs.parse_scenario(yaml.safe_dump(doc))), "json")
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    assert [name for name, _, _ in tracing.TARGETS if layers[name]["calls"] == 0] == []


def test_full_matrix_calls_each_check_once_per_frame(workloads):
    """The suite calls a check once per frame on all of its fields: each
    public check_* six times on the benchmark's full_matrix (six frames),
    and the stress kernel's two-route check once per member, 6 x 5 flows."""
    tracing = benchmark_module("tracer")
    doc = yaml.safe_load(workloads.full_matrix(42))
    doc["samples"] = 2
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fs.run_suite(fs.parse_scenario(yaml.safe_dump(doc)))
    finally:
        tracer.uninstall()
    calls = {name.split(".")[-1]: layer["calls"] for name, layer in tracer.summary().items()
             if name.startswith("objectivity.check_")}
    assert calls == {**dict.fromkeys((spec.function for spec in obj.CHECKS.values()), 6),
                     "check_stress_tensor_transform": 30}


# A failing draw is reported as drawn: shrinking would rerun the whole
# scenario at every step.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def assert_every_row_passes(doc, draw):
    """Run a scenario document at N=20; every row must pass."""
    doc["samples"] = 20
    report = run_suite(parse_scenario(yaml.safe_dump(doc)))
    failed = [(r["frame"], r["field"], r["check"], r["max_abs_err"])
              for r in report.results if r["status"] != "pass"]
    assert not failed, (draw, failed)


@settings(max_examples=15, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1))
def test_seeded_rotating_frames_pass_at_default_tolerances(workloads, seed):
    """Over the benchmark's ranges of constant_rotation, wobble and screw
    params (off-axis screws included), the nested and time-FD checks pass at
    their default tolerances.  A failing seed is a finding, not a range to
    narrow."""
    assert_every_row_passes(yaml.safe_load(workloads.nested_fd(seed)), seed)


def _floats(lo, hi, n=None):
    one = st.floats(lo, hi)
    return one if n is None else st.lists(one, min_size=n, max_size=n)


FIELD_RANGES = {
    "uniform": {"velocity": _floats(-2, 2, 3)},
    "shear": {"rate": _floats(-5, 5)},
    "rigid_rotation": {"omega": _floats(-3, 3, 3)},
    "taylor_green": {"amplitude": _floats(0.5, 2), "wavenumber": _floats(0.5, 2)},
    "poly_linear": {"scale": _floats(-2, 2)},
    "gaussian_T": {"amplitude": _floats(0.5, 2), "width": _floats(0.5, 1.5),
                   "center": _floats(-0.5, 0.5, 3)},
    "linear_T": {"coeffs": _floats(-2, 2, 3), "offset": _floats(-1, 1)},
}
FIELD_PARAMS = st.tuples(*(
    st.fixed_dictionaries({**ranges, "mod_amp": _floats(0, 0.5), "mod_freq": _floats(0, 3)})
    for ranges in FIELD_RANGES.values()))


@settings(max_examples=10, phases=NO_SHRINK)
@given(params=FIELD_PARAMS)
def test_drawn_field_params_pass_at_default_tolerances(params):
    """On the frames of scenarios/full_matrix.yaml, every catalog field with
    params drawn from fixed ranges passes every check at its default
    tolerance.  A failing draw is a finding, not a range to narrow."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "full_matrix.yaml"
    doc = yaml.safe_load(path.read_text())
    doc["fields"] = [{"name": name, "params": p} for name, p in zip(FIELD_RANGES, params)]
    assert_every_row_passes(doc, params)
