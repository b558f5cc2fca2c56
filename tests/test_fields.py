"""Manufactured-field catalog: analytic derivatives vs finite differences."""

import numpy as np
import pytest

from framekit import (UsageError, make_field, make_frame, pull_back_scalar,
                      pull_back_velocity)
from framekit import diffops
from framekit import tensor_core as tc
from framekit.fields import FIELD_CATALOG, FlowField, ScalarField

from conftest import builtin_flows, builtin_scalars


def fd_jacobian_of_velocity(flow, x, t, h):
    j = np.zeros((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        j[k] = (flow.velocity(x + h * e, t) - flow.velocity(x - h * e, t)) / (2 * h)
    return j


class TestCatalogConsistency:
    """Every analytic derivative must match second-order central differences,
    with the h -> h/2 residual ratio confirming the O(h^2) convergence."""

    @pytest.mark.parametrize("name", ["shear", "rigid_rotation", "taylor_green",
                                      "poly_linear"])
    def test_jacobian_matches_fd(self, name, rng):
        flow = builtin_flows()[name]
        x, t = rng.uniform(-1, 1, size=3), 0.4
        exact = flow.jacobian(x, t)
        r1 = np.max(np.abs(fd_jacobian_of_velocity(flow, x, t, 1e-3) - exact))
        assert r1 <= 1e-6

    def test_fd_convergence_order(self, rng):
        flow = builtin_flows()["taylor_green"]
        x, t = np.array([0.3, -0.4, 0.1]), 0.2
        exact = flow.jacobian(x, t)
        r1 = np.max(np.abs(fd_jacobian_of_velocity(flow, x, t, 1e-2) - exact))
        r2 = np.max(np.abs(fd_jacobian_of_velocity(flow, x, t, 5e-3) - exact))
        assert 3.0 <= r1 / r2 <= 5.0

    @pytest.mark.parametrize("name", ["gaussian_T", "linear_T"])
    def test_scalar_gradient_matches_fd(self, name, rng):
        scalar = builtin_scalars()[name]
        x, t = rng.uniform(-1, 1, size=3), 0.4
        h = 1e-4
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            fd = (scalar.value(x + h * e, t) - scalar.value(x - h * e, t)) / (2 * h)
            assert abs(fd - scalar.gradient(x, t)[k]) <= 1e-7

    def test_time_derivative_matches_fd(self, rng):
        flow = make_field("uniform", velocity=[2.0, 0, 0], mod_amp=0.3,
                          mod_freq=2.0)
        x, t, h = rng.uniform(-1, 1, size=3), 0.7, 1e-5
        fd = (flow.velocity(x, t + h) - flow.velocity(x, t - h)) / (2 * h)
        assert np.allclose(flow.dv_dt(x, t), fd, atol=1e-9)

    def test_visc_div_matches_nested_fd(self):
        flow = builtin_flows()["taylor_green"]
        x, t, h = np.array([0.2, 0.5, -0.3]), 0.3, 1e-3

        def second(a, b):
            ea, eb = np.eye(3)[a], np.eye(3)[b]
            if a == b:
                return (flow.velocity(x + h * ea, t) - 2 * flow.velocity(x, t)
                        + flow.velocity(x - h * ea, t)) / (h * h)
            return (flow.velocity(x + h * ea + h * eb, t)
                    - flow.velocity(x + h * ea - h * eb, t)
                    - flow.velocity(x - h * ea + h * eb, t)
                    + flow.velocity(x - h * ea - h * eb, t)) / (4 * h * h)

        lap = sum(second(k, k) for k in range(3))
        grad_div = np.array([sum(second(i, k)[k] for k in range(3))
                             for i in range(3)])
        assert np.allclose(flow.visc_div(x, t), lap + grad_div, atol=1e-6)


class TestHandValues:
    def test_rigid_rotation(self):
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        j = flow.jacobian(np.array([0.3, 0.1, -0.2]), 0.0)
        assert np.allclose(j, -j.T)                       # antisymmetric
        assert diffops.divergence(j) == 0.0
        assert np.allclose(diffops.curl(j), [0, 0, 4.0])

    def test_shear(self):
        flow = make_field("shear", rate=3.0)
        j = flow.jacobian(np.zeros(3), 0.0)
        s = diffops.strain_rate(j)
        assert s[0, 1] == s[1, 0] == 1.5
        assert np.count_nonzero(s) == 2
        assert diffops.divergence(j) == 0.0
        assert np.allclose(diffops.curl(j), [0, 0, -3.0])

    def test_taylor_green_divergence_free(self, rng):
        flow = make_field("taylor_green", amplitude=1.0, wavenumber=1.0)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            assert abs(diffops.divergence(flow.jacobian(x, 0.0))) <= 1e-15

    def test_poly_linear_divergence(self):
        flow = make_field("poly_linear")
        assert diffops.divergence(flow.jacobian(np.array([0.4, 0.5, 0.6]), 0.0)) == 3.0

    def test_uniform_has_no_gradients(self):
        flow = make_field("uniform", velocity=[1, 2, 3])
        assert np.all(flow.jacobian(np.ones(3), 0.0) == 0.0)

    def test_linear_flows_match_their_closed_forms(self, rng):
        # v = m(t) v0(x) and dv/dt = m'(t) v0(x), with v0 each flow's closed
        # form; the cross product may differ from x @ J in round-off only.
        a, f = 0.4, 1.7
        xs, ts = rng.uniform(-3.0, 3.0, (1000, 3)), rng.uniform(-2.0, 2.0, 1000)
        m = (1.0 + a * np.sin(f * ts))[:, None]
        dm = (a * f * np.cos(f * ts))[:, None]
        u, rate, scale, omega = np.array([0.5, -1.0, 2.0]), 3.0, -1.3, [0.3, -0.8, 2.0]
        zero = np.zeros(len(ts))
        cases = [
            ("uniform", dict(velocity=u), np.broadcast_to(u, xs.shape), 0.0),
            ("shear", dict(rate=rate), np.stack([rate * xs[:, 1], zero, zero], axis=-1), 0.0),
            ("poly_linear", dict(scale=scale), scale * xs, 0.0),
            ("rigid_rotation", dict(omega=omega), tc.cross(omega, xs), 1e-14),
        ]
        for name, params, v0, tol in cases:
            flow = make_field(name, mod_amp=a, mod_freq=f, **params)
            for got, want in ((flow.velocity(xs, ts), m * v0),
                              (flow.dv_dt(xs, ts), dm * v0)):
                assert got.shape == want.shape, name
                assert np.max(np.abs(got - want)) <= tol, name


class TestPullBacks:
    def test_identity_frame_scalar(self):
        scalar = builtin_scalars()["gaussian_T"]
        observed = pull_back_scalar(make_frame("identity"), scalar)
        x = np.array([0.2, -0.3, 0.4])
        assert observed(x, 0.5) == scalar.value(x, 0.5)

    def test_translated_frame_sees_shifted_peak(self):
        scalar = make_field("gaussian_T", amplitude=2.0, width=0.5)
        frame = make_frame("uniform_translation", velocity=[1, 0, 0])
        observed = pull_back_scalar(frame, scalar)
        # at t=1 the moving origin sits at x=(1,0,0); X'=(-1,0,0) maps to x=0
        assert np.isclose(observed(np.array([-1.0, 0, 0]), 1.0), 2.0)

    def test_rotated_frame_composition(self, rng):
        scalar = builtin_scalars()["gaussian_T"]
        frame = make_frame("constant_rotation", axis=[0, 0, 1], rate=np.pi / 2)
        observed = pull_back_scalar(frame, scalar)
        alpha = frame.alpha(1.0)
        for _ in range(5):
            xp = rng.uniform(-1, 1, size=3)
            assert np.isclose(observed(xp, 1.0), scalar.value(alpha @ xp, 1.0))

    def test_corotating_pull_back_is_zero_field(self, rng):
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        frame = make_frame("constant_rotation", axis=[0, 0, 1], rate=2.0)
        observed = pull_back_velocity(frame, flow)
        for _ in range(10):
            assert np.max(np.abs(observed(rng.uniform(-1, 1, size=3),
                                          rng.uniform(0, 1)))) <= 1e-13

    def test_identity_pull_back_reproduces_field(self, rng):
        flow = builtin_flows()["taylor_green"]
        observed = pull_back_velocity(make_frame("identity"), flow)
        x = rng.uniform(-1, 1, size=3)
        assert np.allclose(observed(x, 0.9), flow.velocity(x, 0.9))


class TestCatalogApi:
    def test_unknown_name(self):
        with pytest.raises(UsageError, match="valid fields"):
            make_field("vortex_sheet")

    def test_bad_params(self):
        with pytest.raises(UsageError):
            make_field("gaussian_T", width=-1.0)
        with pytest.raises(UsageError):
            make_field("uniform", swirl=2)
        with pytest.raises(UsageError):
            make_field("shear", rate=10**400)

    def test_strided_coefficients(self):
        # The constant gradient is tiled over the points from a copy.
        coeffs = np.arange(6.0)[::2]
        xs = np.random.default_rng(2).uniform(-1.0, 1.0, (5, 3))
        g = make_field("linear_T", coeffs=coeffs).gradient(xs, np.zeros(5))
        assert np.array_equal(g, np.broadcast_to(coeffs, (5, 3)))

    def test_catalog_coverage(self):
        # at least: compressible, incompressible, rotational, irrotational
        # uniform, and a scalar with nonuniform gradient
        kinds = {name: type(FIELD_CATALOG[name]()) for name in FIELD_CATALOG}
        assert kinds["poly_linear"] is FlowField
        assert kinds["taylor_green"] is FlowField
        assert kinds["rigid_rotation"] is FlowField
        assert kinds["uniform"] is FlowField
        assert kinds["gaussian_T"] is ScalarField
        assert len(FIELD_CATALOG) == 7
