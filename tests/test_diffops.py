"""Finite-difference operators: exactness, convergence, reductions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from framekit import (FdConfig, RigidFrameMotion, UsageError, make_field,
                      pull_back_scalar, pull_back_velocity)
from framekit import diffops

from conftest import builtin_flows, builtin_frames, builtin_scalars


class TestFdJacobian:
    def test_constant_field_zero(self):
        field = lambda x, t: np.broadcast_to([1.0, -2.0, 3.0], np.shape(x))
        j = diffops.fd_jacobian(field, np.zeros(3), 0.0)
        assert np.max(np.abs(j)) <= 1e-12

    def test_linear_field_exact(self):
        m = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [4.0, 0.2, 2.0]])
        field = lambda x, t: x @ m.T
        for order in (2, 4):
            j = diffops.fd_jacobian(field, np.array([0.3, -0.7, 0.2]), 0.0,
                                    FdConfig(order=order))
            # J[k,i] = d v_i / d x_k = m[i,k]
            assert np.allclose(j, m.T, atol=1e-11)

    def test_matches_analytic_on_catalog(self):
        flow = make_field("taylor_green")
        x = np.array([0.25, -0.6, 0.0])
        j = diffops.fd_jacobian(flow.velocity, x, 0.0)
        assert np.max(np.abs(j - flow.jacobian(x, 0.0))) <= 1e-11

    def test_stencil_convergence_order4(self):
        flow = make_field("taylor_green", wavenumber=2.0)
        x = np.array([0.3, 0.4, 0.0])
        exact = flow.jacobian(x, 0.0)

        def residual(h):
            j = diffops.fd_jacobian(flow.velocity, x, 0.0, FdConfig(h=h))
            return np.max(np.abs(j - exact))

        ratio = residual(4e-2) / residual(2e-2)
        assert 12.0 <= ratio <= 20.0     # 2^4 for an order-4 stencil

    def test_stencil_convergence_order2(self):
        flow = make_field("taylor_green", wavenumber=2.0)
        x = np.array([0.3, 0.4, 0.0])
        exact = flow.jacobian(x, 0.0)

        def residual(h):
            j = diffops.fd_jacobian(flow.velocity, x, 0.0,
                                    FdConfig(h=h, order=2))
            return np.max(np.abs(j - exact))

        ratio = residual(1e-2) / residual(5e-3)
        assert 3.5 <= ratio <= 4.5


class TestSecondDerivatives:
    def test_quadratic_exact(self):
        # v_i = x_a A_iab x_b has constant second derivatives 2*sym(A_i)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3, 3))
        field = lambda x, t: np.einsum("iab,...a,...b->...i", a, x, x)
        hess = diffops.fd_second_derivatives(field, np.array([0.1, 0.2, 0.3]), 0.0)
        expected = np.einsum("iab->abi", a + np.swapaxes(a, 1, 2))
        assert np.max(np.abs(hess - expected)) <= 1e-8

    def test_viscous_divergence_matches_analytic(self):
        flow = make_field("taylor_green", amplitude=0.9, wavenumber=1.3)
        x = np.array([0.4, -0.2, 0.0])
        got = diffops.fd_viscous_divergence(flow.velocity, x, 0.0)
        assert np.max(np.abs(got - flow.visc_div(x, 0.0))) <= 1e-5

    def test_viscous_divergence_of_a_compressible_field(self):
        # v = (x0^2, x1 x2, 0) has div v = 2 x0 + x2, so the grad-div term
        # (2, 0, 1) adds to the Laplacian (2, 0, 0); catalog flows have none.
        field = lambda x, t: np.stack(
            [x[..., 0] ** 2, x[..., 1] * x[..., 2], 0.0 * x[..., 0]], axis=-1)
        got = diffops.fd_viscous_divergence(field, np.array([0.3, -0.4, 0.2]), 0.0)
        assert np.max(np.abs(got - [4.0, 0.0, 1.0])) <= 1e-6


class TestReductions:
    def test_identity_jacobian(self):
        j = np.eye(3)
        assert diffops.divergence(j) == 3.0
        assert np.all(diffops.curl(j) == 0.0)
        assert np.allclose(diffops.strain_rate(j), np.eye(3))

    def test_rigid_rotation_jacobian(self):
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        j = flow.jacobian(np.array([1.0, 0, 0]), 0.0)
        assert diffops.divergence(j) == 0.0
        assert np.allclose(diffops.curl(j), [0, 0, 4.0])
        assert np.max(np.abs(diffops.strain_rate(j))) == 0.0

    def test_shear_jacobian(self):
        flow = make_field("shear", rate=3.0)
        j = flow.jacobian(np.zeros(3), 0.0)
        assert diffops.divergence(j) == 0.0
        assert np.allclose(diffops.curl(j), [0, 0, -3.0])
        assert diffops.strain_rate(j)[0, 1] == 1.5

    @given(st.lists(st.floats(-100, 100), min_size=9, max_size=9))
    def test_divergence_equals_strain_trace(self, entries):
        j = np.array(entries).reshape(3, 3)
        assert diffops.divergence(j) == pytest.approx(
            np.trace(diffops.strain_rate(j)), abs=1e-12)

    def test_curl_is_the_explicit_contraction(self):
        # -2 axial(J), equal to (d_2 v_3 - d_3 v_2, ...) up to the sign of a zero.
        j = np.random.default_rng(4).normal(size=(200, 3, 3))
        j[:20] = 0.5 * (j[:20] + j[:20].swapaxes(-1, -2))
        want = np.stack([j[..., 1, 2] - j[..., 2, 1], j[..., 2, 0] - j[..., 0, 2],
                         j[..., 0, 1] - j[..., 1, 0]], axis=-1)
        assert np.array_equal(diffops.curl(j), want)

    @given(st.lists(st.floats(-100, 100), min_size=9, max_size=9))
    def test_curl_ignores_symmetric_part(self, entries):
        j = np.array(entries).reshape(3, 3)
        sym = 0.5 * (j + j.T)
        assert np.allclose(diffops.curl(j), diffops.curl(j - sym),
                           rtol=1e-12, atol=1e-9)


class TestStencilsLeaveBroadcastingToTheField:
    """12 points at one time: an observed field gets the one time, so its
    frame evaluates alpha at 1, 4 (the order-4 time stencil) and 1 times,
    not at 12, 48 and 12, once per point."""

    @pytest.mark.parametrize("operator, most", [(diffops.fd_jacobian, 1),
                                                (diffops.fd_time_derivative, 4),
                                                (diffops.fd_second_derivatives, 1)])
    def test_frame_evaluated_once_per_time(self, operator, most):
        wobble, times = builtin_frames()["wobble"], []

        def alpha(t):
            times.append(np.size(t))
            return wobble.alpha(t)

        frame = RigidFrameMotion("counted", y=np.zeros(3), alpha=alpha,
                                 dalpha_dt=wobble.dalpha_dt, d2alpha_dt2=wobble.d2alpha_dt2)
        field = pull_back_velocity(frame, builtin_flows()["taylor_green"])
        xs = np.random.default_rng(6).uniform(-1.0, 1.0, (12, 3))
        got = operator(field, xs, 0.4)
        assert sum(times) <= most
        assert np.array_equal(got, operator(field, xs, np.full(12, 0.4)))

    @pytest.mark.parametrize("operator, observed", [
        (diffops.fd_jacobian, lambda frame: pull_back_velocity(
            frame, builtin_flows()["taylor_green"])),
        (diffops.fd_gradient, lambda frame: pull_back_scalar(
            frame, builtin_scalars()["gaussian_T"]))])
    def test_frame_read_at_the_callers_times(self, operator, observed, monkeypatch):
        # N points at N sample times: the stencil axes lead the points only,
        # so the frame's jet is read at the times as given, of shape (N,).
        shapes, state = [], RigidFrameMotion.state

        def recorded(frame, t):
            shapes.append(np.shape(t))
            return state(frame, t)

        monkeypatch.setattr(RigidFrameMotion, "state", recorded)
        rng = np.random.default_rng(7)
        xs, ts = rng.uniform(-1.0, 1.0, (20, 3)), rng.uniform(0.0, 2.0, 20)
        got = operator(observed(builtin_frames()["wobble"]), xs, ts)
        assert shapes and set(shapes) == {(20,)}
        assert got.shape == (20, 3) + (3,) * (operator is diffops.fd_jacobian)


class TestSubstantialDerivative:
    def test_steady_uniform_flow_no_acceleration(self):
        flow = make_field("uniform", velocity=[3.0, 1.0, 0.0])
        x = np.array([0.4, 0.1, 0.0])
        accel = diffops.substantial_derivative(flow.velocity, flow.velocity(x, 0.0),
                                               x, 0.0)
        assert np.max(np.abs(accel)) <= 1e-12

    def test_centripetal_acceleration(self):
        # hand oracle: (v . grad) v for v = Omega x x at x=(1,0,0), Omega=(0,0,2)
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        x = np.array([1.0, 0.0, 0.0])
        accel = diffops.substantial_derivative(flow.velocity, flow.velocity(x, 0.0),
                                               x, 0.0)
        assert np.allclose(accel, [-4.0, 0.0, 0.0], atol=1e-9)

    def test_time_modulated_uniform(self):
        u, a, sigma = 2.0, 0.3, 1.5
        flow = make_field("uniform", velocity=[u, 0, 0], mod_amp=a,
                          mod_freq=sigma)
        t = 0.6
        x = np.array([0.2, -0.1, 0.5])
        accel = diffops.substantial_derivative(flow.velocity, flow.velocity(x, t),
                                               x, t)
        expected = np.array([u * a * sigma * np.cos(sigma * t), 0.0, 0.0])
        assert np.allclose(accel, expected, atol=1e-7)


class TestFdConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(UsageError):
            FdConfig(h=0.0)
        with pytest.raises(UsageError):
            FdConfig(h_t=-1e-5)

    def test_rejects_bad_order(self):
        with pytest.raises(UsageError):
            FdConfig(order=3)
