"""Batched evaluation contract: a batch of N points equals N single-point calls.

Fields, frames and the observed velocity are compared at 1e-12 absolute;
the finite-difference operators are compared at 1e-10 against per-point
reference loops kept in this file.
"""

import numpy as np
import pytest

from framekit import (FdConfig, RigidFrameMotion, make_field,
                      map_position_to_prime, observed_velocity,
                      omega_from_alpha, pull_back_scalar, pull_back_velocity)
from framekit import diffops
from framekit.errors import UsageError
from framekit.fields import FIELD_CATALOG, FlowField
from framekit.frames import FRAME_CATALOG

from conftest import builtin_flows, builtin_frames, builtin_scalars

VALUE_TOL = 1e-12
FD_TOL = 1e-10
N = 17


def batch_points(seed=11, n=N):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, 3)), rng.uniform(0.0, 1.0, size=n)


def per_point(fn, xs, ts):
    return np.array([fn(x, t) for x, t in zip(xs, ts)])


def all_fields():
    fields = {**builtin_flows(), **builtin_scalars()}
    fields["uniform_modulated"] = make_field("uniform", velocity=[0.5, -1.0, 2.0],
                                             mod_amp=0.3, mod_freq=2.0)
    return fields


def all_frames():
    frames = builtin_frames()
    wobble = frames["wobble"]
    # No analytic rates: exercises the finite-difference fallbacks.
    frames["fd_fallback"] = RigidFrameMotion("fd_fallback", y=wobble._y,
                                             alpha=wobble._alpha)
    return frames


def test_catalogs_are_covered():
    assert {f.name for f in all_fields().values()} >= set(FIELD_CATALOG)
    assert set(builtin_frames()) == set(FRAME_CATALOG)


@pytest.mark.parametrize("name", sorted(all_fields()))
def test_field_batch_equals_single_calls(name):
    field = all_fields()[name]
    xs, ts = batch_points()
    parts = (("velocity", "jacobian", "dv_dt", "visc_div")
             if isinstance(field, FlowField) else ("value", "gradient"))
    for part in parts:
        fn = getattr(field, part)
        batch = fn(xs, ts)
        single = per_point(fn, xs, ts)
        assert batch.shape == single.shape, part
        assert np.max(np.abs(batch - single)) <= VALUE_TOL, part


@pytest.mark.parametrize("name", sorted(all_fields()))
def test_field_points_and_times_broadcast(name):
    field = all_fields()[name]
    fn = field.velocity if isinstance(field, FlowField) else field.value
    xs, ts = batch_points(n=5)
    grid = fn(xs[:, None, :], ts[None, :4])             # (5, 4, ...)
    for i in range(5):
        for j in range(4):
            assert np.max(np.abs(grid[i, j] - fn(xs[i], ts[j]))) <= VALUE_TOL


@pytest.mark.parametrize("name", sorted(all_frames()))
def test_frame_batch_equals_single_calls(name):
    frame = all_frames()[name]
    xs, ts = batch_points()
    for part in ("y", "alpha", "dy_dt", "d2y_dt2", "dalpha_dt", "d2alpha_dt2"):
        fn = getattr(frame, part)
        batch = fn(ts)
        single = np.array([fn(t) for t in ts])
        assert batch.shape == single.shape, part
        assert np.max(np.abs(batch - single)) <= VALUE_TOL, part

    state = frame.state(ts)
    for k, t in enumerate(ts):
        one = frame.state(t)
        for part in ("alpha", "dalpha", "y", "dy", "omega"):
            assert np.max(np.abs(getattr(state, part)[k]
                                 - getattr(one, part))) <= VALUE_TOL, part

    ang = omega_from_alpha(frame, ts)
    assert np.max(np.abs(ang.omega - per_point(
        lambda x, t: omega_from_alpha(frame, t).omega, xs, ts))) <= VALUE_TOL
    assert np.max(np.abs(ang.domega_dt - per_point(
        lambda x, t: omega_from_alpha(frame, t).domega_dt, xs, ts))) <= VALUE_TOL
    assert np.max(np.abs(map_position_to_prime(frame, xs, ts) - per_point(
        lambda x, t: map_position_to_prime(frame, x, t), xs, ts))) <= VALUE_TOL


@pytest.mark.parametrize("name", sorted(all_frames()))
def test_observed_velocity_batch_equals_single_calls(name):
    frame = all_frames()[name]
    flow = builtin_flows()["taylor_green"]
    xs, ts = batch_points()
    batch = observed_velocity(frame, flow, xs, ts)
    single = per_point(lambda x, t: observed_velocity(frame, flow, x, t), xs, ts)
    assert np.max(np.abs(batch - single)) <= VALUE_TOL


@pytest.mark.parametrize("bad", [[0.1, np.nan, 0.2], [0.1, np.inf, 0.2],
                                 [[0.1, 0.2]], [0.1, 0.2]])
def test_observed_fields_reject_bad_points(bad):
    frame = all_frames()["constant_rotation"]
    observed = (lambda x, t: observed_velocity(frame, builtin_flows()["shear"], x, t),
                pull_back_velocity(frame, builtin_flows()["shear"]),
                pull_back_scalar(frame, builtin_scalars()["gaussian_T"]))
    for fn in observed:
        with pytest.raises(UsageError):
            fn(np.array(bad), np.zeros(np.shape(bad)[:-1]))


# --------------------------------------------------------------------------
# Per-point reference implementations of the finite-difference operators
# --------------------------------------------------------------------------

def ref_central(f, h, order):
    if order == 2:
        return (np.asarray(f(h)) - np.asarray(f(-h))) / (2.0 * h)
    return (-np.asarray(f(2.0 * h)) + 8.0 * np.asarray(f(h))
            - 8.0 * np.asarray(f(-h)) + np.asarray(f(-2.0 * h))) / (12.0 * h)


def ref_fd_spatial(field, x0, t, cfg):
    rows = [ref_central(lambda s: field(x0 + s * np.eye(3)[k], t), cfg.h, cfg.order)
            for k in range(3)]
    return np.array(rows)


def ref_fd_time_derivative(field, x0, t, cfg):
    return ref_central(lambda s: field(x0, t + s), cfg.h_t, cfg.order)


def ref_fd_second_derivatives(field, x0, t, cfg):
    h, e = cfg.h, np.eye(3)
    f0 = np.asarray(field(x0, t))
    hess = np.empty((3, 3) + f0.shape)
    for a in range(3):
        hess[a, a] = (field(x0 + h * e[a], t) - 2.0 * f0
                      + field(x0 - h * e[a], t)) / (h * h)
        for b in range(a + 1, 3):
            hess[a, b] = hess[b, a] = (
                field(x0 + h * e[a] + h * e[b], t) - field(x0 + h * e[a] - h * e[b], t)
                - field(x0 - h * e[a] + h * e[b], t)
                + field(x0 - h * e[a] - h * e[b], t)) / (4.0 * h * h)
    return hess


def fd_fields():
    frames, flows, scalars = builtin_frames(), builtin_flows(), builtin_scalars()
    return {
        "taylor_green": (flows["taylor_green"].velocity, True),
        "observed_wobble_taylor_green": (
            pull_back_velocity(frames["wobble"], flows["taylor_green"]), True),
        "observed_screw_shear": (
            pull_back_velocity(frames["screw"], flows["shear"]), True),
        "observed_screw_gaussian": (
            pull_back_scalar(frames["screw"], scalars["gaussian_T"]), False),
    }


@pytest.mark.parametrize("order", (2, 4))
@pytest.mark.parametrize("name", sorted(fd_fields()))
def test_fd_operators_match_per_point_loops(name, order):
    field, is_vector = fd_fields()[name]
    cfg = FdConfig(order=order)
    xs, ts = batch_points(seed=5)
    spatial = diffops.fd_jacobian if is_vector else diffops.fd_gradient
    cases = [
        (spatial, ref_fd_spatial),
        (diffops.fd_time_derivative, ref_fd_time_derivative),
        (diffops.fd_second_derivatives, ref_fd_second_derivatives),
    ]
    for batched, reference in cases:
        got = batched(field, xs, ts, cfg)
        want = np.array([reference(field, x, t, cfg) for x, t in zip(xs, ts)])
        assert got.shape == want.shape, batched.__name__
        assert np.max(np.abs(got - want)) <= FD_TOL, batched.__name__
        single = batched(field, xs[3], ts[3], cfg)
        assert np.max(np.abs(single - want[3])) <= FD_TOL, batched.__name__


@pytest.mark.parametrize("order", (2, 4))
@pytest.mark.parametrize("frame_name", ("wobble", "accelerated_translation"))
def test_fd_bits_do_not_depend_on_batch_shape(frame_name, order):
    # The stencil layout must not change a bit: points (12, 3), the same
    # points as (3, 4, 3), and one point at a time give equal arrays, and so
    # do the broadcast layouts of 12 points at one time and one point at 12
    # times against their per-point calls.
    frame = builtin_frames()[frame_name]
    vector = pull_back_velocity(frame, builtin_flows()["taylor_green"])
    scalar = pull_back_scalar(frame, builtin_scalars()["gaussian_T"])
    cfg = FdConfig(order=order)
    xs, ts = batch_points(seed=8, n=12)
    cases = [(diffops.fd_jacobian, vector), (diffops.fd_time_derivative, vector),
             (diffops.fd_second_derivatives, vector), (diffops.fd_gradient, scalar),
             (diffops.fd_time_derivative, scalar)]
    for operator, field in cases:
        flat = operator(field, xs, ts, cfg)
        grid = operator(field, xs.reshape(3, 4, 3), ts.reshape(3, 4), cfg)
        single = np.array([operator(field, x, t, cfg) for x, t in zip(xs, ts)])
        assert np.array_equal(grid.reshape(flat.shape), flat), operator.__name__
        assert np.array_equal(single, flat), operator.__name__
        for mixed, pairs in ((operator(field, xs, ts[0], cfg), [(x, ts[0]) for x in xs]),
                             (operator(field, xs[0], ts, cfg), [(xs[0], t) for t in ts])):
            single = np.array([operator(field, x, t, cfg) for x, t in pairs])
            assert np.array_equal(mixed, single), operator.__name__
