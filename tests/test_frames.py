"""Angular-velocity extraction, frame mapping, and observed velocities."""

import itertools
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import polynomial as npoly

from framekit import (InvariantViolationError, RigidFrameMotion, ScenarioError, UsageError,
                      make_field, make_frame, map_position_from_prime,
                      map_position_to_prime, observed_velocity,
                      omega_from_alpha)
from framekit import diffops, frames
from framekit import objectivity as obj
from framekit import scenario as fs
from framekit.diffops import FdConfig
from framekit.fields import pull_back_velocity
from framekit.scenario import HEADROOM
from framekit import tensor_core as tc

from conftest import builtin_flows, builtin_frames, seeded_rotation


def omega_by_index_summation(alpha, dalpha):
    """Independent oracle: omega_i = 1/2 eps_lik alpha_kj d(alpha_lj)/dt."""
    omega = np.zeros(3)
    for i in range(1, 4):
        total = 0.0
        for l in range(1, 4):
            for k in range(1, 4):
                for j in range(1, 4):
                    total += (tc.levi_civita(l, i, k)
                              * alpha[k - 1, j - 1] * dalpha[l - 1, j - 1])
        omega[i - 1] = 0.5 * total
    return omega


ROTATING = ("constant_rotation", "wobble", "screw")


class TestOmegaExtraction:
    def test_constant_rotation_rate(self):
        frame = make_frame("constant_rotation", axis=[0, 0, 1], rate=2.0)
        for t in (0.0, 0.37, 1.4):
            assert np.allclose(omega_from_alpha(frame, t).omega, [0, 0, 2],
                               atol=1e-12)

    def test_matches_index_summation_oracle(self):
        for name, frame in builtin_frames().items():
            for t in (0.0, 0.51, 0.93):
                oracle = omega_by_index_summation(frame.alpha(t),
                                                  frame.dalpha_dt(t))
                assert np.allclose(omega_from_alpha(frame, t).omega, oracle,
                                   atol=1e-12), name

    def test_constant_alpha_gives_zero(self):
        frame = make_frame("identity")
        ang = omega_from_alpha(frame, 0.8)
        assert np.all(ang.omega == 0.0)
        assert np.all(ang.domega_dt == 0.0)

    def test_rx_rz_composition_at_zero(self):
        # alpha(t) = Rx(a t) Rz(b t) has omega(0) = (a, 0, b); oracle is the
        # index summation with h-refined finite-difference alpha_dot.
        a, b = 0.8, 1.3
        frame = make_frame("wobble", angles_x=[0.0, a], angles_y=[0.0],
                           angles_z=[0.0, b])
        got = omega_from_alpha(frame, 0.0).omega
        assert np.allclose(got, [a, 0.0, b], atol=1e-12)
        for h in (1e-4, 5e-5):
            da_fd = (frame.alpha(h) - frame.alpha(-h)) / (2 * h)
            oracle = omega_by_index_summation(frame.alpha(0.0), da_fd)
            assert np.allclose(got, oracle, atol=4 * h * h)

    def test_eq_identity_spin_matrix(self):
        # eps_ijk omega_j = alpha_km d(alpha_im)/dt for all i, k
        for name, frame in builtin_frames().items():
            for t in (0.1, 0.77):
                m = frame.state(t).spin
                omega = omega_from_alpha(frame, t).omega
                for i in range(1, 4):
                    for k in range(1, 4):
                        lhs = sum(tc.levi_civita(i, j, k) * omega[j - 1]
                                  for j in range(1, 4))
                        assert abs(lhs - m[i - 1, k - 1]) <= 1e-10, name

    def test_spin_matrix_antisymmetric(self):
        for frame in builtin_frames().values():
            m = frame.state(0.63).spin
            assert np.max(np.abs(m + m.T)) <= 1e-10

    def test_time_shift_invariance_autonomous(self):
        frame = make_frame("constant_rotation", axis=[1, 1, 0], rate=0.9)
        w0 = omega_from_alpha(frame, 0.2).omega
        w1 = omega_from_alpha(frame, 0.2 + 5.0).omega
        assert np.allclose(w0, w1, atol=1e-12)

    def test_domega_constant_rotation_zero(self):
        frame = make_frame("constant_rotation", axis=[0, 1, 0], rate=1.7)
        assert np.allclose(omega_from_alpha(frame, 0.4).domega_dt, 0.0,
                           atol=1e-12)

    def test_domega_wobble_matches_fd(self):
        frame = builtin_frames()["wobble"]
        t, h = 0.45, 1e-5
        analytic = omega_from_alpha(frame, t).domega_dt
        fd = (omega_from_alpha(frame, t + h).omega
              - omega_from_alpha(frame, t - h).omega) / (2 * h)
        assert np.allclose(analytic, fd, atol=1e-8)


class TestFdFallback:
    def make_fd_frame(self, rate=2.0):
        analytic = make_frame("constant_rotation", axis=[0, 0, 1], rate=rate)
        return RigidFrameMotion("user", y=analytic.y, alpha=analytic._alpha), analytic

    def test_omega_agrees_with_analytic(self):
        fd_frame, analytic = self.make_fd_frame()
        for t in (0.0, 0.6, 1.3):
            w_fd = omega_from_alpha(fd_frame, t).omega
            w_an = omega_from_alpha(analytic, t).omega
            assert np.max(np.abs(w_fd - w_an)) <= 1e-5

    def test_richardson_ratio(self):
        # central differencing of alpha is O(h^2): halving h quarters the error
        analytic = make_frame("constant_rotation", axis=[0, 0, 1], rate=2.0)
        t = 0.4
        w_exact = omega_from_alpha(analytic, t).omega

        def omega_at_step(h):
            da = (analytic.alpha(t + h) - analytic.alpha(t - h)) / (2 * h)
            m = da @ analytic.alpha(t).T
            return np.array([m[2, 1], m[0, 2], m[1, 0]])

        e1 = np.linalg.norm(omega_at_step(1e-3) - w_exact)
        e2 = np.linalg.norm(omega_at_step(5e-4) - w_exact)
        assert 3.5 <= e1 / e2 <= 4.5

    @pytest.mark.parametrize("name", ["wobble", "screw", "accelerated_translation"])
    def test_second_derivative_fallbacks_match_analytic(self, name):
        # d2y_dt2 and d2alpha_dt2 (through omega_dot) of a frame given only
        # y and alpha, against the same frame's analytic rates.
        analytic = builtin_frames()[name]
        fallback = RigidFrameMotion("fd_" + name, y=analytic._y, alpha=analytic._alpha)
        ts = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(fallback.d2y_dt2(ts) - analytic.d2y_dt2(ts))) <= 1e-7
        assert np.max(np.abs(omega_from_alpha(fallback, ts).domega_dt
                             - omega_from_alpha(analytic, ts).domega_dt)) <= 5e-7

    def test_fallbacks_are_the_two_difference_rules_bit_for_bit(self):
        # A rate left out is a central (first) or three-point (second)
        # difference of the raw callable, with a step relative to |t|.
        y = builtin_frames()["accelerated_translation"]._y
        alpha = builtin_frames()["wobble"]._alpha
        frame = RigidFrameMotion("fd", y=y, alpha=alpha)
        t = np.linspace(-2.0, 2.0, 9)   # |t| below and above 1
        for f, first, second in ((y, frame.dy_dt, frame.d2y_dt2),
                                 (alpha, frame.dalpha_dt, frame.d2alpha_dt2)):
            lead = (-1,) + (1,) * (f(t).ndim - 1)
            h = 1e-6 * np.maximum(1.0, np.abs(t))
            assert np.array_equal(first(t), (f(t + h) - f(t - h)) / (2 * h).reshape(lead))
            h = 1e-4 * np.maximum(1.0, np.abs(t))
            assert np.array_equal(second(t), (f(t + h) - 2 * f(t) + f(t - h))
                                  / (h * h).reshape(lead))


class TestRotationalVelocityIdentity:
    def test_alpha_dot_equals_omega_cross(self, rng):
        # |d(alpha_ij)/dt X'_j - (omega x X)_i| <= tol at sampled (t, X')
        for name, frame in builtin_frames().items():
            for _ in range(20):
                t = rng.uniform(0, 1)
                xp = rng.uniform(-1, 1, size=3)
                x_rel = frame.alpha(t) @ xp
                lhs = frame.dalpha_dt(t) @ xp
                rhs = np.cross(omega_from_alpha(frame, t).omega, x_rel)
                assert np.max(np.abs(lhs - rhs)) <= 1e-8, name


class TestPositionMapping:
    def test_identity(self):
        frame = make_frame("identity")
        assert np.allclose(map_position_to_prime(frame, [1, 2, 3], 0.5),
                           [1, 2, 3])

    def test_point_at_moving_origin(self):
        frame = make_frame("uniform_translation", velocity=[1, 0, 0])
        assert np.allclose(map_position_to_prime(frame, [1, 0, 0], 1.0),
                           [0, 0, 0], atol=1e-15)

    def test_translate_then_rotate(self):
        # y=(1,0,0), alpha=Rz(90 deg): x=(2,0,0) -> X=(1,0,0) -> X'=(0,-1,0)
        frame = make_frame("screw", axis=[0, 0, 1], rate=np.pi / 2,
                           velocity=[1, 0, 0])
        assert np.allclose(map_position_to_prime(frame, [2, 0, 0], 1.0),
                           [0, -1, 0], atol=1e-15)

    def test_round_trip(self, rng):
        frame = builtin_frames()["wobble"]
        for _ in range(10):
            t = rng.uniform(0, 1)
            x = rng.uniform(-1, 1, size=3)
            xp = map_position_to_prime(frame, x, t)
            assert np.allclose(map_position_from_prime(frame, xp, t), x,
                               atol=1e-13)


class TestObservedVelocity:
    def test_frame_at_rest(self, rng):
        frame = make_frame("identity")
        flow = make_field("taylor_green")
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            assert np.allclose(observed_velocity(frame, flow, x, 0.3),
                               flow.velocity(x, 0.3))

    def test_corotating_frame_sees_rest(self, rng):
        flow = make_field("rigid_rotation", omega=[0, 0, 2.0])
        frame = make_frame("constant_rotation", axis=[0, 0, 1], rate=2.0)
        for _ in range(10):
            xp = rng.uniform(-1, 1, size=3)
            t = rng.uniform(0, 1)
            assert np.max(np.abs(observed_velocity(frame, flow, xp, t))) <= 1e-13

    def test_comoving_frame_sees_rest(self):
        flow = make_field("uniform", velocity=[2.5, 0, 0])
        frame = make_frame("uniform_translation", velocity=[2.5, 0, 0])
        assert np.allclose(observed_velocity(frame, flow, [0.3, 0.1, -0.2], 0.7),
                           0.0, atol=1e-15)

    def test_velocity_composition(self, rng):
        # v = y_dot + (V'_j alpha_ij) + omega x X, reassembled in s components
        flow = make_field("taylor_green")
        for name, frame in builtin_frames().items():
            for _ in range(5):
                t = rng.uniform(0, 1)
                x = rng.uniform(-1, 1, size=3)
                xp = map_position_to_prime(frame, x, t)
                vp = observed_velocity(frame, flow, xp, t)
                alpha = frame.alpha(t)
                omega = omega_from_alpha(frame, t).omega
                reassembled = (frame.dy_dt(t) + alpha @ vp
                               + np.cross(omega, x - frame.y(t)))
                assert np.max(np.abs(reassembled - flow.velocity(x, t))) \
                    <= 1e-8, name


class TestMakeFrame:
    def test_overflowing_param_is_a_usage_error(self):
        with pytest.raises(UsageError, match="bad parameters for frame"):
            make_frame("constant_rotation", axis=[0, 0, 1], rate=10**400)

    @pytest.mark.parametrize("name, params, message", [
        ("accelerated_translation", {"coeffs": [[0.0, 1.0], [0.0, 1.0]]},
         "expected polynomial coefficients for 3 axes"),
        ("constant_rotation", {"axis": [0, 0, 0], "rate": 1.0},
         "rotation axis must be nonzero"),
        ("spinning_top", {}, "unknown frame 'spinning_top'; valid frames: ["),
    ])
    def test_construction_error_is_a_usage_error(self, name, params, message):
        with pytest.raises(UsageError) as err:
            make_frame(name, **params)
        assert message in str(err.value)


class TestNonRigidRejection:
    def test_stretching_alpha_rejected(self):
        bad = RigidFrameMotion("bad", y=lambda t: np.zeros(3),
                               alpha=lambda t: (1 + 0.1 * t) * np.eye(3))
        with pytest.raises(InvariantViolationError):
            omega_from_alpha(bad, 0.5)


ACCESSORS = ("y", "alpha", "dy_dt", "d2y_dt2", "dalpha_dt", "d2alpha_dt2")


def kinematics(frame, t):
    """Every accessor's value and every FrameState field at t, by name."""
    values = {name: getattr(frame, name)(t) for name in ACCESSORS}
    values.update({f"state.{k}": v for k, v in vars(frame.state(t)).items()})
    return values


def fd_wobble():
    """The wobble frame given only y and alpha: every rate is a fallback."""
    wobble = builtin_frames()["wobble"]
    return RigidFrameMotion("fd_wobble", y=wobble._y, alpha=wobble._alpha)


def build_frame(name):
    return fd_wobble() if name == "fd_wobble" else builtin_frames()[name]


class TestKinematicsMemo:
    """A frame evaluates and validates its kinematics once per time array."""

    A = np.linspace(0.0, 1.0, 9)
    B = np.linspace(0.3, 1.7, 9)

    def test_one_raw_alpha_evaluation_per_time_array(self):
        # Every part of a user frame given as six callables (wobble's, its
        # constants returned as they are) is evaluated once per time array.
        calls = Counter()
        wobble = builtin_frames()["wobble"]

        def counted(name, f):
            def g(t):
                calls[name] += 1
                return f(t) if callable(f) else f
            return g

        frame = RigidFrameMotion("counted", **{
            part: counted(part, getattr(wobble, attr)) for part, attr in PARTS.items()})
        flow = builtin_flows()["taylor_green"]
        r = obj.check_velocity_gradient_relation(
            frame, flow, samples=20, rng=np.random.default_rng(5))
        assert r.passed
        assert calls == dict.fromkeys(PARTS, 1)
        calls.clear()
        # The sample times, then the time-derivative stencil around them.
        r = obj.check_acceleration_decomposition(
            frame, flow, samples=20, rng=np.random.default_rng(6))
        assert r.passed
        assert calls == dict.fromkeys(PARTS, 2)

    @pytest.mark.parametrize("name, computed", [("wobble", 3), ("screw", 4),
                                                ("accelerated_translation", 3)])
    def test_each_computed_part_is_validated_once_per_miss(self, monkeypatch, name, computed):
        # A miss validates each callable part's output once: a computed alpha
        # through require_rotation alone, every other part by vec3 or mat3.
        frame = builtin_frames()[name]
        assert sum(callable(getattr(frame, attr)) for attr in PARTS.values()) == computed
        calls = Counter()
        finite = tc._finite

        def counted(*args):
            calls["_finite"] += 1
            return finite(*args)

        monkeypatch.setattr(tc, "_finite", counted)
        frame.state(np.linspace(0.0, 1.0, 5))
        assert calls["_finite"] == computed

    def test_one_angle_evaluation_per_factor(self, monkeypatch):
        # alpha, its two rates and the state at one time array share each
        # rotation factor's angle polynomials, evaluated once per factor.
        calls = Counter()
        made = []
        polynomial = frames._polynomial

        def counted_polynomial(coeffs, *tail):
            index = len(made)
            made.append(tail)

            def counted(rate, f):
                def g(t):
                    calls[index, rate] += 1
                    return f(t)
                return g
            return tuple(counted(rate, f) if callable(f) else f
                         for rate, f in enumerate(polynomial(coeffs, *tail)))

        monkeypatch.setattr(frames, "_polynomial", counted_polynomial)
        frame = make_frame("wobble", angles_x=[0.0, 0.9, 0.4, 0.0],
                           angles_y=[0.3, 0.7, 0.0, 0.2],
                           angles_z=[0.0, 1.1, -0.3, 0.0])
        # The three angles, then the trajectory, whose parts are constants.
        assert made == [(), (), (), ((3,),)]
        frame.alpha(self.A)
        frame.dalpha_dt(self.A)
        frame.d2alpha_dt2(self.A)
        frame.state(self.A)
        assert calls == {(factor, rate): 1 for factor in range(3) for rate in range(3)}

    @pytest.mark.parametrize("name", [*builtin_frames(), "fd_wobble"])
    def test_interleaved_time_arrays_match_a_fresh_frame(self, name):
        frame = build_frame(name)
        tails = {key: v.shape[1:] for key, v in kinematics(frame, self.A).items()}
        for t in (self.A, self.B, self.A, self.A.reshape(-1, 1, 1)):
            want = kinematics(build_frame(name), t)
            for key, value in kinematics(frame, t).items():
                assert value.shape == t.shape + tails[key]
                assert np.array_equal(value, want[key]), (name, key)

    @pytest.mark.parametrize("shape", [(9,), (3, 3), (9, 1), (1, 9, 1)])
    def test_repeated_read_returns_the_stored_jet(self, shape):
        # The jet is kept at t's shape: a read at equal times of that shape
        # returns the same FrameState; the same values at another shape are
        # another jet, at that shape.
        frame = builtin_frames()["wobble"]
        t = self.A.reshape(shape)
        jet = frame.state(t)
        assert frame.state(t.copy()) is jet
        assert {v.shape[:len(shape)] for v in vars(jet).values()} == {shape}
        flat = frame.state(self.A)
        assert (flat is jet) == (shape == self.A.shape)
        assert np.array_equal(flat.alpha, jet.alpha.reshape(flat.alpha.shape))

    def test_a_callables_own_arrays_stay_writable(self):
        # The jet freezes views of its own, never the arrays a callable returns.
        wobble, returned = builtin_frames()["wobble"], []

        def dalpha_dt(t):
            returned.append(np.array(wobble.dalpha_dt(t)))
            return returned[-1]

        frame = RigidFrameMotion("rate", y=np.zeros(3), alpha=wobble._alpha,
                                 dalpha_dt=dalpha_dt)
        for t in (self.A, self.A.reshape(3, 3)):
            assert not frame.state(t).dalpha.flags.writeable
        assert len(returned) == 2 and all(a.flags.writeable for a in returned)

    @pytest.mark.parametrize("name", [*builtin_frames(), "fd_wobble"])
    def test_returned_arrays_are_read_only(self, name):
        frame = build_frame(name)
        for key, value in kinematics(frame, self.A).items():
            with pytest.raises(ValueError):
                value[0, 0] = 1.0

    def test_failed_validation_is_not_remembered(self):
        rotation = builtin_frames()["wobble"]._alpha

        def alpha(t):
            # A proper rotation up to t = 1.5, a scaled one after it.
            return rotation(t) * np.where(t > 1.5, 2.0, 1.0)[..., None, None]

        frame = RigidFrameMotion("breaks", y=lambda t: np.zeros(3), alpha=alpha)
        bad = np.linspace(1.0, 2.0, 9)
        frame.alpha(self.A)
        for _ in range(2):
            with pytest.raises(InvariantViolationError):
                frame.alpha(bad)
            with pytest.raises(InvariantViolationError):
                frame.state(bad)
            with pytest.raises(InvariantViolationError):
                omega_from_alpha(frame, bad)
        fresh = RigidFrameMotion("fresh", y=lambda t: np.zeros(3), alpha=alpha)
        want = kinematics(fresh, self.A)
        for key, value in kinematics(frame, self.A).items():
            assert np.array_equal(value, want[key]), key

    def test_threads_sharing_a_frame_read_their_own_times(self):
        frame = builtin_frames()["wobble"]
        times = (self.A, self.B)
        reference = [kinematics(build_frame("wobble"), t) for t in times]
        mismatches, errors = [], []

        def worker(k):
            try:
                for i in range(30):
                    j = (i + k) % 2
                    for key, value in kinematics(frame, times[j]).items():
                        if not np.array_equal(value, reference[j][key]):
                            mismatches.append((k, i, key))
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and mismatches == []


PARTS = {"y": "_y", "alpha": "_alpha", "dy_dt": "_dy", "d2y_dt2": "_d2y",
         "dalpha_dt": "_dalpha", "d2alpha_dt2": "_d2alpha"}
ROTATION = {"alpha", "dalpha_dt", "d2alpha_dt2"}
# The parts each catalog frame passes as constants: what does not move.
CONSTANT_PARTS = {
    "identity": set(PARTS),
    "uniform_translation": ROTATION | {"dy_dt", "d2y_dt2"},
    "accelerated_translation": ROTATION,
    "constant_rotation": {"y", "dy_dt", "d2y_dt2"},
    "wobble": {"y", "dy_dt", "d2y_dt2"},
    "screw": {"dy_dt", "d2y_dt2"},
}


class TestConstantKinematics:
    """A constant frame part is validated once and gives the same bits as
    the same constant given as a callable of t."""

    A = np.linspace(0.0, 1.0, 9)
    B = np.linspace(0.3, 1.7, 9)

    @pytest.mark.parametrize("name", sorted(CONSTANT_PARTS))
    def test_constants_match_callables(self, name):
        frame = builtin_frames()[name]
        parts = {part: getattr(frame, attr) for part, attr in PARTS.items()}
        assert {p for p, v in parts.items() if not callable(v)} == CONSTANT_PARTS[name]
        twin = RigidFrameMotion("twin", **{
            part: v if callable(v) else (lambda t, c=v: c) for part, v in parts.items()})
        for t in (self.A, self.B, self.A.reshape(-1, 1, 1)):
            want = kinematics(twin, t)
            for key, value in kinematics(frame, t).items():
                assert value.shape == want[key].shape, (name, key)
                assert np.array_equal(value, want[key]), (name, key)

    @pytest.mark.parametrize("name", sorted(CONSTANT_PARTS))
    def test_constants_read_through_the_memo(self, name):
        # A second read at the same times returns the stored arrays: a
        # constant is broadcast once per time array, like a computed value.
        frame = builtin_frames()[name]
        for t in (self.A, self.A.reshape(3, 3)):
            first = kinematics(frame, t)
            for key, value in kinematics(frame, t.copy()).items():
                assert value is first[key], (name, t.shape, key)

    @pytest.mark.parametrize("alpha", [2 * np.eye(3), np.diag([1.0, 1.0, -1.0])])
    def test_constant_alpha_must_be_a_proper_rotation(self, alpha):
        with pytest.raises(InvariantViolationError):
            RigidFrameMotion("bad", y=np.zeros(3), alpha=alpha)

    @pytest.mark.parametrize("part", sorted(PARTS))
    def test_malformed_constant_is_a_usage_error(self, part):
        good = np.eye(3) if part in ROTATION else np.zeros(3)
        for value in (np.full(good.shape, np.nan), np.zeros(2), np.stack([good] * 4)):
            with pytest.raises(UsageError):
                RigidFrameMotion("bad", **{"y": np.zeros(3), "alpha": np.eye(3), part: value})

    def test_constant_rotation_must_evolve_rigidly(self):
        with pytest.raises(InvariantViolationError, match="rigidly"):
            RigidFrameMotion("bad", y=np.zeros(3), alpha=np.eye(3), dalpha_dt=np.eye(3))

    def test_constants_are_copied(self):
        v = np.array([1.0, 2.0, 3.0])
        frame = RigidFrameMotion("copy", y=np.zeros(3), alpha=np.eye(3), dy_dt=v)
        v[0] = 9.0
        assert np.array_equal(frame.dy_dt(self.A)[0], [1.0, 2.0, 3.0])

    def test_constant_rotation_is_not_revalidated(self, monkeypatch):
        calls = Counter()
        orthonormalized = tc.orthonormalized

        def counted(alpha):
            calls["orthonormalized"] += 1
            return orthonormalized(alpha)

        frame = builtin_frames()["uniform_translation"]
        monkeypatch.setattr(tc, "orthonormalized", counted)
        r = obj.check_acceleration_decomposition(
            frame, builtin_flows()["taylor_green"], samples=20,
            rng=np.random.default_rng(6))
        assert r.passed
        assert calls == Counter()


def rodrigues(axis, angle_coeffs, t):
    """R, R' and R'' about a fixed axis at times t (...), each (..., 3, 3),
    differentiated term by term from R = I + sin K + (1 - cos) K^2."""
    n = np.asarray(axis, dtype=float)
    k = tc.skew(n / np.linalg.norm(n))
    k2 = k @ k
    c = np.polynomial.Polynomial(angle_coeffs)
    th, dth, d2th = (np.asarray(p(t))[..., None, None] for p in (c, c.deriv(1), c.deriv(2)))
    sin, cos = np.sin(th), np.cos(th)
    return (np.eye(3) + sin * k + (1.0 - cos) * k2,
            (cos * k + sin * k2) * dth,
            (-sin * k + cos * k2) * dth * dth + (cos * k + sin * k2) * d2th)


def product_rule(factors, t):
    """alpha, alpha' and alpha'' of the ordered product of (axis, angle
    coefficients) factors, by np.matmul of each factor's Rodrigues rates."""
    p, dp, d2p = rodrigues(*factors[0], t)
    for r, dr, d2r in (rodrigues(*f, t) for f in factors[1:]):
        p, dp, d2p = (np.matmul(p, r), np.matmul(dp, r) + np.matmul(p, dr),
                      np.matmul(d2p, r) + 2.0 * np.matmul(dp, dr) + np.matmul(p, d2r))
    return p, dp, d2p


def seeded_translation(name, seed):
    """A translating catalog frame with seeded params, and the ascending
    coefficients of each axis of its trajectory (of unequal degrees for
    accelerated_translation)."""
    rng = np.random.default_rng(seed)
    if name == "accelerated_translation":
        axes = [rng.uniform(-1.0, 1.0, n).tolist() for n in rng.permutation([4, 2, 1])]
        return make_frame(name, coeffs=axes), axes
    params = {"velocity": rng.uniform(-1.0, 1.0, 3).tolist()}
    if name == "screw":
        params.update(axis=rng.normal(size=3).tolist(), rate=rng.uniform(0.5, 3.0))
    return make_frame(name, **params), [[0.0, v] for v in params["velocity"]]


class TestRotationKinematicsOracle:
    """alpha and its rates against the product rule formed factor by factor
    with np.matmul, and y and its rates against numpy's polyval, at every
    batch shape a frame accepts.  A basis built from K.T = -K turns every
    factor the other way: a rigid frame on which every full_matrix row
    passes, and which the product-rule test fails."""

    SHAPES = ((), (7,), (4, 5), (3, 1, 2))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ROTATING)
    def test_alpha_and_rates_match_the_matmul_product_rule(self, name, seed):
        frame, factors = seeded_rotation(name, seed)
        rng = np.random.default_rng(100 + seed)
        for shape in self.SHAPES:
            t = rng.uniform(-1.5, 1.5, shape)
            want = product_rule(factors, t)
            got = (frame.alpha(t), frame.dalpha_dt(t), frame.d2alpha_dt2(t))
            for rate, (g, w) in enumerate(zip(got, want)):
                assert g.shape == shape + (3, 3)
                assert np.max(np.abs(g - w)) <= 1e-14 * max(1.0, np.max(np.abs(w))), \
                    (name, seed, shape, rate)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["uniform_translation", "accelerated_translation",
                                      "screw"])
    def test_trajectory_and_rates_match_polyval(self, name, seed):
        # y, y' and y'' against numpy's polyval of each axis' coefficients
        # and their derivatives, bit for bit up to the sign of a zero.
        frame, axes = seeded_translation(name, seed)
        rng = np.random.default_rng(200 + seed)
        for shape in self.SHAPES:
            t = rng.uniform(-1.5, 1.5, shape)
            got = (frame.y(t), frame.dy_dt(t), frame.d2y_dt2(t))
            for rate, g in enumerate(got):
                want = np.stack([npoly.polyval(t, npoly.polyder(c, rate)) for c in axes], -1)
                assert g.shape == shape + (3,)
                assert np.array_equal(g, want), (name, seed, shape, rate)

    @pytest.mark.parametrize("name", ["identity", "uniform_translation",
                                      "accelerated_translation"])
    def test_constant_rotation_spin_is_a_frozen_zero(self, name):
        frame = builtin_frames()[name]
        for shape in self.SHAPES:
            st = frame.state(np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape))
            for value, tail in ((st.spin, (3, 3)), (st.omega, (3,))):
                assert value.shape == shape + tail
                assert not value.flags.writeable
                assert np.array_equal(value, np.zeros(shape + tail))


# Finite coefficients, the signed zeros and the extremes among them, whose
# rates overflow to inf: 1 to 4 numbers, or of (3,) vectors.
COEFFICIENTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]))
POLYNOMIALS = st.one_of(st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 4), st.just(3))
                        ).flatmap(lambda shape: arrays(np.float64, shape, elements=COEFFICIENTS))


class TestPolynomialRates:
    """A frame polynomial's rates are numpy's polyder, computed without it."""

    @settings(max_examples=400)
    @given(coeffs=POLYNOMIALS)
    def test_rates_are_polyders_bit_for_bit(self, coeffs):
        # A part's coefficients: the constant itself, or those its Horner
        # closure holds; compared as bytes, so the sign of a zero counts.
        tail = coeffs.shape[1:]
        parts = frames._polynomial(coeffs, tail)[:3]
        for m, part in enumerate(parts):
            with np.errstate(over="ignore"):
                want = npoly.polyder(coeffs, m)
            got = np.array(part.args[0] if callable(part) else [part])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (coeffs, m)

    def test_a_run_loads_no_numpy_polynomial(self):
        # Its own process: this module and others import numpy.polynomial.
        code = ("import sys, framekit\n"
                "framekit.run_suite(framekit.load_scenario(sys.argv[1]))\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        root = Path(__file__).resolve().parents[1]
        paths = [str(Path(frames.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        run = subprocess.run([sys.executable, "-c", code, str(root / "scenarios/minimal.yaml")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


# The drawn frames of the bound's property: coefficients from COEFFICIENTS, or
# as often moderate ones, or ones whose rates or their squares come near the
# largest float, so that many frames pass the bound, some narrowly.
COEFFICIENT = st.one_of(COEFFICIENTS, st.floats(-4.0, 4.0),
                        st.sampled_from([1e100, -1e150, 1e152, -1e300, 1e305]))
POLYNOMIAL = st.lists(COEFFICIENT, min_size=1, max_size=4)
VECTOR = st.lists(COEFFICIENT, min_size=3, max_size=3)
BOUNDED = st.one_of(
    st.fixed_dictionaries({k: POLYNOMIAL for k in ("angles_x", "angles_y", "angles_z")}
                          ).map(lambda p: ("wobble", p)),
    st.fixed_dictionaries({"axis": VECTOR, "rate": COEFFICIENT, "velocity": VECTOR}
                          ).map(lambda p: ("screw", p)),
    st.fixed_dictionaries({"coeffs": st.lists(POLYNOMIAL, min_size=3, max_size=3)}
                          ).map(lambda p: ("accelerated_translation", p)))
STEPS = st.one_of(st.floats(min_value=5e-324, max_value=1e308), st.floats(1e-8, 1.0),
                  st.sampled_from([1e-5, 1e-3, 1.0, 1e300, 5e307, 1e308]))
ENDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10.0, 10.0),
                 st.sampled_from([-1.7e308, -1e308, -1.0, 0.0, 1.0, 1e307, 1e308, 1.7e308]))
# Two angle rates, A t^2 and A (1 - t)^2, that peak at different ends of the
# window, with A^2 near the largest float over the bound's headroom.
A = 5e151
PEAKS_APART = ("wobble", {"angles_x": [0.0, 0.0, 0.0, A / 3], "angles_y": [0.0, A, -A, A / 3],
                          "angles_z": [0.0]})


class TestCoefficientBound:
    """A catalog frame's ``bound`` is sound: where the parse accepts it, no
    number its jet computes overflows, every jet entry is within the bound,
    and every primed stencil point the pull-back validates is finite."""

    @settings(max_examples=200, deadline=None)
    @given(frame=BOUNDED, h=STEPS, h_t=STEPS, order=st.sampled_from([2, 4]),
           ends=st.tuples(ENDS, ENDS))
    @example(frame=PEAKS_APART, h=1e-3, h_t=1e-5, order=4, ends=(-1.0, 1.0))
    @example(frame=PEAKS_APART, h=1e-3, h_t=1e-5, order=4, ends=(1e307, 1.7e308))
    @example(frame=("screw", {"axis": [0, 0, 1], "rate": 1.5, "velocity": [1e305, 0, 0]}),
             h=5e307, h_t=1e-5, order=4, ends=(1e307, 1e308))
    # Signs that cancel at t = 1 + reach, but not at t = -reach, where y overflows.
    @example(frame=("accelerated_translation", {"coeffs": [[1.5e308, -1.5e308], [0.0], [0.0]]}),
             h=1e-3, h_t=0.1, order=4, ends=(-1.0, 1.0))
    def test_bound_holds_at_every_time_and_primed_point(self, frame, h, h_t, order, ends):
        name, params = frame
        try:
            built, fd = make_frame(name, **params), FdConfig(h=h, h_t=h_t, order=order)
        except UsageError:
            assume(False)
        reach = fd.reach(fd.h_t)
        jet, y = built.bound(max(map(abs, obj.TIME_WINDOW)) + reach)
        if not np.isfinite(HEADROOM * jet):
            return   # refused when a Scenario is made
        # 2,001 times across the window widened by reach on each side, spaced
        # from its middle so that no span overflows.
        lo, hi = obj.TIME_WINDOW
        t = 0.5 * (lo + hi) + np.linspace(-1.0, 1.0, 2001) * (0.5 * (hi - lo) + reach)
        with np.errstate(over="raise", invalid="raise"):
            jet_t = built.state(t)
        # Up to rounding: relative, and among subnormals absolute.
        slack = (1.0 + 1e-12, 1e-300)
        for part in ("dalpha", "d2alpha", "spin", "omega", "y", "dy", "d2y"):
            value = np.abs(getattr(jet_t, part))
            assert np.all(value <= jet * slack[0] + slack[1]), (part, value.max(), jet)
        assert np.all(np.abs(jet_t.y) <= y * slack[0] + slack[1])

        box = tuple(sorted(ends))
        assume(box[0] < box[1] and box[1] - box[0] < np.inf)
        try:   # a field and a check, so that the Scenario is not refused as vacuous
            scenario = fs.Scenario(frames=((name, params),), fields=(("uniform", {}),),
                                   checks=("div_invariance",), fd=fd, box=(box,) * 3)
        except ScenarioError:
            return
        xs = np.array(list(itertools.product(*scenario.box)) * 51)   # the corners
        ts = np.repeat(np.linspace(lo, hi, 51), 8)
        observed = pull_back_velocity(built, make_field("uniform"))
        with np.errstate(all="ignore"):   # the flow's values may overflow; no point may
            xp = map_position_to_prime(built, xs, ts)
            diffops.fd_jacobian(observed, xp, ts, fd)
            diffops.fd_second_derivatives(observed, xp, ts, fd)
            diffops.fd_time_derivative(observed, xp, ts, fd)
