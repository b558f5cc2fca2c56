"""Component-transform rules, orthogonality handling, index utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from framekit import InvariantViolationError, UsageError
from framekit import objectivity as obj
from framekit import tensor_core as tc


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-np.pi, np.pi)
    k = tc.skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


finite_vec = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)


class TestLeviCivita:
    def test_even_permutation(self):
        assert tc.levi_civita(1, 2, 3) == 1.0

    def test_repeated_index(self):
        assert tc.levi_civita(1, 1, 2) == 0.0

    def test_odd_permutation(self):
        assert tc.levi_civita(1, 3, 2) == -1.0

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            tc.levi_civita(0, 1, 2)
        with pytest.raises(UsageError):
            tc.levi_civita(1, 2, 4)

    def test_epsilon_delta_identity(self):
        # sum_j eps_ijk eps_ljn = delta_il delta_kn - delta_in delta_kl
        for i in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    for n in range(1, 4):
                        lhs = sum(tc.levi_civita(i, j, k) * tc.levi_civita(l, j, n)
                                  for j in range(1, 4))
                        rhs = (float(i == l) * float(k == n)
                               - float(i == n) * float(k == l))
                        assert lhs == rhs


class TestTensor2Transform:
    def test_isotropic_commutes(self):
        p = 3.7
        alpha = rot_z(0.9)
        assert np.allclose(tc.transform_tensor2(p * np.eye(3), alpha),
                           p * np.eye(3), atol=1e-14)

    def test_rz90_diagonal(self):
        # oracle: explicit double contraction T'_{j1 j2} = T_{i1 i2} a_{i1 j1} a_{i2 j2}
        t = np.diag([1.0, 2.0, 3.0])
        alpha = rot_z(np.pi / 2)
        oracle = np.zeros((3, 3))
        for j1 in range(3):
            for j2 in range(3):
                oracle[j1, j2] = sum(t[i1, i2] * alpha[i1, j1] * alpha[i2, j2]
                                     for i1 in range(3) for i2 in range(3))
        got = tc.transform_tensor2(t, alpha)
        assert np.allclose(got, oracle, atol=1e-14)
        assert np.allclose(got, np.diag([2.0, 1.0, 3.0]), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(3, 3))
        alpha = random_rotation(rng)
        assert np.allclose(
            tc.untransform_tensor2(tc.transform_tensor2(t, alpha), alpha),
            t, atol=1e-13)

    @pytest.mark.parametrize("transform", [tc.transform_tensor2,
                                           tc.untransform_tensor2,
                                           obj.check_stress_tensor_transform])
    @pytest.mark.parametrize("alpha", [2 * np.eye(3), np.diag([1.0, 1.0, -1.0])],
                             ids=["scaled", "reflection"])
    def test_non_rotation_rejected(self, transform, alpha):
        with pytest.raises(InvariantViolationError):
            transform(np.eye(3), alpha)

    @given(st.integers(0, 2**32 - 1))
    def test_trace_and_frobenius_preserved(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(3, 3))
        tp = tc.transform_tensor2(t, random_rotation(rng))
        assert np.isclose(np.trace(tp), np.trace(t), rtol=1e-12, atol=1e-12)
        assert np.isclose(np.linalg.norm(tp), np.linalg.norm(t),
                          rtol=1e-12, atol=1e-12)


class TestOrthogonality:
    def test_identity_residual_zero(self):
        assert tc.check_orthogonality(np.eye(3)) == 0.0

    def test_closed_form_rotation(self):
        assert tc.check_orthogonality(rot_z(np.deg2rad(37))) <= 1e-15

    def test_scaled_identity(self):
        assert tc.check_orthogonality(2 * np.eye(3)) == 3.0

    def test_repair_small_drift(self):
        drifted = rot_z(0.4) + 1e-8 * np.ones((3, 3))
        fixed = tc.orthonormalized(drifted)
        assert tc.check_orthogonality(fixed) <= 1e-14
        assert np.max(np.abs(fixed - rot_z(0.4))) <= 1e-7

    def test_reject_large_drift(self):
        with pytest.raises(InvariantViolationError):
            tc.orthonormalized(rot_z(0.4) + 1e-3 * np.ones((3, 3)))

    def test_reject_reflection(self):
        with pytest.raises(InvariantViolationError):
            tc.orthonormalized(np.diag([1.0, 1.0, -1.0]))

    def test_reject_one_reflection_in_a_stack(self):
        stack = np.stack([rot_z(0.1 * k) for k in range(5)])
        stack[3] = stack[3] @ np.diag([1.0, -1.0, 1.0])
        with pytest.raises(InvariantViolationError):
            tc.require_rotation(stack)
        tc.require_rotation(np.delete(stack, 3, axis=0))

    @given(st.integers(0, 2**32 - 1))
    def test_orthogonality_identities(self, seed):
        # alpha_ij alpha_ik = delta_jk and alpha_ij alpha_kj = delta_ik
        alpha = random_rotation(np.random.default_rng(seed))
        assert tc.check_orthogonality(alpha) <= 1e-9


class TestSkewAxial:
    @given(finite_vec, finite_vec)
    def test_skew_matches_cross(self, w, x):
        scale = (1 + np.max(np.abs(w))) * (1 + np.max(np.abs(x)))
        assert np.allclose(tc.skew(w) @ np.asarray(x), np.cross(w, x),
                           atol=1e-12 * scale)

    @given(finite_vec)
    def test_axial_inverts_skew(self, w):
        assert np.allclose(tc.axial(tc.skew(w)), w)


class TestTiled:
    def test_zero_stride_view_of_a_constant(self):
        a = np.arange(9.0).reshape(3, 3)
        view = tc.tiled(a, (4, 5))
        assert view.shape == (4, 5, 3, 3) and view.strides[:2] == (0, 0)
        assert np.array_equal(view, np.broadcast_to(a, (4, 5, 3, 3)))
        assert view.flags.writeable
        a.flags.writeable = False
        assert not tc.tiled(a, (2,)).flags.writeable


class TestBatchShapeBits:
    """A stacked primitive gives each entry the bits of its single call."""

    def test_matvec_batched_equals_per_point(self):
        rng = np.random.default_rng(11)
        alpha = np.stack([random_rotation(rng) for _ in range(6)])
        x = rng.normal(size=(6, 3, 4, 3))
        batched = tc.matvec(alpha[:, None, None], x)
        assert batched.shape == x.shape
        for i, j, k in np.ndindex(x.shape[:-1]):
            assert np.array_equal(batched[i, j, k], tc.matvec(alpha[i], x[i, j, k]))

    def test_cross_equals_numpy_cross(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 50, 3))
        stack = rng.normal(size=(4, 50, 3))
        for u, v in ((a, b), (a[0], b), (a, b[0]), (a[0], b[0]), (a, stack)):
            assert np.array_equal(tc.cross(u, v), np.cross(u, v))
