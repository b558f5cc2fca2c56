"""Exact group-law oracles for the pull-back, free of finite differences.

A frame B given in the coordinates of a frame A composes with A into the
product frame C: x = y_A + alpha_A (y_B + alpha_B x''), so

    alpha_C = alpha_A alpha_B,        y_C = y_A + alpha_A y_B,

and the rates of both follow by the product rule.  The paper's velocity
composition v = y' + V + omega x X is algebraic, so seeing a flow through A
and then through B equals seeing it through C to round-off, and
omega_C = omega_A + alpha_A omega_B.  The report checks rest on finite
differences at tolerances of 1e-6 to 1e-4, which these laws do not need.

Each law fails on a mutant that every row of full_matrix (seeds 42 and 7)
passes.  Relative errors, the worst over the cases below:
  - omega biased in ``observed_velocity``, ``tc.cross(st.omega * (1 + 1e-7),
    x_rel)``: the velocity composition errs by 6.3e-8 where B's origin moves
    (a bias of every omega alike is otherwise consistent), and A followed by
    its inverse by 1.0e-7 where A's origin moves;
  - omega_dot biased in ``omega_from_alpha``, ``tc.axial(mdot) * (1 + 1e-7)``:
    omega_dot_C errs by 1.0e-7;
  - the mapped position offset by 1e-7 in ``map_position_to_prime``,
    ``... - frame.y(t) + 1e-7``: the position composition errs by 8.5e-8.
Unmutated, every law holds within 5e-15.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from framekit import (RigidFrameMotion, map_position_to_prime, observed_velocity,
                      omega_from_alpha, pull_back_velocity)
from framekit import tensor_core as tc

from conftest import builtin_flows, seeded_rotation

# Relative to the largest entry compared (at least 1).
TOL = 1e-12
PAIRS = [("wobble", "screw"), ("screw", "wobble"), ("constant_rotation", "screw")]
BINOMIAL = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0))


def leibniz(op, f, g, n):
    """The n-th time derivative of op(f, g), for a bilinear op and the lists
    f and g of two factors' derivatives: sum_k C(n, k) op(f_k, g_(n-k))."""
    return lambda t: sum(c * op(f[k](t), g[n - k](t)) for k, c in enumerate(BINOMIAL[n]))


def jets(frame):
    """(alpha, alpha', alpha'') and (y, y', y'') of a frame, as callables."""
    return ((frame.alpha, frame.dalpha_dt, frame.d2alpha_dt2),
            (frame.y, frame.dy_dt, frame.d2y_dt2))


def rigid(name, alpha, y):
    """The frame with the derivative lists alpha and y of callables."""
    return RigidFrameMotion(name, y=y[0], dy_dt=y[1], d2y_dt2=y[2],
                            alpha=alpha[0], dalpha_dt=alpha[1], d2alpha_dt2=alpha[2])


def product_frame(a, b):
    """B, given in A's coordinates, composed with A: every rate analytic."""
    (alpha_a, y_a), (alpha_b, y_b) = jets(a), jets(b)
    turned = [leibniz(tc.matvec, alpha_a, y_b, n) for n in range(3)]
    return rigid("product", [leibniz(np.matmul, alpha_a, alpha_b, n) for n in range(3)],
                 [lambda t, n=n: y_a[n](t) + turned[n](t) for n in range(3)])


def inverse_frame(a):
    """A's inverse, given in A's coordinates: alpha_A.T and -alpha_A.T y_A."""
    alpha_a, y_a = jets(a)
    alpha = [lambda t, f=f: tc.transpose(f(t)) for f in alpha_a]
    return rigid("inverse", alpha,
                 [lambda t, n=n: -leibniz(tc.matvec, alpha, y_a, n)(t) for n in range(3)])


def seen_through(frame, flow):
    """The flow as frame observes it, itself a flow in frame's coordinates."""
    return SimpleNamespace(velocity=pull_back_velocity(frame, flow))


def frames_and_samples(names, seed, n=200):
    a, b = (seeded_rotation(name, 31 * seed + k)[0] for k, name in enumerate(names))
    rng = np.random.default_rng(seed)
    return a, b, rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.5, 1.5, n)


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= TOL * scale


FLOW = builtin_flows()["taylor_green"]   # modulated: its time terms are nonzero


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("names", PAIRS, ids="-".join)
def test_observing_through_a_then_b_is_observing_through_their_product(names, seed):
    a, b, x, t = frames_and_samples(names, seed)
    assert_close(observed_velocity(b, seen_through(a, FLOW), x, t),
                 observed_velocity(product_frame(a, b), FLOW, x, t))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("names", PAIRS, ids="-".join)
def test_angular_velocities_compose(names, seed):
    a, b, _, t = frames_and_samples(names, seed)
    w_a, w_b = omega_from_alpha(a, t), omega_from_alpha(b, t)
    w_c = omega_from_alpha(product_frame(a, b), t)
    assert_close(w_c.omega, w_a.omega + tc.matvec(a.alpha(t), w_b.omega))
    assert_close(w_c.domega_dt, w_a.domega_dt + tc.matvec(a.dalpha_dt(t), w_b.omega)
                 + tc.matvec(a.alpha(t), w_b.domega_dt))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("names", PAIRS, ids="-".join)
def test_positions_compose(names, seed):
    a, b, x, t = frames_and_samples(names, seed)
    assert_close(map_position_to_prime(b, map_position_to_prime(a, x, t), t),
                 map_position_to_prime(product_frame(a, b), x, t))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["wobble", "screw"])
def test_a_then_its_inverse_gives_back_the_inertial_velocity(name, seed):
    a, _, x, t = frames_and_samples((name, name), seed)
    assert_close(observed_velocity(inverse_frame(a), seen_through(a, FLOW), x, t),
                 FLOW.velocity(x, t))
