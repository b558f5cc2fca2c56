"""Rigid moving observer frames: translation y(t) + rotation alpha(t).

A frame carries its analytic time derivatives where the family allows it;
one a user-supplied frame leaves out is bound at construction to a finite
difference of the raw callable (central for a first derivative, three-point
for a second), so every accessor returns a value.
Angular velocity is extracted from alpha and d(alpha)/dt by the
Levi-Civita contraction

    omega_i = 1/2 eps_lik alpha_kj d(alpha_lj)/dt

which in matrix form reads: M = d(alpha)/dt @ alpha.T is antisymmetric and
omega = axial-vector of M (M[i,k] = eps_ijk omega_j).

A frame quantity may be a constant array, validated once when the frame is
built, with zero derivatives.  A frame evaluates its whole kinematics at
a time array as one validated jet (``FrameState``) and remembers the jet of
the last time array until it is released (see ``RigidFrameMotion``), so the
several pull-backs of one check evaluate and validate each part once per
time array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import zip_longest

import numpy as np

from . import tensor_core as tc
from .errors import InvariantViolationError, UsageError

_EYE3 = np.eye(3)
# Relative steps for the finite-difference derivative fallbacks.
FD_TIME_STEP = 1e-6
SECOND_DIFF_STEP = 1e-4


@dataclass(frozen=True)
class AngularVelocity:
    """Rotation rate of the moving frame, in unprimed components."""
    omega: np.ndarray       # [1/s]
    domega_dt: np.ndarray   # [1/s^2]


@dataclass(frozen=True)
class FrameState:
    """The validated kinematics jet of a frame at times t of shape (...):
    alpha, its rates dalpha, d2alpha and the spin M = dalpha @ alpha.T, each
    (..., 3, 3); y, its rates dy, d2y and omega, the axial vector of spin,
    each (..., 3).  Read-only: the frame's memo of its last time array, until
    the frame is released."""
    alpha: np.ndarray
    dalpha: np.ndarray
    d2alpha: np.ndarray
    spin: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    d2y: np.ndarray
    omega: np.ndarray


def _evaluated(part, t, tail: tuple, check=None) -> np.ndarray:
    """A frame part at flat times t, of shape t.shape + tail: a constant as
    a zero-stride view, or a callable's output validated once, by check
    (default: a finite stack of tail-shaped entries), and broadcast to that shape."""
    if not callable(part):
        return tc.tiled(part, t.shape)
    a = check(part(t)) if check else tc._finite(part(t), tail, True)
    return a if a.shape == t.shape + tail else np.broadcast_to(a, t.shape + tail)


def _frozen(value, tail: tuple) -> np.ndarray:
    """A constant frame quantity of shape tail: validated, copied, read-only."""
    a = tc._finite(value, tail, False).copy()
    a.flags.writeable = False
    return a


def _difference(f, tail: tuple, order: int, t) -> np.ndarray:
    """d f / dt (order 1, central) or d^2 f / dt^2 (order 2, three-point) of
    the raw callable f at flat times t, with a step relative to |t|."""
    h = (FD_TIME_STEP if order == 1 else SECOND_DIFF_STEP) * np.maximum(1.0, np.abs(t))
    up, down = _evaluated(f, t + h, tail), _evaluated(f, t - h, tail)
    df = up - down if order == 1 else up - 2.0 * _evaluated(f, t, tail) + down
    return df / (2.0 * h if order == 1 else h * h).reshape(h.shape + (1,) * len(tail))


def _rates(raw, first, second, tail: tuple) -> tuple:
    """A quantity's first and second time derivatives: each as given (a
    constant frozen), zero for a constant quantity, else a finite difference
    of the raw callable (repairing alpha samples would perturb it)."""
    fallbacks = (tuple(partial(_difference, raw, tail, order) for order in (1, 2))
                 if callable(raw) else (_frozen(np.zeros(tail), tail),) * 2)
    return tuple(fallback if given is None
                 else given if callable(given) else _frozen(given, tail)
                 for given, fallback in zip((first, second), fallbacks))


def _spin(alpha, dalpha, t=None) -> tuple:
    """The spin M = dalpha @ alpha.T, checked antisymmetric (alpha evolving
    rigidly; t, when given, names the first time at which it is not), and
    omega, its axial vector."""
    m = dalpha @ tc.transpose(alpha)
    rate = np.maximum(1.0, tc.max_abs_entry(m))
    bad = tc.max_abs_entry(m + m.swapaxes(-1, -2)) > 1e-4 * rate
    if bad.any():
        at = "" if t is None else f" at t={t[bad][0]}"
        raise InvariantViolationError(f"alpha is not evolving rigidly{at}")
    return m, tc.axial(m)


class RigidFrameMotion:
    """The moving frame s': trajectory, rotation, and their time derivatives.

    Each of y, alpha and their four rates is a callable mapping times t
    (...) to (..., 3) vectors or (..., 3, 3) matrices (a constant output is
    broadcast), or a constant array of shape (3,) or (3, 3).  A constant is
    validated once, here (a constant alpha is also re-orthonormalized, and
    checked to evolve rigidly with a constant rate, whose spin and omega are
    kept), and read as a read-only zero-stride view of t's shape; the rates
    of a constant y or alpha default to zero.  A rate left out of a callable
    is a finite difference of the raw y or alpha callable (see the module
    docstring).  A computed ``alpha(t)`` is validated (and re-orthonormalized
    where slightly drifted), and ``state(t)`` checks rigid evolution.

    ``state(t)`` is the frame's one memo: at a new time array it evaluates
    every part once on the flattened times (every rule is elementwise in t),
    validates the jet, copies alpha, y and dy entries-first (constants too),
    reshapes its arrays to t's shape once, freezes them and keeps the jet
    with a key, the shape and bytes of the times: a read at the same key
    returns that same ``FrameState``, each accessor reading it.  A jet whose
    computation raised is not kept.  Key and jet are bound in one tuple that
    a new time array replaces in one assignment, so threads sharing a frame
    can at worst recompute a jet, never read another time array's.
    ``release()`` forgets the jet: the one sample driver releases its frame
    when a check call returns or raises, so a jet lives only as long as the
    call that made it (no two calls sample the same times).  A miss reads
    alpha and its two rates through ``_rotation``, which a built-in frame
    overrides to make the three from one fold.
    """

    def __init__(self, name: str, y, alpha, dy_dt=None, d2y_dt2=None,
                 dalpha_dt=None, d2alpha_dt2=None):
        self.name = name
        self._y = y if callable(y) else _frozen(y, (3,))
        self._alpha = (alpha if callable(alpha)
                       else _frozen(tc.orthonormalized(alpha), (3, 3)))
        self._dy, self._d2y = _rates(self._y, dy_dt, d2y_dt2, (3,))
        self._dalpha, self._d2alpha = _rates(self._alpha, dalpha_dt, d2alpha_dt2, (3, 3))
        self.release()
        self._steady_spin = None    # (spin, omega) of a constant rotation: it must be rigid
        if not (callable(self._alpha) or callable(self._dalpha)):
            spin = _spin(self._alpha, self._dalpha)
            self._steady_spin = tuple(_frozen(v, v.shape) for v in spin)

    def release(self) -> None:
        """Forget the last jet."""
        self._last = (None, None)   # (key, FrameState at the key's shape)

    def state(self, t) -> FrameState:
        """The validated kinematics jet at every time in t, read by the number rule."""
        if type(t) is not np.ndarray or t.dtype != float:
            t = tc._finite(t, (), True)
        key = (t.shape, t.tobytes())
        last = self._last
        if last[0] != key:
            last = self._last = (key, self._jet(np.frombuffer(key[1]), t.shape))
        return last[1]

    def _rotation(self, f) -> tuple:
        """alpha, dalpha and d2alpha at flat times f, each validated."""
        return (_evaluated(self._alpha, f, (3, 3), tc.orthonormalized),
                *(_evaluated(p, f, (3, 3)) for p in (self._dalpha, self._d2alpha)))

    def _jet(self, f, shape: tuple) -> FrameState:
        """The jet at flat times f, validated, reshaped to shape and frozen."""
        if not np.logical_and.reduce(np.isfinite(f), axis=None):
            raise UsageError(f"non-finite times in an array of shape {shape}")
        alpha, dalpha, d2alpha = self._rotation(f)
        y, dy, d2y = (_evaluated(p, f, (3,)) for p in (self._y, self._dy, self._d2y))
        spin, omega = ((tc.tiled(c, f.shape) for c in self._steady_spin)
                       if self._steady_spin else _spin(alpha, dalpha, f))
        # Read at every stencil point: copied once entries-first ("F"), a constant too.
        alpha, y, dy = (v.copy("F") for v in (alpha, y, dy))
        jet = FrameState(*(v.reshape(shape + v.shape[1:]) for v in
                           (alpha, dalpha, d2alpha, spin, y, dy, d2y, omega)))
        for v in vars(jet).values():
            v.flags.writeable = False
        return jet

    def y(self, t) -> np.ndarray:
        return self.state(t).y

    def alpha(self, t) -> np.ndarray:
        return self.state(t).alpha

    def dy_dt(self, t) -> np.ndarray:
        return self.state(t).dy

    def d2y_dt2(self, t) -> np.ndarray:
        return self.state(t).d2y

    def dalpha_dt(self, t) -> np.ndarray:
        return self.state(t).dalpha

    def d2alpha_dt2(self, t) -> np.ndarray:
        return self.state(t).d2alpha


def omega_from_alpha(frame: RigidFrameMotion, t) -> AngularVelocity:
    """Angular velocity (and its rate) of the frame at times t.

    omega is the axial vector of the spin M = alpha_dot @ alpha.T, and
    omega_dot that of M_dot = alpha_ddot @ alpha.T + alpha_dot @ alpha_dot.T,
    whose second term is symmetric, so its axial vector is zero: it is left out.
    """
    st = frame.state(t)
    mdot = frame.d2alpha_dt2(t) @ tc.transpose(st.alpha)
    return AngularVelocity(omega=st.omega, domega_dt=tc.axial(mdot))


def map_position_to_prime(frame: RigidFrameMotion, x_in_s, t) -> np.ndarray:
    """Primed components of the position relative to the moving origin."""
    return tc.matvec(frame.alpha(t).swapaxes(-1, -2),
                     tc.vec3(x_in_s, batch=True) - frame.y(t))


def map_position_from_prime(frame: RigidFrameMotion, x_prime, t) -> np.ndarray:
    """Inertial position of the point with primed coordinates x_prime."""
    return tc.matvec(frame.alpha(t), tc.vec3(x_prime, batch=True)) + frame.y(t)


def observed_velocity(frame: RigidFrameMotion, flow, x_prime, t) -> np.ndarray:
    """Primed components of the fluid velocity as seen from the moving frame.

    The observed velocity V satisfies the composition
    v = y_dot + V + omega x X (all as objective vectors); V is returned in
    primed components.  x_prime (..., 3) and t (...) broadcast; the frame
    state is computed once per entry of t.
    """
    st = frame.state(t)
    x_rel = tc.matvec(st.alpha, tc.vec3(x_prime, batch=True))  # X, unprimed
    v_obs = flow.velocity(x_rel + st.y, t) - st.dy
    v_obs -= tc.cross(st.omega, x_rel)   # into the difference: the same bits, one array less
    del x_rel                            # and X is freed before the last product
    return tc.matvec(st.alpha.swapaxes(-1, -2), v_obs)


# --------------------------------------------------------------------------
# Built-in frame families
# --------------------------------------------------------------------------

def _polynomial(coeffs, tail: tuple = ()) -> tuple:
    """The value and two rates of the polynomial with 1 to 4 ascending
    coefficients, numbers or (3,) vectors (tail (3,)): the constant
    coefficient where the degree is 0, else a callable of times t (...) by
    Horner's rule in polyval's order, less its first step c[-1] + 0 t.  A rate's
    coefficients are polyder's products, j d[j] of the one before, or c[:1] * 0.
    Last, ``bound(m)``: of the value and each rate, the largest sum |d_k| m^k of
    its entries, which bounds its Horner rule's every step at |t| <= m, m >= 1;
    by that rule on |d| at m, so a zero coefficient never meets an infinite power."""
    c = np.atleast_1d(tc._finite(coeffs, (), True))
    if c.shape[1:] != tail or not 1 <= len(c) <= 4:
        raise UsageError("polynomial coefficients must be 1 to 4 numbers (degree <= 3)")

    def at(c, t):
        x = t[..., None] if tail else t
        return reduce(lambda v, ci: ci + v * x, c[-2::-1], c[-1])
    j = np.arange(1.0, len(c)).reshape((-1,) + (1,) * len(tail))
    with np.errstate(over="ignore"):   # an overflowed rate is inf, and so is its bound
        rates = [c, c[1:] * j if len(c) > 1 else c[:1] * 0]
        rates.append(rates[1][1:] * j[:-1] if len(c) > 2 else c[:1] * 0)

    def bound(m):
        with np.errstate(over="ignore"):   # an overflowed bound is inf
            return [float(np.max(at(np.abs(d), np.float64(m)))) for d in rates]
    return (*(d[0] if len(d) == 1 else partial(at, list(d)) for d in rates), bound)


# The most times a rotation fold multiplies by a factor's block at once: the (times, 81)
# block, the largest array of a jet, then stays under 330 KB however many times the jet
# has (a grouped call's time stencil has thousands), at one loop step per 512 times.
FOLD_TIMES = 512
# Where the matrices (I, K, K^2, K, K^2, K, K^2) of the seven coefficients
# sit: block[j, a, c, b, d] = _PLACES[j, a, b] * matrix_j[c, d].
_PLACES = np.array([np.eye(3)] * 3 + [[[0, 0, 0], [2, 0, 0], [0, 1, 0]]] * 2
                   + [[[0, 0, 0], [0, 0, 0], [1, 0, 0]]] * 2)


class _RotationFactor:
    """One factor R(theta(t)) about a fixed axis, with time derivatives.

    For the axis' skew matrix K, R = I + sin K + (1 - cos) K^2, so R, R' and
    R'' are sums of I, K and K^2 with seven per-time coefficients, and the
    product-rule block [[R, 0, 0], [2R', R, 0], [R'', R', R]] is those
    coefficients times a constant (7, 81) basis."""

    def __init__(self, axis, angle_coeffs):
        n = tc.vec3(axis)   # scaled exactly by a power of two: its norm cannot over- or underflow
        n = np.ldexp(n, -np.frexp(np.abs(n).max())[1])
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise UsageError("rotation axis must be nonzero")
        k = tc.skew(n / norm)
        k2 = k @ k
        self.block = np.einsum("jab,jcd->jacbd", _PLACES,
                               np.array([_EYE3, k, k2, k, k2, k, k2])).reshape(7, 81)
        *self.angle, self.bound = _polynomial(angle_coeffs)

    def coefficients(self, t):
        """The (M, 7) weights of the basis at flat times t (M,), from one
        evaluation of each angle polynomial and one sine and cosine (a
        constant angle or rate is a number, broadcast over t)."""
        th, dth, d2th = (f(t) if callable(f) else f for f in self.angle)
        sin, cos = np.sin(th, out=np.empty(t.shape)), np.cos(th, out=np.empty(t.shape))
        dth2 = dth * dth
        return np.array([np.ones(t.shape), sin, 1.0 - cos, cos * dth, sin * dth,
                         cos * d2th - sin * dth2, sin * d2th + cos * dth2]).T


def _fold(factors, t) -> tuple:
    """The ordered product P of rotation factors and its rates P', P'' at flat
    times t (M,), folded by the product rule in one pass: from the first
    factor's [R'' | R' | R], each further factor turns the (M, 3, 9) row
    [P'' | P' | P] into [P'' R + 2 P' R' + P R'' | P' R + P R' | P R] =
    [P'' | P' | P] @ [[R, 0, 0], [2R', R, 0], [R'', R', R]], one stacked
    product, made FOLD_TIMES times at a time in place in the one row."""
    row = (factors[0].coefficients(t) @ factors[0].block[:, 54:]).reshape(-1, 3, 9)
    for factor in factors[1:]:
        weights = factor.coefficients(t)
        for start in range(0, len(t), FOLD_TIMES):
            piece = slice(start, start + FOLD_TIMES)
            row[piece] = row[piece] @ (weights[piece] @ factor.block).reshape(-1, 9, 9)
    return np.ascontiguousarray(row[:, :, 6:]), row[:, :, 3:6], row[:, :, :3]


class _BuiltInFrame(RigidFrameMotion):
    """A catalog frame: on the trajectory with ascending (3,) coefficients y, turned by
    the ordered product of rotation factors (alpha = I without any).  A rotation part
    read alone folds for itself; a jet's miss makes the three from one ``_fold``."""

    def __init__(self, name, factors=(), y=((0.0, 0.0, 0.0),)):
        self._factors = factors
        y, dy, d2y, self._y_bound = _polynomial(y, (3,))
        turn = [lambda t, i=i: _fold(factors, t)[i] for i in range(3)] if factors else [_EYE3]
        super().__init__(name, y, turn[0], dy, d2y, *turn[1:])

    def bound(self, m) -> tuple:
        """(jet, y) >= the largest |entry| of any jet part, and of y, at |t| <= m: with a_i,
        b_i factor i's angle rate bounds, P' <= sum a_i, P'' <= sum b_i + (sum a_i)^2."""
        angle, a, b = map(sum, zip((0.0, 0.0, 0.0), *(f.bound(m) for f in self._factors)))
        ys = self._y_bound(m)
        return max(angle, a, b + a * a, *ys), ys[0]

    def _rotation(self, f) -> tuple:
        if not self._factors:
            return super()._rotation(f)
        alpha, dalpha, d2alpha = _fold(self._factors, f)
        return tc.orthonormalized(alpha), tc.mat3(dalpha), tc.mat3(d2alpha)


def identity_frame() -> RigidFrameMotion:
    """The trivial frame: s' coincides with s for all time."""
    return _BuiltInFrame("identity")


def uniform_translation(velocity) -> RigidFrameMotion:
    """Galilean frame translating at constant velocity, no rotation."""
    return _BuiltInFrame("uniform_translation", y=[np.zeros(3), tc.vec3(velocity)])


def accelerated_translation(coeffs) -> RigidFrameMotion:
    """Translation with per-axis polynomial trajectory (degree <= 3)."""
    if not isinstance(coeffs, (list, tuple, np.ndarray)) or len(coeffs) != 3:
        raise UsageError("expected polynomial coefficients for 3 axes, as a list of 3 lists")
    axes = [np.atleast_1d(tc._finite(c, (), True)) for c in coeffs]
    # Shorter axes are padded with zeros; an empty one is no polynomial.
    y = list(zip_longest(*axes, fillvalue=0.0)) if all(map(len, axes)) else []
    return _BuiltInFrame("accelerated_translation", y=y)


def constant_rotation(axis, rate: float) -> RigidFrameMotion:
    """Frame spinning at constant rate about a fixed axis through o."""
    return _BuiltInFrame("constant_rotation",
                         [_RotationFactor(axis, [0.0, tc.number(rate, "rate")])])


def wobble(angles_x, angles_y, angles_z) -> RigidFrameMotion:
    """Rx(a(t)) @ Ry(b(t)) @ Rz(c(t)) with polynomial angles (degree <= 3)."""
    return _BuiltInFrame("wobble", [_RotationFactor(axis, angles) for axis, angles
                                    in zip(_EYE3, (angles_x, angles_y, angles_z))])


def screw(axis, rate: float, velocity) -> RigidFrameMotion:
    """Constant rotation about an axis combined with uniform translation."""
    return _BuiltInFrame("screw", [_RotationFactor(axis, [0.0, tc.number(rate, "rate")])],
                         y=[np.zeros(3), tc.vec3(velocity)])


FRAME_CATALOG = {
    "identity": identity_frame,
    "uniform_translation": uniform_translation,
    "accelerated_translation": accelerated_translation,
    "constant_rotation": constant_rotation,
    "wobble": wobble,
    "screw": screw,
}


def make_frame(name: str, **params) -> RigidFrameMotion:
    """Construct a built-in frame by catalog name."""
    if name not in FRAME_CATALOG:
        raise UsageError(f"unknown frame {name!r}; valid frames: {sorted(FRAME_CATALOG)}")
    try:
        return FRAME_CATALOG[name](**params)
    except (UsageError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad parameters for frame {name!r}: {exc}") from exc
