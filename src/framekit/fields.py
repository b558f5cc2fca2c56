"""Manufactured analytic flow and scalar fields in the inertial frame.

Every catalog entry carries hand-derived derivatives that serve as exact
oracles for the numerical operators.  Jacobians use the package-wide
convention J[k, i] = d v_i / d x_k (derivative direction on the row).

Fields are steady by default; a modulation factor (1 + mod_amp *
sin(mod_freq * t)) multiplies the whole field so the Eulerian time terms
of substantial derivatives are exercised with nonzero values.

Every callable takes points x of shape (..., 3) and times t of shape (...),
broadcast against each other, and returns one value per point: (...) for
scalars, (..., 3) for vectors and (..., 3, 3) for Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import tensor_core as tc
from .errors import UsageError
from .frames import RigidFrameMotion, map_position_from_prime, observed_velocity


@dataclass(frozen=True)
class FlowField:
    """Analytic velocity field with exact space and time derivatives."""
    name: str
    velocity: Callable    # (x, t) -> (..., 3)  [m/s]
    jacobian: Callable    # (x, t) -> (..., 3, 3), J[k,i] = d v_i / d x_k  [1/s]
    dv_dt: Callable       # (x, t) -> (..., 3)  Eulerian time derivative [m/s^2]
    visc_div: Callable    # (x, t) -> (..., 3)  div(grad v + (grad v)^T)  [m/s per m^2]


@dataclass(frozen=True)
class ScalarField:
    """Analytic scalar field (temperature, pressure) with exact derivatives."""
    name: str
    value: Callable       # (x, t) -> (...)
    gradient: Callable    # (x, t) -> (..., 3)


@dataclass(frozen=True)
class ObservedVectorField:
    """Primed components of the flow as seen from a moving frame."""
    frame: RigidFrameMotion
    flow: FlowField

    def __call__(self, x_prime, t) -> np.ndarray:
        return observed_velocity(self.frame, self.flow, x_prime, t)


@dataclass(frozen=True)
class ObservedScalarField:
    """A scalar field read off at moving-frame coordinates."""
    frame: RigidFrameMotion
    scalar: ScalarField

    def __call__(self, x_prime, t) -> np.ndarray:
        return self.scalar.value(map_position_from_prime(self.frame, x_prime, t), t)


# The pull-backs over (X', t): pull_back_velocity(frame, flow), pull_back_scalar(frame, scalar).
pull_back_velocity, pull_back_scalar = ObservedVectorField, ObservedScalarField


def field_group(members, size: int):
    """One field of the members' kind over points x and times t whose last
    batch axes both hold size samples of each member in turn: each callable
    runs each member's own on that member's slice of x and t and joins the
    values, laid out as the first member's are.  A group of one is its member."""
    if len(members) == 1:
        return members[0]
    kind = type(members[0])
    return kind(name="+".join(m.name for m in members), **{
        part: partial(_joined, [getattr(m, part) for m in members], size)
        for part in kind.__dataclass_fields__ if part != "name"})


def _joined(parts, size: int, x, t) -> np.ndarray:
    x, t = np.asarray(x), np.asarray(t)
    total, axis = size * len(parts), max(x.ndim - 1, t.ndim) - 1
    values = [f(x[..., i:i + size, :], t[..., i:i + size])
              for f, i in zip(parts, range(0, total, size))]
    shape = list(values[0].shape)
    shape[axis] = total
    return np.concatenate(values, axis, out=np.empty_like(values[0], shape=shape))


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------

def _modulation(mod_amp, mod_freq):
    """m(t) and its rate; exactly 1 and 0 when mod_amp is 0."""
    mod_amp, mod_freq = tc.number(mod_amp, "mod_amp"), tc.number(mod_freq, "mod_freq")
    return (lambda t: 1.0 + mod_amp * np.sin(mod_freq * np.asarray(t, dtype=float)),
            lambda t: mod_amp * mod_freq * np.cos(mod_freq * np.asarray(t, dtype=float)))


def _per_point(scale, value, x, tail=(3,)) -> np.ndarray:
    """scale (...) times value: one entry per point of x, or a constant tiled."""
    scale, lead = np.asarray(scale), np.shape(x)[:-1]
    return (scale.reshape(scale.shape + (1,) * len(tail))
            * (value if np.shape(value) == lead + tail else tc.tiled(value, lead)))


def _steady_flow(name, v0, j0, visc0, mod_amp, mod_freq) -> FlowField:
    """Lift steady closed forms (constants allowed) to a time-modulated field."""
    m, dm = _modulation(mod_amp, mod_freq)
    return FlowField(
        name=name,
        velocity=lambda x, t: _per_point(m(t), v0(x), x),
        jacobian=lambda x, t: _per_point(m(t), j0(x), x, (3, 3)),
        dv_dt=lambda x, t: _per_point(dm(t), v0(x), x),
        visc_div=lambda x, t: _per_point(m(t), visc0(x), x))


def _affine_flow(name, u, j, mod_amp, mod_freq) -> FlowField:
    """v_i = u_i + x_k J[k, i]: a constant Jacobian j, so zero viscous divergence."""
    return _steady_flow(name, lambda x: u + np.matmul(x, j, out=tc.planes(np.shape(x)[:-1])),
                        lambda x: j, lambda x: np.zeros(3), mod_amp, mod_freq)


def _steady_scalar(name, f0, g0, mod_amp, mod_freq) -> ScalarField:
    m, _ = _modulation(mod_amp, mod_freq)
    return ScalarField(
        name=name,
        value=lambda x, t: _per_point(m(t), f0(x), x, ()),
        gradient=lambda x, t: _per_point(m(t), g0(x), x))


def uniform_flow(velocity=(1.0, 0.0, 0.0), mod_amp=0.0, mod_freq=1.0) -> FlowField:
    """Constant velocity everywhere: irrotational, shear-free."""
    return _affine_flow("uniform", tc.vec3(velocity), np.zeros((3, 3)), mod_amp, mod_freq)


def shear_flow(rate=3.0, mod_amp=0.0, mod_freq=1.0) -> FlowField:
    """Plane shear v = (rate * x2, 0, 0)."""
    j = np.zeros((3, 3))
    j[1, 0] = tc.number(rate, "rate")   # d v_1 / d x_2
    return _affine_flow("shear", np.zeros(3), j, mod_amp, mod_freq)


def rigid_rotation_flow(omega=(0.0, 0.0, 2.0), mod_amp=0.0, mod_freq=1.0) -> FlowField:
    """Solid-body rotation v = omega x x: zero divergence and strain rate."""
    j = -tc.skew(tc.vec3(omega))   # J[k,i] = d_k (w x x)_i = skew(w).T = -skew(w)
    return _affine_flow("rigid_rotation", np.zeros(3), j, mod_amp, mod_freq)


def taylor_green_flow(amplitude=1.0, wavenumber=1.0, mod_amp=0.0, mod_freq=1.0) -> FlowField:
    """2-D Taylor-Green cell: incompressible, smooth, nontrivial Laplacian."""
    a, k = tc.number(amplitude, "amplitude"), tc.number(wavenumber, "wavenumber")

    def v0(x):
        v = tc.planes(np.shape(x)[:-1])
        np.multiply(a * np.cos(k * x[..., 0]), np.sin(k * x[..., 1]), out=v[..., 0])
        np.multiply(-a * np.sin(k * x[..., 0]), np.cos(k * x[..., 1]), out=v[..., 1])
        v[..., 2] = 0.0
        return v

    def j0(x):
        s1, c1 = np.sin(k * x[..., 0]), np.cos(k * x[..., 0])
        s2, c2 = np.sin(k * x[..., 1]), np.cos(k * x[..., 1])
        j = np.zeros(np.shape(x)[:-1] + (3, 3))
        j[..., 0, 0] = -a * k * s1 * s2    # d v_1 / d x_1
        j[..., 1, 0] = a * k * c1 * c2     # d v_1 / d x_2
        j[..., 0, 1] = -a * k * c1 * c2    # d v_2 / d x_1
        j[..., 1, 1] = a * k * s1 * s2     # d v_2 / d x_2
        return j

    # Divergence-free, so div(grad v + grad v^T) reduces to the Laplacian.
    def visc0(x):
        return -2.0 * k * k * v0(x)

    return _steady_flow("taylor_green", v0, j0, visc0, mod_amp, mod_freq)


def poly_linear_flow(scale=1.0, mod_amp=0.0, mod_freq=1.0) -> FlowField:
    """v = scale * (x1, x2, x3): constant divergence 3*scale, zero curl."""
    return _affine_flow("poly_linear", np.zeros(3), tc.number(scale, "scale") * np.eye(3),
                        mod_amp, mod_freq)


def gaussian_scalar(amplitude=1.0, width=0.8, center=(0.0, 0.0, 0.0),
                    mod_amp=0.0, mod_freq=1.0) -> ScalarField:
    """Gaussian bump with nonuniform gradient."""
    a, w = tc.number(amplitude, "amplitude"), tc.number(width, "width")
    if not w > 0.0:
        raise UsageError("gaussian width must be positive")
    c = tc.vec3(center)

    def f0(x):
        r = np.asarray(x, dtype=float) - c
        return a * np.exp(-0.5 * np.sum(r * r, axis=-1) / (w * w))

    def g0(x):
        r = np.asarray(x, dtype=float) - c
        return -f0(x)[..., None] / (w * w) * r

    return _steady_scalar("gaussian_T", f0, g0, mod_amp, mod_freq)


def linear_scalar(coeffs=(1.0, -2.0, 0.5), offset=0.0,
                  mod_amp=0.0, mod_freq=1.0) -> ScalarField:
    """Affine scalar T = coeffs . x + offset with constant gradient."""
    c = tc.vec3(coeffs).copy()   # contiguous, so the gradient tiles it
    b = tc.number(offset, "offset")

    def f0(x):   # summed entry by entry, as tc.matvec: a BLAS dot's bits follow the layout
        x = np.asarray(x, dtype=float)
        return x[..., 0] * c[0] + x[..., 1] * c[1] + x[..., 2] * c[2] + b

    return _steady_scalar("linear_T", f0, lambda x: c, mod_amp, mod_freq)


FIELD_CATALOG = {
    "uniform": uniform_flow,
    "shear": shear_flow,
    "rigid_rotation": rigid_rotation_flow,
    "taylor_green": taylor_green_flow,
    "poly_linear": poly_linear_flow,
    "gaussian_T": gaussian_scalar,
    "linear_T": linear_scalar,
}


def make_field(name: str, **params):
    """Construct a catalog field (flow or scalar) by id."""
    if name not in FIELD_CATALOG:
        raise UsageError(f"unknown field {name!r}; valid fields: {sorted(FIELD_CATALOG)}")
    try:
        return FIELD_CATALOG[name](**params)
    except (UsageError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad parameters for field {name!r}: {exc}") from exc
