"""Central-difference operators for observed (pulled-back) fields.

Observed fields have no analytic derivatives, so the verification checks
differentiate them numerically.  All first derivatives use central
stencils of configurable order (2 or 4); second derivatives use order-2
stencils, which keeps the nested Navier-Stokes check inside its (looser)
tolerance budget.

Jacobians follow the package convention J[k, i] = d v_i / d x_k.

Operators take points x' (..., 3) and times t (...) as given and call the
field once, with the stencil offsets as a leading axis of the points (or
times); the field broadcasts points against times, so an observed field
builds its frame state once per time, not once per point.  curl is -2
``tensor_core.axial`` of J; the Newtonian law is built from D, ``strain_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .errors import UsageError

_AXES = np.eye(3)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference steps and stencil order."""
    h: float = 1e-3      # spatial step [m]
    h_t: float = 1e-5    # time step [s]
    order: int = 4       # central-difference order for first derivatives

    def __post_init__(self):
        if self.h <= 0.0 or self.h_t <= 0.0:
            raise UsageError("finite-difference steps must be positive")
        if self.order not in (2, 4):
            raise UsageError(f"unsupported stencil order {self.order}")


DEFAULT_FD = FdConfig()


# Central first-derivative offsets, in units of the step.
_OFFSETS = {2: np.array([1.0, -1.0]), 4: np.array([2.0, 1.0, -1.0, -2.0])}

# Order-2 second-derivative stencil, in units of h: the centre, +-e_a for
# each axis, then +e_a+e_b, +e_a-e_b, -e_a+e_b, -e_a-e_b for each pair a < b.
_PAIRS = ((0, 1), (0, 2), (1, 2))
_HESS_OFFSETS = np.array(
    [np.zeros(3)] + [s * e for e in _AXES for s in (1.0, -1.0)]
    + [sa * _AXES[a] + sb * _AXES[b] for a, b in _PAIRS
       for sa, sb in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))])


def _central(f, h, order):
    """First derivative from samples f[j] taken at offsets _OFFSETS[order][j] * h."""
    if order == 2:
        return (f[0] - f[1]) / (2.0 * h)
    return (-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * h)


def _batch(x_prime, t):
    """Points (..., 3) and times (...) as float arrays, unbroadcast, and the
    rank of the batch shape they broadcast to."""
    x, t = np.asarray(x_prime, dtype=float), np.asarray(t, dtype=float)
    return x, t, max(x.ndim - 1, t.ndim)


def _first(offsets, batch_ndim: int):
    """Stencil offsets (n, ...) with batch_ndim unit axes after the first: the
    stencil axis leads, so each sample f[j] is a basic index."""
    return offsets.reshape(offsets.shape[:1] + (1,) * batch_ndim + offsets.shape[1:])


def _spatial_derivative(field, x_prime, t, cfg):
    """d field / d x'_k by central differences, k on the axis after the batch."""
    x, t, rank = _batch(x_prime, t)
    # Points (n, ..., k, 3): stencil offset n, axis k.
    steps = _first(cfg.h * _OFFSETS[cfg.order][:, None, None] * _AXES, rank)
    return _central(field(x[..., None, :] + steps, t[..., None]), cfg.h, cfg.order)


def fd_jacobian(field, x_prime, t, cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """J[..., k, i] ~= d field_i / d x'_k by central differences."""
    return _spatial_derivative(field, x_prime, t, cfg)


def fd_gradient(field, x_prime, t, cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """Gradient (..., 3) of a scalar observed field by central differences."""
    return _spatial_derivative(field, x_prime, t, cfg)


def fd_time_derivative(field, x_prime, t, cfg: FdConfig = DEFAULT_FD):
    """Eulerian time derivative at fixed observed coordinates."""
    x, t, rank = _batch(x_prime, t)
    f = field(x, t + _first(cfg.h_t * _OFFSETS[cfg.order], rank))
    return _central(f, cfg.h_t, cfg.order)


def fd_second_derivatives(field, x_prime, t,
                          cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """All second derivatives H[..., a, b, i] ~= d^2 field_i / dx'_a dx'_b.

    Order-2 stencils; symmetric in (a, b) by construction.
    """
    x, t, rank = _batch(x_prime, t)
    h = cfg.h
    f = field(x + _first(h * _HESS_OFFSETS, rank), t)
    hess = np.empty((3, 3) + f.shape[1:])
    for a in range(3):
        hess[a, a] = (f[1 + 2 * a] - 2.0 * f[0] + f[2 + 2 * a]) / (h * h)
    for p, (a, b) in enumerate(_PAIRS):
        fpp, fpm, fmp, fmm = f[7 + 4 * p: 11 + 4 * p]
        hess[a, b] = hess[b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return np.moveaxis(hess, (0, 1), (rank, rank + 1))


def fd_viscous_divergence(field, x_prime, t,
                          cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """div(grad V + (grad V)^T) of a vector observed field, nested FD."""
    hess = fd_second_derivatives(field, x_prime, t, cfg)
    # component i: sum_k d_k d_k V_i + d_i d_k V_k
    lap = np.einsum("...kki->...i", hess)
    grad_div = np.einsum("...ikk->...i", hess)
    return lap + grad_div


def divergence(j) -> np.ndarray:
    """trace of the velocity gradient."""
    return np.trace(np.asarray(j, dtype=float), axis1=-2, axis2=-1)


def curl(j) -> np.ndarray:
    """Curl from a Jacobian with J[..., k, i] = d_k v_i: the axial vector of
    the antisymmetric part of J.T, so -2 axial(J)."""
    return -2.0 * tc.axial(np.asarray(j, dtype=float))


def strain_rate(j) -> np.ndarray:
    """Symmetric part of the velocity gradient."""
    j = np.asarray(j, dtype=float)
    return 0.5 * (j + tc.transpose(j))


def substantial_derivative(field, advecting, x, t,
                           cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """Material derivative d(field)/dt following the advecting velocity.

    ``advecting`` holds the velocity values (..., 3) at the points x and
    times t, in the SAME frame's components as ``field``; the operator acts
    componentwise on scalars, never on basis vectors.
    """
    j = fd_jacobian(field, x, t, cfg)
    return fd_time_derivative(field, x, t, cfg) + tc.matvec(tc.transpose(j), advecting)
