"""Central-difference operators for observed (pulled-back) fields.

Observed fields have no analytic derivatives, so the verification checks
differentiate them numerically.  All first derivatives use central
stencils of configurable order (2 or 4); second derivatives use order-2
stencils, which keeps the nested Navier-Stokes check inside its (looser)
tolerance budget.

Jacobians follow the package convention J[k, i] = d v_i / d x_k.

Operators take points x' (..., 3) and times t (...) as given and call the
field once, in one layout: stencil axes first, then the caller's batch,
then components.  Only the offset points (or times) carry the stencil
axes, so an observed field reads its frame's jet at the caller's times,
once per time, not once per point.  curl is -2 ``tensor_core.axial`` of J;
the Newtonian law is built from D, ``strain_rate``.  The three take a
caller's J validated; the checks call their unvalidated private forms on
FD Jacobians, so an overflowed one gives a non-finite residual, not an error.
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

    def __post_init__(self):   # a step's reach must be finite, as its stencil points are
        if not tc.is_number(self.order, integer=True) or self.order not in _OFFSETS:
            raise UsageError(f"unsupported stencil order {self.order!r}")
        for step in ("h", "h_t"):
            value = tc.number(getattr(self, step), f"finite-difference step {step}", 0.0,
                              strict=True)
            if np.isinf(self.reach(value)):
                raise UsageError(f"finite-difference step {step} = {value!r} reaches past the "
                                 f"largest float at stencil order {self.order}")

    def reach(self, step: float) -> float:
        """How far the first-derivative stencil reaches: its largest offset times step."""
        return float(_OFFSETS[self.order][0]) * step


# Central first-derivative offsets, in units of the step, the largest first.
_OFFSETS = {2: np.array([1.0, -1.0]), 4: np.array([2.0, 1.0, -1.0, -2.0])}

DEFAULT_FD = FdConfig()

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


def _stencil(x_prime, t, offsets, lead: int = 1):
    """Points (..., 3) and times (...) as float arrays, unbroadcast; the offsets
    with a unit axis per batch axis after their lead stencil axes, so stencil
    axes lead, the caller's batch follows, then components; the batch's rank."""
    x, t = np.asarray(x_prime, dtype=float), np.asarray(t, dtype=float)
    rank = max(x.ndim - 1, t.ndim)
    return x, t, offsets.reshape(offsets.shape[:lead] + (1,) * rank + offsets.shape[lead:]), rank


def _points(x, dx):
    """The stencil points x + dx, stored entries-first (``tensor_core.planes``)."""
    return np.add(x, dx, out=tc.planes(np.broadcast_shapes(x.shape, dx.shape)[:-1]))


def _behind(d, lead: int, rank: int):
    """d with its lead derivative axes moved behind the rank batch axes."""
    return d.transpose((*range(lead, lead + rank), *range(lead), *range(lead + rank, d.ndim)))


def _spatial_derivative(field, x_prime, t, cfg):
    """d field / d x'_k by central differences, k on the axis after the batch:
    the points are (n, k, ..., 3), stencil offset n along axis k."""
    x, t, dx, rank = _stencil(x_prime, t, cfg.h * _OFFSETS[cfg.order][:, None, None] * _AXES, 2)
    return _behind(_central(field(_points(x, dx), t), cfg.h, cfg.order), 1, rank)


def fd_jacobian(field, x_prime, t, cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """J[..., k, i] ~= d field_i / d x'_k by central differences."""
    return _spatial_derivative(field, x_prime, t, cfg)


def fd_gradient(field, x_prime, t, cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """Gradient (..., 3) of a scalar observed field by central differences."""
    return _spatial_derivative(field, x_prime, t, cfg)


def fd_time_derivative(field, x_prime, t, cfg: FdConfig = DEFAULT_FD):
    """Eulerian time derivative at fixed observed coordinates."""
    x, t, dt, _ = _stencil(x_prime, t, cfg.h_t * _OFFSETS[cfg.order])
    return _central(field(x, t + dt), cfg.h_t, cfg.order)


def fd_second_derivatives(field, x_prime, t,
                          cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """All second derivatives H[..., a, b, i] ~= d^2 field_i / dx'_a dx'_b.

    Order-2 stencils; symmetric in (a, b) by construction.
    """
    h = cfg.h
    x, t, dx, rank = _stencil(x_prime, t, h * _HESS_OFFSETS)
    f = field(_points(x, dx), t)
    # Laid out as f is, a vector field's values entries-first or a scalar's.
    hess = np.empty_like(f[:9]).reshape((3, 3) + f.shape[1:])
    for a in range(3):
        hess[a, a] = (f[1 + 2 * a] - 2.0 * f[0] + f[2 + 2 * a]) / (h * h)
    for p, (a, b) in enumerate(_PAIRS):
        fpp, fpm, fmp, fmm = f[7 + 4 * p: 11 + 4 * p]
        hess[a, b] = hess[b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return _behind(hess, 2, rank)


def fd_viscous_divergence(field, x_prime, t,
                          cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """div(grad V + (grad V)^T) of a vector observed field, nested FD."""
    hess = fd_second_derivatives(field, x_prime, t, cfg)
    # component i: sum_k d_k d_k V_i + d_i d_k V_k
    lap = np.einsum("...kki->...i", hess)
    grad_div = np.einsum("...ikk->...i", hess)
    return lap + grad_div


def _divergence(j) -> np.ndarray:
    """trace of velocity gradients j (..., 3, 3), not validated."""
    return np.trace(j, axis1=-2, axis2=-1)


def _curl(j) -> np.ndarray:
    """Curl from Jacobians j (..., 3, 3) with J[..., k, i] = d_k v_i, not
    validated: the axial vector of the antisymmetric part of J.T, so -2 axial(J)."""
    return -2.0 * tc.axial(j)


def _strain_rate(j) -> np.ndarray:
    """Symmetric part of velocity gradients j (..., 3, 3), not validated."""
    return 0.5 * (j + tc.transpose(j))


def divergence(j) -> np.ndarray:
    """trace of the velocity gradient, as ``_divergence``, with j validated."""
    return _divergence(tc.mat3(j))


def curl(j) -> np.ndarray:
    """Curl from a Jacobian, as ``_curl``, with j validated."""
    return _curl(tc.mat3(j))


def strain_rate(j) -> np.ndarray:
    """Symmetric part of the velocity gradient, as ``_strain_rate``, with j validated."""
    return _strain_rate(tc.mat3(j))


def substantial_derivative(field, advecting, x, t,
                           cfg: FdConfig = DEFAULT_FD) -> np.ndarray:
    """Material derivative d(field)/dt following the advecting velocity.

    ``advecting`` holds the velocity values (..., 3) at the points x and
    times t, in the SAME frame's components as ``field``; the operator acts
    componentwise on scalars, never on basis vectors.
    """
    j = fd_jacobian(field, x, t, cfg)
    return fd_time_derivative(field, x, t, cfg) + tc.matvec(tc.transpose(j), advecting)
