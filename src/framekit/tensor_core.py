"""3-vector / 3x3-matrix arithmetic and component transforms.

Transforms act on stacks: vectors of shape (..., 3) and matrices of shape
(..., 3, 3), with the leading axes broadcast against each other.

Two orthonormal frames are related by the direction-cosine matrix
``alpha`` with ``alpha[i, j] = e_i . e'_j`` (0-based storage; all public
index arguments are 1-based).  Columns of ``alpha`` are the unprimed
components of the primed basis vectors, so component transforms read

    x' = alpha.T @ x          (vector, to primed components)
    x  = alpha   @ x'         (vector, back)
    T' = alpha.T @ T @ alpha  (second-order tensor)

Gradient-like matrices everywhere in this package store the derivative
direction on the row: ``J[k, i] = d v_i / d x_k``.

``is_number`` is the one number rule: ``number`` and ``integer`` read scalars
by it, and ``_finite`` (``vec3``, ``mat3``) arrays.
``require_rotation`` is the one validator of a stack of rotations, and
``orthonormalized`` adds the repair of drift beyond round-off (polar factor);
``congruence(t, a) = a @ t @ a.T`` applies an alpha validated once, unchecked.

Shapes are public; memory order is not.  The evaluation path stores its
stacks entries-first (``planes``: each entry contiguous over the batch), and
any input layout gives the same bits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvariantViolationError, UsageError

# Residual below which a matrix is accepted as orthogonal outright: round-off.
ORTH_TOL = 1e-13
# Residual up to which a drifted rotation is re-orthonormalized; above it
# the matrix is rejected as not a rotation at all.
ORTH_REPAIR_LIMIT = 1e-6

_I3 = np.eye(3)
# Entries that a float cast reads (or warns on) but that are no numbers.
_NOT_NUMBERS = (bool, np.bool_, str, bytes, complex, np.complexfloating, type(None))


def is_number(value, integer: bool = False) -> bool:
    """The number rule: an int or float (with integer, an int) that is finite
    as a float, numpy's real scalars included; never a bool, str, bytes, None."""
    if isinstance(value, (float, np.floating)):   # finite as a Python float (not NaN)
        return not integer and -math.inf < float(value) < math.inf
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -sys.float_info.max <= int(value) <= sys.float_info.max)


def number(value, what: str, low: float = -math.inf, strict: bool = False) -> float:
    """A number >= low (> low if strict) as a float; else UsageError naming it what."""
    x = float(value) if is_number(value) else math.nan
    if not (x > low if strict else x >= low):   # as a NaN, no number is either
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise UsageError(f"{what} must be a finite number{bound}, got {value!r}")
    return x


def integer(value, what: str, low: int, high=math.inf) -> int:
    """An integer number in [low, high] as an int; else UsageError naming it what."""
    if not (is_number(value, integer=True) and low <= value <= high):
        bound = "" if high == math.inf else f" and <= {high:,}"
        raise UsageError(f"{what} must be an integer >= {low}{bound}, got {value!r}")
    return int(value)


def _finite(a, shape: tuple, batch: bool) -> np.ndarray:
    """a as an array of finite floats of shape shape (its trailing shape, with batch)."""
    if type(a) is not np.ndarray or a.dtype != float:
        if any(issubclass(k, _NOT_NUMBERS) for k in set(map(type, np.asarray(a, object).flat))):
            raise UsageError("entries must be numbers, not booleans, strings or None")
        try:
            a = np.asarray(a, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(str(exc)) from None
    if (a.shape[a.ndim - len(shape):] if batch else a.shape) != shape:
        raise UsageError(f"expected {'a stack of ' if batch else ''}shape {shape}, got {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):   # all(), less its wrappers
        raise UsageError(f"non-finite entries in an array of shape {a.shape}")
    return a


def vec3(components, batch: bool = False) -> np.ndarray:
    """Validate finite float 3-vectors: shape (3,), or (..., 3) with batch."""
    return _finite(components, (3,), batch)


def mat3(entries) -> np.ndarray:
    """Validate a finite float stack of 3x3 matrices, shape (..., 3, 3)."""
    return _finite(entries, (3, 3), True)


def transpose(a) -> np.ndarray:
    """Swap the last two axes of a stack of matrices (contiguous: matmul on
    a strided view of a stack of 3x3 matrices is several times slower)."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def planes(lead: tuple) -> np.ndarray:
    """An empty stack of 3-vectors, shape lead + (3,), stored entries-first:
    each component's values over lead are contiguous, so elementwise work on
    it and its operands runs long inner loops, not loops of length 3."""
    return np.empty((3,) + lead).transpose((*range(1, len(lead) + 1), 0))


def tiled(a, lead: tuple) -> np.ndarray:
    """A zero-stride view of C-contiguous a over leading axes lead."""
    return np.ndarray(lead + a.shape, a.dtype, a, 0, (0,) * len(lead) + a.strides)


def matvec(a, x) -> np.ndarray:
    """Stacked a @ x, broadcasting the leading axes.  Summed entry by entry,
    (a_i0 x_0 + a_i1 x_1) + a_i2 x_2, so no batch shape changes a bit."""
    x = np.asarray(x)
    return (a[..., 0] * x[..., None, 0] + a[..., 1] * x[..., None, 1]
            + a[..., 2] * x[..., None, 2])


def cross(a, b) -> np.ndarray:
    """Stacked cross product a x b, broadcasting the leading axes; equal to
    np.cross bit for bit, at a fraction of its overhead."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = planes(np.broadcast_shapes(a.shape, b.shape)[:-1])
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def levi_civita(i: int, j: int, k: int) -> float:
    """Permutation symbol for 1-based indices in {1, 2, 3}."""
    i, j, k = (integer(idx, "levi_civita index", 1, 3) for idx in (i, j, k))
    return (i - j) * (j - k) * (k - i) / 2


def max_abs_entry(m):
    """max |m_ij| of each matrix of a (..., 3, 3) stack, over a contiguous
    entries-first copy: reducing two trailing length-3 axes is slower."""
    e = np.abs(m.reshape(-1, 9).T, order="C")
    return np.maximum.reduce(e).reshape(m.shape[:-2])


def check_orthogonality(alpha):
    """Max deviation of alpha.T@alpha and alpha@alpha.T from the identity,
    one value per matrix of a (..., 3, 3) stack."""
    a = mat3(alpha)
    at = transpose(a)
    return np.maximum(max_abs_entry(at @ a - _I3), max_abs_entry(a @ at - _I3))


def require_rotation(alpha):
    """Validated (..., 3, 3) stack of proper rotations, and each residual."""
    residual = check_orthogonality(alpha)   # validates the stack
    a = np.asarray(alpha, dtype=float)
    if (residual > ORTH_REPAIR_LIMIT).any():
        raise InvariantViolationError(
            f"matrix is not orthogonal (residual {np.max(residual):.3e})")
    # Near-orthogonal, so det (by cofactors of row 0) is about +-1: its sign is safe.
    e = a.reshape(-1, 9).T
    if (e[0] * (e[4] * e[8] - e[5] * e[7]) - e[1] * (e[3] * e[8] - e[5] * e[6])
            + e[2] * (e[3] * e[7] - e[4] * e[6]) <= 0.0).any():
        raise InvariantViolationError("improper rotation (det <= 0) rejected")
    return a, residual


def orthonormalized(alpha) -> np.ndarray:
    """Return validated proper rotations, repairing small orthogonality drift.

    Works on a (..., 3, 3) stack.  Residual <= ORTH_TOL: accepted as-is.
    Residual in (ORTH_TOL, ORTH_REPAIR_LIMIT]: that matrix alone is replaced
    by its polar factor U @ Vt (from the SVD a = U S Vt), the rotation
    nearest to it.  Larger residuals and reflections (det <= 0) are rejected.
    """
    a, residual = require_rotation(alpha)
    drifted = residual > ORTH_TOL
    if drifted.any():
        a = a.copy()
        u, _, vt = np.linalg.svd(a[drifted])
        a[drifted] = u @ vt
    return a


def congruence(t, a) -> np.ndarray:
    """a @ t @ a.T of validated stacks, unchecked: an overflow is no error."""
    return a @ t @ transpose(a)


def transform_tensor2(t_in_s, alpha) -> np.ndarray:
    """Primed components of a second-order tensor: T' = alpha.T @ T @ alpha."""
    return congruence(mat3(t_in_s), transpose(require_rotation(alpha)[0]))


def untransform_tensor2(t_in_sprime, alpha) -> np.ndarray:
    """Unprimed components from primed ones: T = alpha @ T' @ alpha.T."""
    return congruence(mat3(t_in_sprime), require_rotation(alpha)[0])


def skew(w) -> np.ndarray:
    """Matrix [w]x with skew(w) @ x == cross(w, x)."""
    w = vec3(w)
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def axial(m) -> np.ndarray:
    """Axial vector of the antisymmetric part of m (inverse of skew), for a
    (..., 3, 3) array built from validated stacks (not validated again)."""
    out = planes(m.shape[:-2])
    for i, (j, k) in enumerate(((2, 1), (0, 2), (1, 0))):
        np.subtract(m[..., j, k], m[..., k, j], out=out[..., i])
    out *= 0.5
    return out
