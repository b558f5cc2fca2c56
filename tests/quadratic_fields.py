"""Seeded quadratic fields, for tests only: under any rigid frame their
pull-backs are quadratic in x', so every spatial finite-difference stencil
is exact for any step h, and a check's residual is round-off alone.

- the flow v_i = a_i + x_k B_ki + 1/2 C_ikl x_k x_l, C symmetric in (k, l):
  J_ki = B_ki + C_ikl x_l, dv/dt = 0 and div(grad v + grad v^T)_i = C_ikk + C_kik;
- the scalar T = g . x + 1/2 x^T H x, H symmetric: grad T = g + H x.
"""

import numpy as np

from framekit import FlowField, ScalarField


def quadratic_flow(seed: int) -> FlowField:
    rng = np.random.default_rng(seed)
    a, b, c = (rng.uniform(-1.0, 1.0, shape) for shape in (3, (3, 3), (3, 3, 3)))
    c = 0.5 * (c + c.transpose(0, 2, 1))
    visc = np.einsum("ikk->i", c) + np.einsum("kik->i", c)

    def velocity(x, t):
        x = np.asarray(x, dtype=float)
        return a + x @ b + 0.5 * np.einsum("ikl,...k,...l->...i", c, x, x)

    def jacobian(x, t):
        return b + np.einsum("ikl,...l->...ki", c, np.asarray(x, dtype=float))

    def constant(value):
        return lambda x, t: np.broadcast_to(value, np.shape(x)[:-1] + (3,)).copy()

    return FlowField(name="quadratic", velocity=velocity, jacobian=jacobian,
                     dv_dt=constant(np.zeros(3)), visc_div=constant(visc))


def quadratic_scalar(seed: int) -> ScalarField:
    rng = np.random.default_rng(seed)
    g, h = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 3))
    h = 0.5 * (h + h.T)

    def value(x, t):
        x = np.asarray(x, dtype=float)
        return x @ g + 0.5 * np.einsum("...k,kl,...l->...", x, h, x)

    def gradient(x, t):
        return g + np.asarray(x, dtype=float) @ h

    return ScalarField(name="quadratic_T", value=value, gradient=gradient)
