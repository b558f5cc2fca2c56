"""Frame-invariance verification checks and stress/traction machinery.

Each check samples seeded (x, t) pairs and evaluates, over all N at once
as (N, ...) arrays, one identity relating
inertial-frame analytic derivatives to finite differences of the observed
(pulled-back) field, and reports residual statistics.  Invariant
quantities (velocity divergence, scalar gradients, strain rate) must
agree after component transformation; variant quantities (velocity
gradient, vorticity, acceleration) must agree only after adding the
exact frame correction terms, whose magnitude is reported as a witness
of non-invariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffops, tensor_core as tc
from .diffops import FdConfig, DEFAULT_FD
from .errors import UsageError
from .fields import (FlowField, ScalarField, pull_back_scalar,
                     pull_back_velocity)
from .frames import RigidFrameMotion, map_position_to_prime, omega_from_alpha

CHECK_IDS = (
    "div_invariance",
    "scalar_grad_invariance",
    "velgrad_relation",
    "strain_rate_invariance",
    "vorticity_relation",
    "stress_transform",
    "constitutive_invariance",
    "acceleration_decomposition",
    "ns_rhs_equivalence",
)

DEFAULT_TOLERANCES = {
    "div_invariance": 1e-6,
    "scalar_grad_invariance": 1e-6,
    "velgrad_relation": 1e-6,
    "strain_rate_invariance": 1e-6,
    "vorticity_relation": 1e-6,
    "stress_transform": 1e-12,
    "constitutive_invariance": 1e-6,
    "acceleration_decomposition": 1e-5,
    "ns_rhs_equivalence": 1e-4,
}

# Checks that consume a scalar field; all others consume a flow field.
SCALAR_CHECK_IDS = frozenset({"scalar_grad_invariance"})

DEFAULT_BOX = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
TIME_WINDOW = (0.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    """Residual statistics for one identity over one sample set."""
    check_id: str
    samples: int
    max_abs_err: float
    mean_abs_err: float
    tol: float
    passed: bool
    witness: Optional[float] = None


@dataclass(frozen=True)
class StressState:
    """Cauchy stress produced by the Newtonian constitutive law."""
    p: np.ndarray            # [Pa], one value per stress
    mu: float                # [Pa s]
    tau: np.ndarray          # [Pa], components in the frame of the input J


@dataclass(frozen=True)
class BodyForce:
    """External force per unit mass plus the fluid density."""
    g: np.ndarray            # [m/s^2]
    rho: float               # [kg/m^3]

    def __post_init__(self):
        if self.rho <= 0.0:
            raise UsageError("density must be positive")


def sample_points(box, n: int, rng: np.random.Generator):
    """n seeded (x, t) samples: x uniform in the box, t in the time window."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    xs = rng.uniform(lo, hi, size=(n, 3))
    ts = rng.uniform(TIME_WINDOW[0], TIME_WINDOW[1], size=n)
    return xs, ts


def _result(check_id, errs, tol, witness=None) -> CheckResult:
    errs = np.atleast_1d(np.asarray(errs, dtype=float))
    mx = float(np.max(errs))
    return CheckResult(check_id=check_id, samples=errs.size,
                       max_abs_err=mx, mean_abs_err=float(np.mean(errs)),
                       tol=float(tol), passed=bool(mx <= tol),
                       witness=witness)


# --------------------------------------------------------------------------
# Kinematic invariance / variance checks
# --------------------------------------------------------------------------

def check_divergence_invariance(frame: RigidFrameMotion, flow: FlowField,
                                *, box=DEFAULT_BOX, samples=100,
                                rng: np.random.Generator,
                                fd: FdConfig = DEFAULT_FD,
                                tol=DEFAULT_TOLERANCES["div_invariance"]) -> CheckResult:
    """div v (analytic, inertial) vs div' V (FD on the observed field)."""
    observed = pull_back_velocity(frame, flow)
    xs, ts = sample_points(box, samples, rng)
    xp = map_position_to_prime(frame, xs, ts)
    div_s = diffops.divergence(flow.jacobian(xs, ts))
    div_sp = diffops.divergence(diffops.fd_jacobian(observed, xp, ts, fd))
    return _result("div_invariance", np.abs(div_s - div_sp), tol)


def check_scalar_gradient_invariance(frame: RigidFrameMotion, scalar: ScalarField,
                                     *, box=DEFAULT_BOX, samples=100,
                                     rng: np.random.Generator,
                                     fd: FdConfig = DEFAULT_FD,
                                     tol=DEFAULT_TOLERANCES["scalar_grad_invariance"]) -> CheckResult:
    """grad T transforms as an objective vector between the two frames."""
    observed = pull_back_scalar(frame, scalar)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    g_s = scalar.gradient(xs, ts)
    g_sp = diffops.fd_gradient(observed, xp, ts, fd)
    errs = np.abs(tc.matvec(tc.transpose(alpha), g_s) - g_sp).max(axis=-1)
    return _result("scalar_grad_invariance", errs, tol)


def velocity_gradient_correction(frame: RigidFrameMotion, t) -> np.ndarray:
    """Correction matrix C[k, i] = alpha_kj d(alpha_ij)/dt.

    grad v (inertial components) = transformed grad' V + C.  C equals
    minus the spin matrix, so its rotational content is exactly 2*omega.
    """
    return frame.alpha(t) @ tc.transpose(frame.dalpha_dt(t))


def check_velocity_gradient_relation(frame: RigidFrameMotion, flow: FlowField,
                                     *, box=DEFAULT_BOX, samples=100,
                                     rng: np.random.Generator,
                                     fd: FdConfig = DEFAULT_FD,
                                     tol=DEFAULT_TOLERANCES["velgrad_relation"]) -> CheckResult:
    """grad v = (grad' V transformed to unprimed components) + correction.

    The witness is the rotational magnitude |curl| of the correction term
    (= 2|omega|), maximized over samples: nonzero witness demonstrates
    that the velocity gradient itself is frame-variant.
    """
    observed = pull_back_velocity(frame, flow)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    j_s = flow.jacobian(xs, ts)
    j_sp = diffops.fd_jacobian(observed, xp, ts, fd)
    corr = velocity_gradient_correction(frame, ts)
    errs = np.abs(j_s - (alpha @ j_sp @ tc.transpose(alpha) + corr)).max(axis=(-2, -1))
    witness = float(np.max(np.linalg.norm(diffops.curl(corr), axis=-1)))
    return _result("velgrad_relation", errs, tol, witness=witness)


def check_strain_rate_invariance(frame: RigidFrameMotion, flow: FlowField,
                                 *, box=DEFAULT_BOX, samples=100,
                                 rng: np.random.Generator,
                                 fd: FdConfig = DEFAULT_FD,
                                 tol=DEFAULT_TOLERANCES["strain_rate_invariance"]) -> CheckResult:
    """Symmetric velocity-gradient parts agree as objective 2-tensors."""
    observed = pull_back_velocity(frame, flow)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    s_s = diffops.strain_rate(flow.jacobian(xs, ts))
    s_sp = diffops.strain_rate(diffops.fd_jacobian(observed, xp, ts, fd))
    errs = np.abs(s_s - tc.untransform_tensor2(s_sp, alpha)).max(axis=(-2, -1))
    return _result("strain_rate_invariance", errs, tol)


def check_vorticity_relation(frame: RigidFrameMotion, flow: FlowField,
                             *, box=DEFAULT_BOX, samples=100,
                             rng: np.random.Generator,
                             fd: FdConfig = DEFAULT_FD,
                             tol=DEFAULT_TOLERANCES["vorticity_relation"]) -> CheckResult:
    """curl v = (curl' V transformed) + 2*omega; witness = max |2*omega|."""
    observed = pull_back_velocity(frame, flow)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    omega = omega_from_alpha(frame, ts).omega
    w_s = diffops.curl(flow.jacobian(xs, ts))
    w_sp = diffops.curl(diffops.fd_jacobian(observed, xp, ts, fd))
    errs = np.abs(w_s - (tc.matvec(alpha, w_sp) + 2.0 * omega)).max(axis=-1)
    witness = float(np.max(np.linalg.norm(2.0 * omega, axis=-1)))
    return _result("vorticity_relation", errs, tol, witness=witness)


# --------------------------------------------------------------------------
# Stress, traction, constitutive laws
# --------------------------------------------------------------------------

def cauchy_traction(tau, n) -> np.ndarray:
    """Force per unit area on a surface with unit normal n: t_i = tau_ij n_j."""
    tau = tc.mat3(tau)
    n = tc.vec3(n, batch=True)
    norm = np.linalg.norm(n, axis=-1)
    worst = float(np.ravel(norm)[np.argmax(np.abs(norm - 1.0))])
    if abs(worst - 1.0) > 1e-6:
        raise UsageError(f"surface normal must be a unit vector (|n| = {worst})")
    if abs(worst - 1.0) > 1e-12:
        warnings.warn("normalizing a slightly non-unit surface normal",
                      stacklevel=2)
    return tc.matvec(tau, n / norm[..., None])


def check_stress_tensor_transform(tau_in_s, alpha,
                                  tol=DEFAULT_TOLERANCES["stress_transform"]) -> CheckResult:
    """Physical traction-composition route vs the algebraic 2-tensor transform.

    tau'_{j1 j2} obtained as (traction on the primed face e'_{j2}) . e'_{j1},
    computed wholly with unprimed components, must equal alpha.T @ tau @ alpha.
    Each (tau, alpha) pair of the (..., 3, 3) stacks is one sample.
    """
    tau = tc.mat3(tau_in_s)
    a = tc.require_rotation(alpha)
    algebraic = tc.transform_tensor2(tau, a)
    physical = np.empty(algebraic.shape)
    for j2 in range(3):
        traction = cauchy_traction(tau, a[..., :, j2])   # face normal e'_{j2}, in s
        physical[..., :, j2] = tc.matvec(tc.transpose(a), traction)
    errs = np.abs(physical - algebraic).max(axis=(-2, -1))
    return _result("stress_transform", errs, tol)


def check_stress_transform_random(frame: RigidFrameMotion, *, samples=100,
                                  rng: np.random.Generator,
                                  tol=DEFAULT_TOLERANCES["stress_transform"]) -> CheckResult:
    """Random symmetric stresses against the frame's rotation at random times."""
    ts = rng.uniform(TIME_WINDOW[0], TIME_WINDOW[1], size=samples)
    raw = rng.uniform(-1.0, 1.0, size=(samples, 3, 3))
    tau = 0.5 * (raw + tc.transpose(raw))
    return check_stress_tensor_transform(tau, frame.alpha(ts), tol=tol)


def newtonian_stress(p, mu: float, j) -> StressState:
    """tau = -p I + mu (grad v + (grad v)^T) from a velocity gradient."""
    if mu < 0.0:
        raise UsageError("dynamic viscosity must be nonnegative")
    j = tc.mat3(j)
    p = np.asarray(p, dtype=float)
    tau = -p[..., None, None] * np.eye(3) + mu * (j + tc.transpose(j))
    return StressState(p=p, mu=float(mu), tau=tau)


def fourier_heat_flux(k: float, grad_t) -> np.ndarray:
    """Isotropic Fourier law q = -k grad T (objective because grad T is)."""
    if k < 0.0:
        raise UsageError("conductivity must be nonnegative")
    return -k * tc.vec3(grad_t, batch=True)


def check_constitutive_frame_invariance(frame: RigidFrameMotion, flow: FlowField,
                                        p_field: ScalarField, mu: float,
                                        *, box=DEFAULT_BOX, samples=100,
                                        rng: np.random.Generator,
                                        fd: FdConfig = DEFAULT_FD,
                                        tol=DEFAULT_TOLERANCES["constitutive_invariance"]) -> CheckResult:
    """The Newtonian law built per-frame yields the same objective stress."""
    observed_v = pull_back_velocity(frame, flow)
    observed_p = pull_back_scalar(frame, p_field)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    tau_s = newtonian_stress(p_field.value(xs, ts), mu, flow.jacobian(xs, ts)).tau
    j_sp = diffops.fd_jacobian(observed_v, xp, ts, fd)
    tau_sp = newtonian_stress(observed_p(xp, ts), mu, j_sp).tau
    errs = np.abs(tau_s - tc.untransform_tensor2(tau_sp, alpha)).max(axis=(-2, -1))
    return _result("constitutive_invariance", errs, tol)


# --------------------------------------------------------------------------
# Acceleration and momentum-equation checks
# --------------------------------------------------------------------------

def inertial_acceleration(flow: FlowField, x, t) -> np.ndarray:
    """Material acceleration in the inertial frame from analytic derivatives."""
    j = flow.jacobian(x, t)
    return flow.dv_dt(x, t) + tc.matvec(tc.transpose(j), flow.velocity(x, t))


def check_acceleration_decomposition(frame: RigidFrameMotion, flow: FlowField,
                                     *, box=DEFAULT_BOX, samples=100,
                                     rng: np.random.Generator,
                                     fd: FdConfig = DEFAULT_FD,
                                     tol=DEFAULT_TOLERANCES["acceleration_decomposition"]) -> CheckResult:
    """Inertial acceleration vs translational + observed + Coriolis +
    Euler + centrifugal terms, all reduced to unprimed components."""
    observed = pull_back_velocity(frame, flow)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    ang = omega_from_alpha(frame, ts)
    lhs = inertial_acceleration(flow, xs, ts)

    vdot_sp = diffops.substantial_derivative(observed, observed, xp, ts, fd)
    v_rel = tc.matvec(alpha, observed(xp, ts))   # V in unprimed components
    x_rel = xs - frame.y(ts)                     # X in unprimed components
    rhs = (frame.d2y_dt2(ts)
           + tc.matvec(alpha, vdot_sp)
           + 2.0 * np.cross(ang.omega, v_rel)
           + np.cross(ang.domega_dt, x_rel)
           + np.cross(ang.omega, np.cross(ang.omega, x_rel)))
    return _result("acceleration_decomposition", np.abs(lhs - rhs).max(axis=-1), tol)


def inertial_ns_rhs(flow: FlowField, p_field: ScalarField, force: BodyForce,
                    mu: float, x, t) -> np.ndarray:
    """-grad p + mu div(grad v + (grad v)^T) + rho g, analytic, inertial."""
    return (-p_field.gradient(x, t)
            + mu * flow.visc_div(x, t)
            + force.rho * force.g)


def check_ns_rhs_equivalence(frame: RigidFrameMotion, flow: FlowField,
                             p_field: ScalarField, force: BodyForce, mu: float,
                             *, box=DEFAULT_BOX, samples=50,
                             rng: np.random.Generator,
                             fd: FdConfig = DEFAULT_FD,
                             tol=DEFAULT_TOLERANCES["ns_rhs_equivalence"]) -> CheckResult:
    """Momentum-equation right-hand sides agree as objective vectors.

    The primed side uses nested finite differences (second derivatives of
    the observed velocity), hence the looser default tolerance.
    """
    observed_v = pull_back_velocity(frame, flow)
    observed_p = pull_back_scalar(frame, p_field)
    xs, ts = sample_points(box, samples, rng)
    alpha = frame.alpha(ts)
    xp = map_position_to_prime(frame, xs, ts)
    rhs_s = inertial_ns_rhs(flow, p_field, force, mu, xs, ts)
    rhs_sp = (-diffops.fd_gradient(observed_p, xp, ts, fd)
              + mu * diffops.fd_viscous_divergence(observed_v, xp, ts, fd)
              + force.rho * tc.matvec(tc.transpose(alpha), force.g))
    return _result("ns_rhs_equivalence",
                   np.abs(rhs_s - tc.matvec(alpha, rhs_sp)).max(axis=-1), tol)
