"""Frame-invariance verification checks and stress/traction machinery.

Each check samples seeded (x, t) pairs and evaluates, over all N at once as
(N, ...) arrays, one identity relating inertial-frame analytic derivatives
to finite differences of the observed (pulled-back) field, and reports
residual statistics.  Each check is one kernel that ``_sampled`` declares,
with its id, tolerance, field kind and needs: the decorator enters it in
``CHECKS``, the one registry, and wraps it in the one driver, which reads
the inputs once, then does the sampling and mapping, for one field or for a
group of fields in one batch.  Invariant quantities (velocity divergence,
scalar gradients, strain rate) must agree after component transformation;
variant quantities (velocity gradient, vorticity, acceleration) must agree
only after adding the exact frame correction terms, whose magnitude is
reported as a witness of non-invariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffops, tensor_core as tc
from .diffops import FdConfig, DEFAULT_FD
from .errors import UsageError
from .fields import (FlowField, ScalarField, field_group, pull_back_scalar,
                     pull_back_velocity)
from .frames import RigidFrameMotion, map_position_to_prime, omega_from_alpha


@dataclass(frozen=True)
class CheckSpec:
    """One check, as ``_sampled`` declares it: the name of its public function
    (looked up at call time), its default tolerance, the field kind it runs
    on (None: a frame-only check, which takes no field), and the scenario
    values ("p_field", "force", "mu") it takes after the field."""
    function: str
    tol: float
    field: Optional[type]
    needs: tuple


CHECKS = {}   # check id -> CheckSpec, in the kernels' definition order

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
class BodyForce:
    """External force per unit mass plus the fluid density."""
    g: np.ndarray            # [m/s^2]
    rho: float               # [kg/m^3]

    def __post_init__(self):   # frozen: the values read replace the ones given
        object.__setattr__(self, "g", tc.vec3(self.g))
        object.__setattr__(self, "rho", tc.number(self.rho, "density", 0.0, strict=True))


@dataclass(frozen=True)
class SampleSet:
    """One call's inputs: the check's id and tol, the generators ``rngs`` (past
    xs and ts) of its members, in turn, the field (a ``field_group`` of the
    members' fields) and its pull-back ``observed``, seeded points ``xs``
    (N, 3) at times ``ts`` (N,), each member's N / len(rngs) in turn, the
    frame's ``alpha`` (N, 3, 3), primed ``xp`` (field, observed and xp are
    None for a frame-only check, which still draws xs)."""
    check_id: str
    tol: float
    rngs: tuple
    frame: RigidFrameMotion
    field: object
    observed: object
    fd: FdConfig
    xs: np.ndarray
    ts: np.ndarray
    alpha: np.ndarray
    xp: np.ndarray

    def split(self, a) -> list:
        """a (N, ...) as one view per member, in turn."""
        n = len(a) // len(self.rngs)
        return [a[i:i + n] for i in range(0, len(a), n)]

    def result(self, residual, witness=None) -> tuple:
        """One result per member, of its rows of a residual (N, ...): a sample's
        error is its largest |entry|; of a witness magnitude per sample (N,),
        the member's largest is kept."""
        errs = self.split(np.abs(residual).reshape(self.ts.size, -1).max(axis=1))
        wits = [None] * len(errs) if witness is None else self.split(witness)
        return tuple([_result(self.check_id, e, self.tol, w if w is None else float(w.max()))
                      for e, w in zip(errs, wits)])


def box_pairs(box) -> tuple:
    """box as three (lo, hi) pairs of numbers, lo < hi, with a finite width."""
    pairs = tc._finite(box, (3, 2), False).tolist()   # Python floats: an overflow is inf, unwarned
    if not all(lo < hi and hi - lo < np.inf for lo, hi in pairs):
        raise UsageError(f"box must be three (lo, hi) pairs, lo < hi, finite width: {box!r}")
    return tuple(map(tuple, pairs))


def sample_points(box, n: int, rngs) -> tuple:
    """n seeded (x, t) samples of each generator in rngs, joined: x in the box, t in the window."""
    (lo, hi), (t0, t1) = np.array(box_pairs(box)).T, TIME_WINDOW
    # rng.uniform's own formula, bit for bit, without its array-parameter overhead.
    return tuple(map(np.concatenate, zip(*((lo + (hi - lo) * r.random((n, 3)),
                                             t0 + (t1 - t0) * r.random(n)) for r in rngs))))


def _result(check_id, errs, tol: float, witness=None) -> CheckResult:
    mx = float(errs.max())
    return CheckResult(check_id=check_id, samples=errs.size,
                       max_abs_err=mx, mean_abs_err=float(errs.mean()),
                       tol=tol, passed=bool(mx <= tol), witness=witness)


_KINDS = {"p_field": ScalarField, "force": BodyForce}   # mu is read by the number rule


def _group(check_id: str, frame, fd, tol, inputs: tuple, rngs, single: bool) -> tuple:
    """Read a call's inputs, before it samples: as many as the check takes after the frame;
    frame, fd and needs by their kinds; tol and mu as numbers >= 0; and, a single call being a
    group of one, generators and as many fields of its kind.  Returns tol, fields and needs."""
    field, needs = CHECKS[check_id].field, CHECKS[check_id].needs
    if len(inputs) != len(takes := ((f"its {field.__name__}",) if field else ()) + needs):
        raise UsageError(f"{check_id} takes {', '.join(takes) or 'no input'} after the frame, "
                         f"not {len(inputs)} input(s)")
    fields, *values = inputs if field else (None, *inputs)
    for name, value, kind in (("frame", frame, RigidFrameMotion), ("fd", fd, FdConfig),
                              *((n, v, _KINDS.get(n, object)) for n, v in zip(needs, values))):
        if not isinstance(value, kind):
            raise UsageError(f"{check_id}: {name} must be a {kind.__name__}, "
                             f"not {type(value).__name__}")
    members = (fields,) if single else fields
    if not (rngs and all(isinstance(r, np.random.Generator) for r in rngs) and (
            field is None or isinstance(members, (list, tuple)) and len(members) == len(rngs)
            and all(isinstance(f, field) for f in members))):
        raise UsageError(f"{check_id} needs one or more generators" + (
            "" if field is None else f" and as many fields of its kind, {field.__name__}"))
    return tc.number(tol, f"{check_id}: tol", 0.0), members, [
        tc.number(v, f"{check_id}: mu", 0.0) if n == "mu" else v for n, v in zip(needs, values)]


def _sampled(check_id: str, tol: float, field: Optional[type] = FlowField, needs: tuple = ()):
    """Declare a check: enter ``CheckSpec(kernel.__name__, tol, field, needs)`` in
    ``CHECKS`` as check_id, and turn the kernel into the public check of the same
    name, ``(frame, *inputs, box, samples, rng, fd, tol)``: inputs are ``(field,
    *needs)``, or the needs of a frame-only check.  Inputs of the wrong kind or count
    (see ``_group``), or bad samples, box, tol or mu, raise UsageError before it samples.

    rng may also be a sequence of generators, with a check's field a sequence
    of as many fields of its kind: a group, whose members share the frame and
    needs.  The check draws each member's points and times from its own
    generator, joins them, and runs the kernel once over the batch on the
    members' ``field_group``; it returns a tuple with one CheckResult per
    member, each equal to the member's call alone.  Lengths that differ, or
    none, raise UsageError.  The kernel gets the SampleSet and the needs and
    returns the members' CheckResults."""
    def declare(kernel):
        CHECKS[check_id] = CheckSpec(kernel.__name__, tol, field, needs)
        pull_back = pull_back_scalar if field is ScalarField else pull_back_velocity

        def check(frame: RigidFrameMotion, *inputs, box=DEFAULT_BOX,
                  samples=100, rng: np.random.Generator, fd: FdConfig = DEFAULT_FD,
                  tol=tol):
            samples = tc.integer(samples, "samples", 1)
            single = not isinstance(rng, (list, tuple))
            rngs = (rng,) if single else tuple(rng)
            tol, members, values = _group(check_id, frame, fd, tol, inputs, rngs, single)
            xs, ts = sample_points(box, samples, rngs)
            group = field_group(members, samples) if field else None
            observed = None if group is None else pull_back(frame, group)
            try:   # the call's jets are its own: no other call samples its times
                xp = None if group is None else map_position_to_prime(frame, xs, ts)
                results = kernel(SampleSet(check_id, tol, rngs, frame, group, observed, fd,
                                           xs, ts, frame.alpha(ts), xp), *values)
            finally:
                frame.release()
            return results[0] if single else results

        check.__name__ = check.__qualname__ = kernel.__name__
        check.__doc__ = kernel.__doc__
        return check
    return declare


# --------------------------------------------------------------------------
# Kinematic invariance / variance checks
# --------------------------------------------------------------------------

@_sampled("div_invariance", 1e-6)
def check_divergence_invariance(s: SampleSet):
    """div v (analytic, inertial) vs div' V (FD on the observed field)."""
    div_s = diffops._divergence(s.field.jacobian(s.xs, s.ts))
    div_sp = diffops._divergence(diffops.fd_jacobian(s.observed, s.xp, s.ts, s.fd))
    return s.result(div_s - div_sp)


@_sampled("scalar_grad_invariance", 1e-6, ScalarField)
def check_scalar_gradient_invariance(s: SampleSet):
    """grad T transforms as an objective vector between the two frames."""
    g_s = s.field.gradient(s.xs, s.ts)
    g_sp = diffops.fd_gradient(s.observed, s.xp, s.ts, s.fd)
    return s.result(tc.matvec(tc.transpose(s.alpha), g_s) - g_sp)


def velocity_gradient_correction(frame: RigidFrameMotion, t) -> np.ndarray:
    """Correction matrix C[k, i] = alpha_kj d(alpha_ij)/dt.

    grad v (inertial components) = transformed grad' V + C.  C is the
    transpose of the spin matrix (minus it, for a rigid rotation), so its
    rotational content is exactly 2*omega.
    """
    return frame.alpha(t) @ tc.transpose(frame.dalpha_dt(t))


@_sampled("velgrad_relation", 1e-6)
def check_velocity_gradient_relation(s: SampleSet):
    """grad v = (grad' V transformed to unprimed components) + correction.

    The witness is the rotational magnitude |curl| of the correction term
    (= 2|omega|), maximized over samples: nonzero witness demonstrates
    that the velocity gradient itself is frame-variant.
    """
    j_s = s.field.jacobian(s.xs, s.ts)
    j_sp = diffops.fd_jacobian(s.observed, s.xp, s.ts, s.fd)
    corr = velocity_gradient_correction(s.frame, s.ts)
    return s.result(j_s - (tc.congruence(j_sp, s.alpha) + corr),
                    np.linalg.norm(diffops._curl(corr), axis=-1))


@_sampled("strain_rate_invariance", 1e-6)
def check_strain_rate_invariance(s: SampleSet):
    """Symmetric velocity-gradient parts agree as objective 2-tensors."""
    s_s = diffops._strain_rate(s.field.jacobian(s.xs, s.ts))
    s_sp = diffops._strain_rate(diffops.fd_jacobian(s.observed, s.xp, s.ts, s.fd))
    return s.result(s_s - tc.congruence(s_sp, s.alpha))


@_sampled("vorticity_relation", 1e-6)
def check_vorticity_relation(s: SampleSet):
    """curl v = (curl' V transformed) + 2*omega; witness = max |2*omega|."""
    omega = omega_from_alpha(s.frame, s.ts).omega
    w_s = diffops._curl(s.field.jacobian(s.xs, s.ts))
    w_sp = diffops._curl(diffops.fd_jacobian(s.observed, s.xp, s.ts, s.fd))
    return s.result(w_s - (tc.matvec(s.alpha, w_sp) + 2.0 * omega),
                    np.linalg.norm(2.0 * omega, axis=-1))


# --------------------------------------------------------------------------
# Stress, traction, constitutive laws
# --------------------------------------------------------------------------

def cauchy_traction(tau, n) -> np.ndarray:
    """Force per unit area on a surface with unit normal n: t_i = tau_ij n_j."""
    tau, n = tc.mat3(tau), tc.vec3(n, batch=True)
    tc.batch_shape(tau.shape[:-2], n.shape[:-1])
    norm = np.linalg.norm(n, axis=-1)
    worst = float(np.ravel(norm)[np.argmax(np.abs(norm - 1.0))]) if norm.size else 1.0
    if abs(worst - 1.0) > 1e-6:
        raise UsageError(f"surface normal must be a unit vector (|n| = {worst})")
    if abs(worst - 1.0) > 1e-12:
        warnings.warn("normalizing a slightly non-unit surface normal", stacklevel=2)
    return tc.matvec(tau, n / norm[..., None])


@_sampled("stress_transform", 1e-12, field=None)
def check_stress_transform_random(s: SampleSet):
    """Random 3x3 stresses, drawn after the samples, against the frame's rotation."""
    return tuple(check_stress_tensor_transform(rng.uniform(-1.0, 1.0, size=(alpha.shape[0], 3, 3)),
                                               alpha, tol=s.tol)
                 for rng, alpha in zip(s.rngs, s.split(s.alpha)))


def check_stress_tensor_transform(tau_in_s, alpha,
                                  tol=CHECKS["stress_transform"].tol) -> CheckResult:
    """Physical traction-composition route vs the algebraic 2-tensor transform.

    tau'_{j1 j2} obtained as (traction on the primed face e'_{j2}) . e'_{j1},
    computed wholly with unprimed components, must equal alpha.T @ tau @ alpha.
    Each (tau, alpha) pair of the (..., 3, 3) stacks is one sample.
    """
    tau, tol = tc.mat3(tau_in_s), tc.number(tol, "tol", 0.0)
    faces = tc.transpose(tc.orthonormalized(alpha))   # row j2: e'_{j2}, in s; repaired once
    if not (tau.size and faces.size):   # a residual over no samples has no maximum
        raise UsageError("check_stress_tensor_transform needs at least one (tau, alpha) pair")
    tc.batch_shape(tau.shape[:-2], faces.shape[:-2])
    traction = cauchy_traction(tau[..., None, :, :], faces)   # row j2: its traction
    physical = tc.transpose(tc.matvec(faces[..., None, :, :], traction))
    return _result("stress_transform",
                   tc.max_abs_entry(physical - tc.congruence(tau, faces)), tol)


def _newtonian(p, mu: float, j) -> np.ndarray:
    """tau = -p I + 2 mu D from pressures (...) and velocity gradients j
    (..., 3, 3) through their strain rates D, with p, mu and j not validated."""
    return np.multiply.outer(p, -np.eye(3)) + 2.0 * mu * diffops._strain_rate(j)


def newtonian_stress(p, mu: float, j) -> np.ndarray:
    """Cauchy stress -p I + 2 mu D, (..., 3, 3), as ``_newtonian``, with p, mu and j validated."""
    mu = tc.number(mu, "dynamic viscosity", 0.0)
    p, j = tc._finite(p, (), True), tc.mat3(j)
    tc.batch_shape(p.shape, j.shape[:-2])
    return _newtonian(p, mu, j)


@_sampled("constitutive_invariance", 1e-6, needs=("p_field", "mu"))
def check_constitutive_frame_invariance(s: SampleSet, p_field: ScalarField, mu: float):
    """The Newtonian law built per-frame yields the same objective stress."""
    observed_p = pull_back_scalar(s.frame, p_field)
    tau_s = _newtonian(p_field.value(s.xs, s.ts), mu, s.field.jacobian(s.xs, s.ts))
    j_sp = diffops.fd_jacobian(s.observed, s.xp, s.ts, s.fd)
    tau_sp = _newtonian(observed_p(s.xp, s.ts), mu, j_sp)
    return s.result(tau_s - tc.congruence(tau_sp, s.alpha))


# --------------------------------------------------------------------------
# Acceleration and momentum-equation checks
# --------------------------------------------------------------------------

def inertial_acceleration(flow: FlowField, x, t) -> np.ndarray:
    """Material acceleration in the inertial frame from analytic derivatives."""
    j = flow.jacobian(x, t)
    return flow.dv_dt(x, t) + tc.matvec(tc.transpose(j), flow.velocity(x, t))


@_sampled("acceleration_decomposition", 1e-5)
def check_acceleration_decomposition(s: SampleSet):
    """Inertial acceleration vs translational + observed + Coriolis +
    Euler + centrifugal terms, all reduced to unprimed components."""
    ang = omega_from_alpha(s.frame, s.ts)
    st = s.frame.state(s.ts)   # read before the time stencil replaces the frame's jet
    lhs = inertial_acceleration(s.field, s.xs, s.ts)

    v_sp = s.observed(s.xp, s.ts)
    vdot_sp = diffops.substantial_derivative(s.observed, v_sp, s.xp, s.ts, s.fd)
    v_rel = tc.matvec(s.alpha, v_sp)                     # V in unprimed components
    x_rel = s.xs - st.y                                  # X in unprimed components
    rhs = (st.d2y
           + tc.matvec(s.alpha, vdot_sp)
           + 2.0 * tc.cross(ang.omega, v_rel)
           + tc.cross(ang.domega_dt, x_rel)
           + tc.cross(ang.omega, tc.cross(ang.omega, x_rel)))
    return s.result(lhs - rhs)


def inertial_ns_rhs(flow: FlowField, p_field: ScalarField, force: BodyForce,
                    mu: float, x, t) -> np.ndarray:
    """-grad p + mu div(grad v + (grad v)^T) + rho g, analytic, inertial."""
    mu = tc.number(mu, "dynamic viscosity", 0.0)
    return (-p_field.gradient(x, t)
            + mu * flow.visc_div(x, t)
            + force.rho * force.g)


@_sampled("ns_rhs_equivalence", 1e-4, needs=("p_field", "force", "mu"))
def check_ns_rhs_equivalence(s: SampleSet, p_field: ScalarField, force: BodyForce,
                             mu: float):
    """Momentum-equation right-hand sides agree as objective vectors.

    The primed side uses nested finite differences (second derivatives of
    the observed velocity), hence the looser default tolerance.
    """
    observed_p = pull_back_scalar(s.frame, p_field)
    rhs_s = inertial_ns_rhs(s.field, p_field, force, mu, s.xs, s.ts)
    rhs_sp = (-diffops.fd_gradient(observed_p, s.xp, s.ts, s.fd)
              + mu * diffops.fd_viscous_divergence(s.observed, s.xp, s.ts, s.fd)
              + force.rho * tc.matvec(tc.transpose(s.alpha), force.g))
    return s.result(rhs_s - tc.matvec(s.alpha, rhs_sp))


CHECK_IDS = tuple(CHECKS)
DEFAULT_TOLERANCES = {check_id: spec.tol for check_id, spec in CHECKS.items()}
