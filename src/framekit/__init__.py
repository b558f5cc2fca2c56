"""framekit: numerical verification of reference-frame invariance.

Transforms tensor components between an inertial frame and a rigidly
moving observer frame, pulls manufactured analytic flows back into the
moving frame, and checks by direct computation which kinematic and
constitutive quantities are frame-invariant and which carry exact
correction terms.
"""

from .diffops import FdConfig
from .errors import (FramekitError, InvariantViolationError, ScenarioError,
                     UsageError)
from .fields import (FIELD_CATALOG, FlowField, ScalarField, make_field,
                     pull_back_scalar, pull_back_velocity)
from .frames import (FRAME_CATALOG, AngularVelocity, RigidFrameMotion,
                     make_frame, map_position_from_prime,
                     map_position_to_prime, observed_velocity,
                     omega_from_alpha)
from .objectivity import (CHECK_IDS, DEFAULT_TOLERANCES, BodyForce,
                          CheckResult, cauchy_traction,
                          check_acceleration_decomposition,
                          check_constitutive_frame_invariance,
                          check_divergence_invariance,
                          check_ns_rhs_equivalence,
                          check_scalar_gradient_invariance,
                          check_strain_rate_invariance,
                          check_stress_tensor_transform,
                          check_stress_transform_random,
                          check_velocity_gradient_relation,
                          check_vorticity_relation,
                          inertial_acceleration, inertial_ns_rhs,
                          newtonian_stress, velocity_gradient_correction)
from .scenario import VERSION as __version__
from .scenario import (Material, Report, Scenario, canonical_report_json,
                       emit_report, load_scenario, parse_scenario, run_suite)
from .tensor_core import levi_civita, transform_tensor2, untransform_tensor2
