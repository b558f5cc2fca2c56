"""Every check on every catalog frame with quadratic fields, whose spatial
stencils are exact at any step: at fd h = 1 a residual is round-off, so a
relative bias of 1e-9 in a frame term lifts it far above its floor.

Each bound is the floor measured over the six frames of
``scenarios/full_matrix.yaml`` (seeds below, 20 samples, default kernel),
times a margin of 4 or more:

- the seven spatial checks read at most 3.6e-15, ``ns_rhs_equivalence``
  4.9e-15 and ``stress_transform`` 3.3e-16;
- ``acceleration_decomposition`` differentiates in time with the default
  step ht = 1e-5, whose stencil is not exact: it reads at most 9.3e-11 at
  order 4 and 2.3e-9 at order 2 (``wobble``).  On the frames that only
  translate at a constant rate (``identity``, ``uniform_translation``), the
  observed velocity of the quadratic flow is at most quadratic in t, so the
  time stencil is exact at any step too: at ht = 1 it reads at most 1.3e-15,
  and a relative bias of 1e-9 in the frame's velocity reads about 8.5e-10.
"""

from pathlib import Path

import numpy as np
import pytest

from framekit import CHECK_IDS, BodyForce, FdConfig, ScalarField, make_frame, parse_scenario
from framekit import objectivity as obj
from quadratic_fields import quadratic_flow, quadratic_scalar

FRAMES = parse_scenario(
    (Path(__file__).parent.parent / "scenarios" / "full_matrix.yaml").read_text()).frames
FLOW, SCALAR = quadratic_flow(1), quadratic_scalar(2)
NEEDS = {"p_field": SCALAR, "mu": 1.0, "force": BodyForce(g=np.array([0.0, 0.0, -9.81]), rho=1.0)}
BOUND = {**dict.fromkeys(CHECK_IDS, 2e-14), "stress_transform": 2e-15}
TIME_BOUND = {2: 1e-8, 4: 5e-10}   # acceleration_decomposition, by order


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_quadratic_fields_hold_each_check_at_its_floor(check_id, order):
    spec = obj.CHECKS[check_id]
    field = [] if spec.field is None else [SCALAR if spec.field is ScalarField else FLOW]
    bound = TIME_BOUND[order] if check_id == "acceleration_decomposition" else BOUND[check_id]
    for name, params in FRAMES:
        result = getattr(obj, spec.function)(
            make_frame(name, **params), *field, *(NEEDS[n] for n in spec.needs), samples=20,
            fd=FdConfig(h=1.0, order=order), tol=1.0, rng=np.random.default_rng(0))
        assert result.max_abs_err <= bound, (name, result.max_abs_err)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", ["identity", "uniform_translation"])
def test_translating_frames_hold_the_time_stencil_at_its_floor(name, order):
    result = obj.check_acceleration_decomposition(
        make_frame(name, **dict(FRAMES)[name]), FLOW, samples=20,
        fd=FdConfig(h=1.0, h_t=1.0, order=order), tol=1.0, rng=np.random.default_rng(0))
    assert result.max_abs_err <= BOUND["acceleration_decomposition"], result.max_abs_err
