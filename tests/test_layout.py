"""Memory layout and batch composition never change a bit.

The evaluation path stores its arrays entries-first (``tensor_core.planes``):
shapes are the public contract, memory order is not.  Points given C-ordered
and the same points stored entries-first must give equal arrays from the
pull-backs, every field callable and every finite-difference operator, on
every catalog frame and field.  Likewise a check called on a group of fields
and generators must give each member the result of its call alone.
"""

import numpy as np
import pytest

from framekit import BodyForce, diffops
from framekit import objectivity as obj
from framekit import tensor_core as tc
from framekit.fields import FlowField, ObservedScalarField, ObservedVectorField, ScalarField
from framekit.frames import FOLD_TIMES, FRAME_CATALOG

from conftest import builtin_flows, builtin_frames, builtin_scalars

N = 13


def both_layouts(shape, seed=27):
    """Points of shape (..., 3) in [-1, 1): C-ordered, and an entries-first copy."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    planes = tc.planes(shape[:-1])
    planes[...] = x
    assert x.flags.c_contiguous and not planes.flags.c_contiguous
    return x, planes


def entries_first(a) -> bool:
    """True if each entry of a's (..., 3) tail is contiguous over the batch."""
    return a.strides[-1] == a.itemsize * a[..., 0].size and a[..., 0].flags.c_contiguous


def times(seed=28):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=N)


FIELDS = {**builtin_flows(), **builtin_scalars()}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_callables_do_not_depend_on_the_layout(name):
    field = FIELDS[name]
    parts = (("velocity", "jacobian", "dv_dt", "visc_div") if isinstance(field, FlowField)
             else ("value", "gradient"))
    c, planes = both_layouts((4, N, 3))
    for part in parts:
        fn = getattr(field, part)
        assert np.array_equal(fn(planes, times()), fn(c, times())), part


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("frame_name", sorted(FRAME_CATALOG))
def test_pull_backs_and_fd_operators_do_not_depend_on_the_layout(frame_name, field_name):
    frame, field = builtin_frames()[frame_name], FIELDS[field_name]
    vector = isinstance(field, FlowField)
    observed = (ObservedVectorField if vector else ObservedScalarField)(frame, field)
    operators = (diffops.fd_jacobian if vector else diffops.fd_gradient,
                 diffops.fd_time_derivative, diffops.fd_second_derivatives)
    c, planes = both_layouts((N, 3))
    t = times()
    assert np.array_equal(observed(planes, t), observed(c, t))
    for operator in operators:
        assert np.array_equal(operator(observed, planes, t), operator(observed, c, t)), \
            operator.__name__


@pytest.mark.parametrize("frame_name", sorted(FRAME_CATALOG))
def test_a_kinematics_miss_stores_the_pull_back_parts_entries_first(frame_name):
    # Every part the pull-back reads at each stencil point, a constant one
    # too, is stored with each entry contiguous over the times.
    st = builtin_frames()[frame_name].state(times())
    for part in (st.alpha, st.y, st.dy):
        assert part.strides[0] == part.itemsize


def old_cross(a, b):
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def old_axial(m):
    return 0.5 * np.stack([m[..., 2, 1] - m[..., 1, 2],
                           m[..., 0, 2] - m[..., 2, 0],
                           m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def test_cross_equals_numpy_cross_on_either_layout():
    (a, pa), (b, pb) = both_layouts((N, 3), 1), both_layouts((4, N, 3), 2)
    for u, v in ((a, b), (pa, pb), (pa, b), (a, pb), (a[0], pb), (pa, b[0, 0]), (a[0], b[0, 0])):
        got = tc.cross(u, v)
        assert np.array_equal(got, np.cross(u, v)) and np.array_equal(got, old_cross(u, v))
        assert entries_first(got)


def test_axial_equals_the_stacked_formula_on_either_layout():
    m = np.random.default_rng(3).normal(size=(4, N, 3, 3))
    planes = m.copy(order="F")   # each entry contiguous over the batch
    for stack in (m, planes, m[0, 0]):
        got = tc.axial(stack)
        assert np.array_equal(got, old_axial(m if stack is planes else stack))
        assert entries_first(got)


def test_planes_is_entries_first_at_the_shape_asked_for():
    for lead in ((), (5,), (2, 5)):
        v = tc.planes(lead)
        assert v.shape == lead + (3,) and entries_first(v)


def test_a_jet_folded_in_pieces_gives_each_time_its_own_bits():
    # A rotation fold multiplies FOLD_TIMES times at a time: across and at the
    # pieces' edges, each time reads the bits of a jet of that time alone.
    frame = builtin_frames()["wobble"]
    t = np.linspace(-1.0, 2.0, 2 * FOLD_TIMES + 37)
    whole = frame.state(t)
    for i in (0, FOLD_TIMES - 1, FOLD_TIMES, t.size - 1):
        one = frame.state(t[i:i + 1])
        for part in ("alpha", "dalpha", "d2alpha", "spin", "omega"):
            assert np.array_equal(getattr(whole, part)[i], getattr(one, part)[0]), (i, part)


@pytest.mark.parametrize("samples", [1, 7])
@pytest.mark.parametrize("check_id", sorted(obj.CHECKS))
@pytest.mark.parametrize("frame_name", sorted(FRAME_CATALOG))
def test_a_group_call_gives_each_member_its_call_alone(frame_name, check_id, samples):
    # The five catalog flows, the two scalars, or five generators for a
    # frame-only check: one call over the whole batch, equal member by member.
    spec, frame = obj.CHECKS[check_id], builtin_frames()[frame_name]
    members = {FlowField: list(builtin_flows().values()),
               ScalarField: list(builtin_scalars().values()), None: [None] * 5}[spec.field]
    needs = [{"p_field": builtin_scalars()["gaussian_T"], "mu": 0.7,
              "force": BodyForce(g=np.array([0.0, 0.0, -9.81]), rho=1.2)}[name]
             for name in spec.needs]
    check = getattr(obj, spec.function)

    def rngs():
        return [np.random.default_rng([5, i]) for i in range(len(members))]

    group = check(frame, *([members] if spec.field else []), *needs,
                  samples=samples, rng=rngs())
    alone = tuple(check(frame, *([m] if spec.field else []), *needs, samples=samples, rng=r)
                  for m, r in zip(members, rngs()))
    assert group == alone
